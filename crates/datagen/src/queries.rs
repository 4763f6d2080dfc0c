//! The full evaluated query catalog: simple grouping queries G1–G9 and
//! multi-grouping queries MG1–MG4, MG6–MG18, reconstructed from Fig. 7,
//! Appendix A, and the case-study descriptions of §5.1.

/// Which dataset a query runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BSBM-like e-commerce data.
    Bsbm,
    /// Chem2Bio2RDF-like chemogenomics data.
    Chem,
    /// PubMed-like publication data.
    Pubmed,
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct CatalogQuery {
    /// Paper query id (e.g. `"MG3"`).
    pub id: &'static str,
    /// Target dataset.
    pub workload: Workload,
    /// Paper-annotated selectivity, when given ("lo"/"hi").
    pub selectivity: Option<&'static str>,
    /// The SPARQL text.
    pub sparql: String,
    /// Fig. 7 structure: per block, the triple-pattern count of each star.
    pub shapes: &'static [&'static [usize]],
    /// Fig. 7 GROUP BY summary per block.
    pub groups: &'static [&'static str],
}

const BSBM_PREFIX: &str = "PREFIX bsbm: <http://bsbm.example.org/v01/>\n";
const CHEM_PREFIX: &str = "PREFIX chem: <http://chem2bio2rdf.example.org/>\n";
const PM_PREFIX: &str = "PREFIX pm: <http://pubmed.example.org/>\n";

fn bsbm_g(ty: usize, by_feature: bool) -> String {
    if by_feature {
        format!(
            "{BSBM_PREFIX}SELECT ?f (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {{
  ?p a bsbm:ProductType{ty} ; rdfs:label ?l ; bsbm:productFeature ?f .
  ?o bsbm:product ?p ; bsbm:price ?pr .
}} GROUP BY ?f"
        )
    } else {
        format!(
            "{BSBM_PREFIX}SELECT (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {{
  ?p a bsbm:ProductType{ty} ; rdfs:label ?l .
  ?o bsbm:product ?p ; bsbm:price ?pr .
}}"
        )
    }
}

/// MG1/MG2 (Appendix A, MG1): average price per feature vs across ALL
/// features.
fn bsbm_mg12(ty: usize) -> String {
    format!(
        "{BSBM_PREFIX}SELECT ?f ?sumF ?cntF ?sumT ?cntT {{
  {{ SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
     {{ ?p2 a bsbm:ProductType{ty} ; rdfs:label ?l2 ; bsbm:productFeature ?f .
        ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 . }} GROUP BY ?f }}
  {{ SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
     {{ ?p1 a bsbm:ProductType{ty} ; rdfs:label ?l1 .
        ?off1 bsbm:product ?p1 ; bsbm:price ?pr . }} }}
}}"
    )
}

/// MG3/MG4 (Appendix A, MG3): price per country-feature vs per country.
fn bsbm_mg34(ty: usize) -> String {
    format!(
        "{BSBM_PREFIX}SELECT ?f ?c ?sumF ?cntF ?sumT ?cntT {{
  {{ SELECT ?f ?c (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
     {{ ?p2 a bsbm:ProductType{ty} ; rdfs:label ?l2 ; bsbm:productFeature ?f .
        ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 ; bsbm:vendor ?v2 .
        ?v2 bsbm:country ?c . }} GROUP BY ?f ?c }}
  {{ SELECT ?c (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
     {{ ?p1 a bsbm:ProductType{ty} ; rdfs:label ?l1 .
        ?off1 bsbm:product ?p1 ; bsbm:price ?pr ; bsbm:vendor ?v1 .
        ?v1 bsbm:country ?c . }} GROUP BY ?c }}
}}"
    )
}

/// Build the full catalog.
pub fn catalog() -> Vec<CatalogQuery> {
    let mut out = Vec::new();

    // --- BSBM simple groupings (Table 3 left) ---
    out.push(CatalogQuery {
        id: "G1",
        workload: Workload::Bsbm,
        selectivity: Some("lo"),
        sparql: bsbm_g(1, false),
        shapes: &[&[2, 2]],
        groups: &["ALL"],
    });
    out.push(CatalogQuery {
        id: "G2",
        workload: Workload::Bsbm,
        selectivity: Some("hi"),
        sparql: bsbm_g(9, false),
        shapes: &[&[2, 2]],
        groups: &["ALL"],
    });
    out.push(CatalogQuery {
        id: "G3",
        workload: Workload::Bsbm,
        selectivity: Some("lo"),
        sparql: bsbm_g(1, true),
        shapes: &[&[3, 2]],
        groups: &["{feature}"],
    });
    out.push(CatalogQuery {
        id: "G4",
        workload: Workload::Bsbm,
        selectivity: Some("hi"),
        sparql: bsbm_g(9, true),
        shapes: &[&[3, 2]],
        groups: &["{feature}"],
    });

    // --- Chem2Bio2RDF simple groupings (Table 3 right) ---
    out.push(CatalogQuery {
        id: "G5",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?cid (COUNT(?cid) AS ?active_assays) {{
  ?b chem:CID ?cid ; chem:outcome ?a ; chem:Score ?s1 ; chem:gi ?gi .
  ?u chem:gi ?gi ; chem:geneSymbol ?g .
  ?di chem:gene ?g ; chem:DBID ?dr .
  ?dr chem:Generic_Name \"Dexamethasone\" .
}} GROUP BY ?cid"
        ),
        shapes: &[&[4, 2, 2, 1]],
        groups: &["{cid}"],
    });
    out.push(CatalogQuery {
        id: "G6",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?cid (COUNT(?cid) AS ?active_assays) {{
  ?b chem:CID ?cid ; chem:outcome ?a ; chem:Score ?s1 ; chem:gi ?gi .
  ?u chem:gi ?gi .
  ?pathway chem:protein ?u ; chem:Pathway_name ?pname .
  FILTER regex(?pname, \"MAPK signaling pathway\", \"i\")
}} GROUP BY ?cid"
        ),
        shapes: &[&[4, 1, 2]],
        groups: &["{cid}"],
    });
    out.push(CatalogQuery {
        id: "G7",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?pid (COUNT(?pid) AS ?count) {{
  ?sider chem:side_effect ?se ; chem:cid ?cid .
  FILTER regex(?se, \"hepatomegaly\", \"i\")
  ?dr chem:CID ?cid .
  ?target chem:DBID ?dr ; chem:SwissProt_ID ?u .
  ?pathway chem:protein ?u ; chem:pathwayid ?pid .
}} GROUP BY ?pid"
        ),
        shapes: &[&[2, 1, 2, 2]],
        groups: &["{pid}"],
    });
    out.push(CatalogQuery {
        id: "G8",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?g (COUNT(?cid) AS ?compounds) {{
  ?b chem:CID ?cid ; chem:outcome ?a ; chem:Score ?s ; chem:gi ?gi .
  ?u chem:gi ?gi ; chem:geneSymbol ?g .
}} GROUP BY ?g"
        ),
        shapes: &[&[4, 2]],
        groups: &["{gene}"],
    });
    out.push(CatalogQuery {
        id: "G9",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?gs (COUNT(?gs) AS ?pubs) {{
  ?g chem:geneSymbol ?gs .
  ?pmid chem:gene ?g ; chem:side_effect ?se .
}} GROUP BY ?gs"
        ),
        shapes: &[&[1, 2]],
        groups: &["{gene}"],
    });

    // --- BSBM multi-groupings (Fig. 8 a/b) ---
    out.push(CatalogQuery {
        id: "MG1",
        workload: Workload::Bsbm,
        selectivity: Some("lo"),
        sparql: bsbm_mg12(1),
        shapes: &[&[3, 2], &[2, 2]],
        groups: &["{feature}", "ALL"],
    });
    out.push(CatalogQuery {
        id: "MG2",
        workload: Workload::Bsbm,
        selectivity: Some("hi"),
        sparql: bsbm_mg12(9),
        shapes: &[&[3, 2], &[2, 2]],
        groups: &["{feature}", "ALL"],
    });
    out.push(CatalogQuery {
        id: "MG3",
        workload: Workload::Bsbm,
        selectivity: Some("lo"),
        sparql: bsbm_mg34(1),
        shapes: &[&[3, 3, 1], &[2, 3, 1]],
        groups: &["{feature, country}", "{country}"],
    });
    out.push(CatalogQuery {
        id: "MG4",
        workload: Workload::Bsbm,
        selectivity: Some("hi"),
        sparql: bsbm_mg34(9),
        shapes: &[&[3, 3, 1], &[2, 3, 1]],
        groups: &["{feature, country}", "{country}"],
    });

    // --- Chem multi-groupings (Fig. 8c) ---
    out.push(CatalogQuery {
        id: "MG6",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?cid ?g1 ?aPerCG ?aPerC {{
  {{ SELECT ?cid ?g1 (COUNT(?cid) AS ?aPerCG)
     {{ ?b1 chem:CID ?cid ; chem:outcome ?a1 ; chem:Score ?s1 ; chem:gi ?gi1 .
        ?u1 chem:gi ?gi1 ; chem:geneSymbol ?g1 .
        ?di1 chem:gene ?g1 ; chem:DBID ?dr1 . }} GROUP BY ?cid ?g1 }}
  {{ SELECT ?cid (COUNT(?cid) AS ?aPerC)
     {{ ?b chem:CID ?cid ; chem:outcome ?a ; chem:Score ?s ; chem:gi ?gi .
        ?u chem:gi ?gi ; chem:geneSymbol ?g .
        ?di chem:gene ?g ; chem:DBID ?dr . }} GROUP BY ?cid }}
}}"
        ),
        shapes: &[&[4, 2, 2], &[4, 2, 2]],
        groups: &["{cid, gene}", "{cid}"],
    });
    out.push(CatalogQuery {
        id: "MG7",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?cid ?dr1 ?aPerCD ?aPerC {{
  {{ SELECT ?cid ?dr1 (COUNT(?cid) AS ?aPerCD)
     {{ ?b1 chem:CID ?cid ; chem:outcome ?a1 ; chem:Score ?s1 ; chem:gi ?gi1 .
        ?u1 chem:gi ?gi1 ; chem:geneSymbol ?g1 .
        ?di1 chem:gene ?g1 ; chem:DBID ?dr1 . }} GROUP BY ?cid ?dr1 }}
  {{ SELECT ?cid (COUNT(?cid) AS ?aPerC)
     {{ ?b chem:CID ?cid ; chem:outcome ?a ; chem:Score ?s ; chem:gi ?gi .
        ?u chem:gi ?gi ; chem:geneSymbol ?g .
        ?di chem:gene ?g ; chem:DBID ?dr . }} GROUP BY ?cid }}
}}"
        ),
        shapes: &[&[4, 2, 2], &[4, 2, 2]],
        groups: &["{cid, drug}", "{cid}"],
    });
    out.push(CatalogQuery {
        id: "MG8",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?cid ?g1 ?aPerCG ?aT {{
  {{ SELECT ?cid ?g1 (COUNT(?cid) AS ?aPerCG)
     {{ ?b1 chem:CID ?cid ; chem:outcome ?a1 ; chem:Score ?s1 ; chem:gi ?gi1 .
        ?u1 chem:gi ?gi1 ; chem:geneSymbol ?g1 .
        ?di1 chem:gene ?g1 ; chem:DBID ?dr1 . }} GROUP BY ?cid ?g1 }}
  {{ SELECT (COUNT(?cid2) AS ?aT)
     {{ ?b chem:CID ?cid2 ; chem:outcome ?a ; chem:Score ?s ; chem:gi ?gi .
        ?u chem:gi ?gi ; chem:geneSymbol ?g .
        ?di chem:gene ?g ; chem:DBID ?dr . }} }}
}}"
        ),
        shapes: &[&[4, 2, 2], &[4, 2, 2]],
        groups: &["{cid, gene}", "ALL"],
    });
    out.push(CatalogQuery {
        id: "MG9",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?gs ?pPerGene ?pT {{
  {{ SELECT ?gs (COUNT(?gs) AS ?pPerGene)
     {{ ?g chem:geneSymbol ?gs .
        ?pmid chem:gene ?g ; chem:side_effect ?se . }} GROUP BY ?gs }}
  {{ SELECT (COUNT(?gs1) AS ?pT)
     {{ ?g1 chem:geneSymbol ?gs1 .
        ?pmid1 chem:gene ?g1 ; chem:side_effect ?se1 . }} }}
}}"
        ),
        shapes: &[&[1, 2], &[1, 2]],
        groups: &["{gene}", "ALL"],
    });
    out.push(CatalogQuery {
        id: "MG10",
        workload: Workload::Chem,
        selectivity: None,
        sparql: format!(
            "{CHEM_PREFIX}SELECT ?d ?gs ?pPerDG ?pPerG {{
  {{ SELECT ?d ?gs (COUNT(?pmid) AS ?pPerDG)
     {{ ?pmid chem:gene ?g ; chem:side_effect ?se ; chem:disease ?d .
        ?g chem:geneSymbol ?gs . }} GROUP BY ?d ?gs }}
  {{ SELECT ?gs (COUNT(?pmid1) AS ?pPerG)
     {{ ?pmid1 chem:gene ?g1 ; chem:side_effect ?se1 .
        ?g1 chem:geneSymbol ?gs . }} GROUP BY ?gs }}
}}"
        ),
        shapes: &[&[3, 1], &[2, 1]],
        groups: &["{disease, gene}", "{gene}"],
    });

    // --- PubMed multi-groupings (Table 4) ---
    out.push(CatalogQuery {
        id: "MG11",
        workload: Workload::Pubmed,
        selectivity: None,
        sparql: format!(
            "{PM_PREFIX}SELECT ?c ?cntC ?cntT {{
  {{ SELECT ?c (COUNT(?g) AS ?cntC)
     {{ ?pub pm:journal ?j ; pm:grant ?g .
        ?g pm:grant_agency ?ga ; pm:grant_country ?c . }} GROUP BY ?c }}
  {{ SELECT (COUNT(?g1) AS ?cntT)
     {{ ?pub1 pm:journal ?j1 ; pm:grant ?g1 .
        ?g1 pm:grant_agency ?ga1 . }} }}
}}"
        ),
        shapes: &[&[2, 2], &[2, 1]],
        groups: &["{country}", "ALL"],
    });
    out.push(CatalogQuery {
        id: "MG12",
        workload: Workload::Pubmed,
        selectivity: None,
        sparql: format!(
            "{PM_PREFIX}SELECT ?c ?pt ?cntCP ?cntC {{
  {{ SELECT ?c ?pt (COUNT(?g) AS ?cntCP)
     {{ ?pub pm:pub_type ?pt ; pm:grant ?g .
        ?g pm:grant_agency ?ga ; pm:grant_country ?c . }} GROUP BY ?c ?pt }}
  {{ SELECT ?c (COUNT(?g1) AS ?cntC)
     {{ ?pub1 pm:pub_type ?pt1 ; pm:grant ?g1 .
        ?g1 pm:grant_country ?c . }} GROUP BY ?c }}
}}"
        ),
        shapes: &[&[2, 2], &[2, 1]],
        groups: &["{country, pubType}", "{country}"],
    });
    out.push(CatalogQuery {
        id: "MG13",
        workload: Workload::Pubmed,
        selectivity: None,
        sparql: format!(
            "{PM_PREFIX}SELECT ?a ?pty ?perPT ?perAPT {{
  {{ SELECT ?a ?pty (COUNT(?m) AS ?perAPT)
     {{ ?p pm:pub_type ?pty ; pm:mesh_heading ?m ; pm:author ?a .
        ?a pm:last_name ?ln . }} GROUP BY ?a ?pty }}
  {{ SELECT ?pty (COUNT(?m1) AS ?perPT)
     {{ ?p1 pm:pub_type ?pty ; pm:mesh_heading ?m1 ; pm:author ?a1 .
        ?a1 pm:last_name ?ln1 . }} GROUP BY ?pty }}
}}"
        ),
        shapes: &[&[3, 1], &[3, 1]],
        groups: &["{author, pubType}", "{pubType}"],
    });
    out.push(CatalogQuery {
        id: "MG14",
        workload: Workload::Pubmed,
        selectivity: None,
        sparql: format!(
            "{PM_PREFIX}SELECT ?a ?pty ?perPT ?perAPT {{
  {{ SELECT ?a ?pty (COUNT(?ch) AS ?perAPT)
     {{ ?p pm:pub_type ?pty ; pm:chemical ?ch ; pm:author ?a .
        ?a pm:last_name ?ln . }} GROUP BY ?a ?pty }}
  {{ SELECT ?pty (COUNT(?ch1) AS ?perPT)
     {{ ?p1 pm:pub_type ?pty ; pm:chemical ?ch1 ; pm:author ?a1 .
        ?a1 pm:last_name ?ln1 . }} GROUP BY ?pty }}
}}"
        ),
        shapes: &[&[3, 1], &[3, 1]],
        groups: &["{author, pubType}", "{pubType}"],
    });
    for (id, pub_type, sel) in [
        ("MG15", "Journal Article", "lo"),
        ("MG16", "News", "hi"),
    ] {
        out.push(CatalogQuery {
            id,
            workload: Workload::Pubmed,
            selectivity: Some(sel),
            sparql: format!(
                "{PM_PREFIX}SELECT ?ln ?perA ?allA {{
  {{ SELECT ?ln (COUNT(?ch) AS ?perA)
     {{ ?pub pm:pub_type \"{pub_type}\" ; pm:chemical ?ch ; pm:author ?a .
        ?a pm:last_name ?ln . }} GROUP BY ?ln }}
  {{ SELECT (COUNT(?ch1) AS ?allA)
     {{ ?pub1 pm:pub_type \"{pub_type}\" ; pm:chemical ?ch1 ; pm:author ?a1 .
        ?a1 pm:last_name ?ln1 . }} }}
}}"
            ),
            shapes: &[&[3, 1], &[3, 1]],
            groups: &["{authorlastname}", "ALL"],
        });
    }
    out.push(CatalogQuery {
        id: "MG17",
        workload: Workload::Pubmed,
        selectivity: None,
        sparql: format!(
            "{PM_PREFIX}SELECT ?c ?cntC ?cntT {{
  {{ SELECT ?c (COUNT(?g) AS ?cntC)
     {{ ?pub pm:journal ?j ; pm:author ?a ; pm:grant ?g .
        ?g pm:grant_agency ?ga ; pm:grant_country ?c . }} GROUP BY ?c }}
  {{ SELECT (COUNT(?g1) AS ?cntT)
     {{ ?pub1 pm:journal ?j1 ; pm:author ?a1 ; pm:grant ?g1 .
        ?g1 pm:grant_agency ?ga1 . }} }}
}}"
        ),
        shapes: &[&[3, 2], &[3, 1]],
        groups: &["{country}", "ALL"],
    });
    out.push(CatalogQuery {
        id: "MG18",
        workload: Workload::Pubmed,
        selectivity: None,
        sparql: format!(
            "{PM_PREFIX}SELECT ?c ?a ?perC ?perAC {{
  {{ SELECT ?c ?a (COUNT(?g) AS ?perAC)
     {{ ?p pm:pub_type \"Journal Article\" ; pm:author ?a ; pm:grant ?g .
        ?g pm:grant_agency ?ga ; pm:grant_country ?c . }} GROUP BY ?c ?a }}
  {{ SELECT ?c (COUNT(?g1) AS ?perC)
     {{ ?pub1 pm:pub_type \"Journal Article\" ; pm:grant ?g1 .
        ?g1 pm:grant_agency ?ga1 ; pm:grant_country ?c . }} GROUP BY ?c }}
}}"
        ),
        shapes: &[&[3, 2], &[2, 2]],
        groups: &["{author, country}", "{country}"],
    });
    out
}

/// Look up a catalog query by id; `None` for an id the catalog does not
/// have (what a server does with an id that came from a client).
pub fn try_query(id: &str) -> Option<CatalogQuery> {
    catalog().into_iter().find(|q| q.id == id)
}

/// Look up a catalog query by id. Panics on unknown ids (programmer error
/// in benchmarks/examples).
// Invariant: the panic is this function's contract; `try_query` is the
// fallible lookup.
#[allow(clippy::panic)]
pub fn query(id: &str) -> CatalogQuery {
    try_query(id).unwrap_or_else(|| panic!("unknown catalog query '{id}'"))
}

/// All multi-grouping query ids.
pub fn mg_ids() -> Vec<&'static str> {
    catalog()
        .into_iter()
        .filter(|q| q.id.starts_with("MG"))
        .map(|q| q.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapida_sparql::parse_query;

    #[test]
    fn all_queries_parse() {
        for q in catalog() {
            parse_query(&q.sparql)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}\n{}", q.id, q.sparql));
        }
    }

    #[test]
    fn catalog_covers_the_paper() {
        let ids: Vec<&str> = catalog().iter().map(|q| q.id).collect();
        for id in [
            "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "MG1", "MG2", "MG3", "MG4",
            "MG6", "MG7", "MG8", "MG9", "MG10", "MG11", "MG12", "MG13", "MG14", "MG15", "MG16",
            "MG17", "MG18",
        ] {
            assert!(ids.contains(&id), "{id} missing from catalog");
        }
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(query("MG3").shapes, &[&[3, 3, 1][..], &[2, 3, 1][..]]);
        assert_eq!(query("MG16").selectivity, Some("hi"));
        assert!(try_query("MG5").is_none(), "the paper has no MG5");
    }

    #[test]
    #[should_panic(expected = "unknown catalog query")]
    fn unknown_id_panics() {
        let _ = query("MG99");
    }
}
