//! End-to-end agreement: all four engines must produce the same result
//! multiset as the in-memory reference evaluator, on every query shape the
//! paper exercises.

use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida_core::{extract, DataCatalog, PlanRules, QueryEngine};
use rapida_mapred::Engine;
use rapida_rdf::{vocab, Graph, Term};
use rapida_sparql::{evaluate, parse_query};

fn iri(s: &str) -> Term {
    Term::iri(format!("http://x/{s}"))
}

/// A miniature BSBM-like graph: products with types/labels/features, offers
/// with prices and vendors, vendors with countries.
fn bsbm_mini() -> Graph {
    let mut g = Graph::new();
    let countries = ["US", "UK", "DE"];
    for v in 0..6 {
        let vendor = iri(&format!("vendor{v}"));
        g.insert_terms(&vendor, &iri("cn"), &iri(countries[v % 3]));
    }
    for p in 0..20 {
        let prod = iri(&format!("prod{p}"));
        let ty = if p % 4 == 0 { "T9" } else { "T1" };
        g.insert_terms(&prod, &Term::iri(vocab::RDF_TYPE), &iri(ty));
        g.insert_terms(&prod, &iri("label"), &Term::literal(format!("product {p}")));
        // Multi-valued features on some products; none on others.
        if p % 3 != 0 {
            g.insert_terms(&prod, &iri("pf"), &iri(&format!("feat{}", p % 5)));
        }
        if p % 6 == 1 {
            g.insert_terms(&prod, &iri("pf"), &iri(&format!("feat{}", (p + 2) % 5)));
        }
    }
    let mut o = 0;
    for p in 0..20 {
        for k in 0..(1 + p % 3) {
            let offer = iri(&format!("offer{o}"));
            o += 1;
            g.insert_terms(&offer, &iri("pr"), &iri(&format!("prod{p}")));
            g.insert_terms(
                &offer,
                &iri("pc"),
                &Term::decimal(10.0 + ((p * 7 + k * 13) % 90) as f64),
            );
            g.insert_terms(&offer, &iri("ve"), &iri(&format!("vendor{}", (p + k) % 6)));
        }
    }
    g
}

fn check_all_engines(g: &Graph, sparql: &str) {
    let query = parse_query(sparql).expect("query parses");
    let expected = evaluate(&query, g).canonicalized(&g.dict);
    let aq = extract(&query).expect("analytical IR extracts");
    let cat = DataCatalog::load(g);
    let mr = Engine::pinned(cat.dfs.clone());
    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    for e in &engines {
        let plan = e
            .plan(&aq, &cat)
            .unwrap_or_else(|err| panic!("{} failed to plan: {err}", e.name()));
        let (rel, _wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        let got = rel.canonicalized(&g.dict);
        assert_eq!(
            got,
            expected,
            "{} disagrees with the reference evaluator on:\n{sparql}",
            e.name()
        );
    }
}

const PREFIX: &str = "PREFIX ex: <http://x/>\n";

/// G1-style: single grouping, GROUP BY ALL.
#[test]
fn g_style_group_by_all() {
    let q = format!(
        "{PREFIX}SELECT (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {{
            ?p a ex:T1 ; ex:label ?l .
            ?o ex:pr ?p ; ex:pc ?pr .
        }}"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// G3-style: single grouping by feature.
#[test]
fn g_style_group_by_feature() {
    let q = format!(
        "{PREFIX}SELECT ?f (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {{
            ?p a ex:T1 ; ex:label ?l ; ex:pf ?f .
            ?o ex:pr ?p ; ex:pc ?pr .
        }} GROUP BY ?f"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// MG1-style: per-feature vs ALL (overlapping patterns, pf secondary).
#[test]
fn mg1_style_feature_vs_all() {
    let q = format!(
        "{PREFIX}SELECT ?f ?cntF ?sumF ?cntT ?sumT {{
            {{ SELECT ?f (COUNT(?pr2) AS ?cntF) (SUM(?pr2) AS ?sumF)
               {{ ?p2 a ex:T1 ; ex:label ?l2 ; ex:pf ?f .
                  ?o2 ex:pr ?p2 ; ex:pc ?pr2 . }} GROUP BY ?f }}
            {{ SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
               {{ ?p1 a ex:T1 ; ex:label ?l1 .
                  ?o1 ex:pr ?p1 ; ex:pc ?pr . }} }}
        }}"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// MG3-style: per-(feature, country) vs per-country — 3-star patterns.
#[test]
fn mg3_style_feature_country_vs_country() {
    let q = format!(
        "{PREFIX}SELECT ?f ?c ?cntF ?cntT {{
            {{ SELECT ?f ?c (COUNT(?pr2) AS ?cntF)
               {{ ?p2 a ex:T1 ; ex:label ?l2 ; ex:pf ?f .
                  ?o2 ex:pr ?p2 ; ex:pc ?pr2 ; ex:ve ?v2 .
                  ?v2 ex:cn ?c . }} GROUP BY ?f ?c }}
            {{ SELECT ?c (COUNT(?pr) AS ?cntT)
               {{ ?p1 a ex:T1 ; ex:label ?l1 .
                  ?o1 ex:pr ?p1 ; ex:pc ?pr ; ex:ve ?v1 .
                  ?v1 ex:cn ?c . }} GROUP BY ?c }}
        }}"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// High-selectivity type (T9) with numeric filter.
#[test]
fn filtered_query() {
    let q = format!(
        "{PREFIX}SELECT ?f ?cntF ?cntT {{
            {{ SELECT ?f (COUNT(?pr2) AS ?cntF)
               {{ ?p2 a ex:T9 ; ex:pf ?f .
                  ?o2 ex:pr ?p2 ; ex:pc ?pr2 . FILTER(?pr2 > 40) }} GROUP BY ?f }}
            {{ SELECT (COUNT(?pr) AS ?cntT)
               {{ ?p1 a ex:T9 .
                  ?o1 ex:pr ?p1 ; ex:pc ?pr . FILTER(?pr > 40) }} }}
        }}"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// Non-overlapping patterns must fall back and still agree.
#[test]
fn non_overlapping_blocks() {
    let q = format!(
        "{PREFIX}SELECT ?cntA ?cntB {{
            {{ SELECT (COUNT(?f) AS ?cntA) {{ ?p ex:pf ?f ; ex:label ?l . }} }}
            {{ SELECT (COUNT(?c) AS ?cntB) {{ ?v ex:cn ?c . }} }}
        }}"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// Empty result side: a type no product has.
#[test]
fn empty_all_block_synthesizes_zero_count() {
    let q = format!(
        "{PREFIX}SELECT ?f ?cntF ?cntT {{
            {{ SELECT ?f (COUNT(?pr2) AS ?cntF)
               {{ ?p2 a ex:T1 ; ex:pf ?f .
                  ?o2 ex:pr ?p2 ; ex:pc ?pr2 . }} GROUP BY ?f }}
            {{ SELECT (COUNT(?pr) AS ?cntT)
               {{ ?p1 a ex:NoSuchType .
                  ?o1 ex:pr ?p1 ; ex:pc ?pr . }} }}
        }}"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// MIN / MAX / AVG aggregates.
#[test]
fn min_max_avg_aggregates() {
    let q = format!(
        "{PREFIX}SELECT ?c (MIN(?pr) AS ?lo) (MAX(?pr) AS ?hi) (AVG(?pr) AS ?avg) {{
            ?o ex:pc ?pr ; ex:ve ?v . ?v ex:cn ?c .
        }} GROUP BY ?c"
    );
    check_all_engines(&bsbm_mini(), &q);
}

/// Object-object join (the AQ3/G5 shape): two stars sharing an object var.
#[test]
fn object_object_join() {
    let mut g = Graph::new();
    for i in 0..8 {
        let b = iri(&format!("assay{i}"));
        g.insert_terms(&b, &iri("cid"), &iri(&format!("compound{}", i % 4)));
        g.insert_terms(&b, &iri("gi"), &iri(&format!("gi{}", i % 3)));
        let u = iri(&format!("protein{i}"));
        g.insert_terms(&u, &iri("gi"), &iri(&format!("gi{}", i % 5)));
        g.insert_terms(&u, &iri("geneSymbol"), &iri(&format!("gene{}", i % 2)));
    }
    let q = format!(
        "{PREFIX}SELECT ?cid (COUNT(?g) AS ?n) {{
            ?b ex:cid ?cid ; ex:gi ?gi .
            ?u ex:gi ?gi ; ex:geneSymbol ?g .
        }} GROUP BY ?cid"
    );
    check_all_engines(&g, &q);
}

/// Constant-object (non-type) pattern in both blocks (MG16 shape).
#[test]
fn shared_constant_object() {
    let mut g = Graph::new();
    for i in 0..12 {
        let p = iri(&format!("pub{i}"));
        let ty = if i % 3 == 0 { "News" } else { "Journal Article" };
        g.insert_terms(&p, &iri("pub_type"), &Term::literal(ty));
        g.insert_terms(&p, &iri("chemical"), &iri(&format!("chem{}", i % 4)));
        g.insert_terms(&p, &iri("author"), &iri(&format!("auth{}", i % 3)));
        if i % 2 == 0 {
            g.insert_terms(&p, &iri("chemical"), &iri(&format!("chem{}", (i + 1) % 4)));
        }
    }
    for a in 0..3 {
        g.insert_terms(
            &iri(&format!("auth{a}")),
            &iri("last_name"),
            &Term::literal(format!("name{a}")),
        );
    }
    let q = format!(
        "{PREFIX}SELECT ?ln ?perA ?allA {{
            {{ SELECT ?ln (COUNT(?ch) AS ?perA)
               {{ ?pub ex:pub_type \"News\" ; ex:chemical ?ch ; ex:author ?a .
                  ?a ex:last_name ?ln . }} GROUP BY ?ln }}
            {{ SELECT (COUNT(?ch1) AS ?allA)
               {{ ?pub1 ex:pub_type \"News\" ; ex:chemical ?ch1 ; ex:author ?a1 .
                  ?a1 ex:last_name ?ln1 . }} }}
        }}"
    );
    check_all_engines(&g, &q);
}

/// Regex filter (the chem-query shape, G6/G7).
#[test]
fn regex_filter_query() {
    let mut g = Graph::new();
    for i in 0..10 {
        let pw = iri(&format!("pathway{i}"));
        g.insert_terms(&pw, &iri("protein"), &iri(&format!("protein{}", i % 4)));
        let name = if i % 2 == 0 {
            "MAPK signaling pathway - organism"
        } else {
            "other pathway"
        };
        g.insert_terms(&pw, &iri("Pathway_name"), &Term::literal(name));
        let u = iri(&format!("protein{i}"));
        g.insert_terms(&u, &iri("gi"), &iri(&format!("gi{i}")));
    }
    let q = format!(
        "{PREFIX}SELECT ?u (COUNT(?u) AS ?n) {{
            ?pathway ex:protein ?u ; ex:Pathway_name ?pname .
            ?u ex:gi ?gi .
            FILTER regex(?pname, \"MAPK signaling\", \"i\")
        }} GROUP BY ?u"
    );
    check_all_engines(&g, &q);
}

/// MR-cycle counts per engine on an MG1-shaped query (paper §5.2).
#[test]
fn mg1_cycle_counts_match_paper() {
    let g = bsbm_mini();
    let q = format!(
        "{PREFIX}SELECT ?f ?cntF ?cntT {{
            {{ SELECT ?f (COUNT(?pr2) AS ?cntF)
               {{ ?p2 a ex:T1 ; ex:label ?l2 ; ex:pf ?f .
                  ?o2 ex:pr ?p2 ; ex:pc ?pr2 . }} GROUP BY ?f }}
            {{ SELECT (COUNT(?pr) AS ?cntT)
               {{ ?p1 a ex:T1 ; ex:label ?l1 .
                  ?o1 ex:pr ?p1 ; ex:pc ?pr . }} }}
        }}"
    );
    let query = parse_query(&q).unwrap();
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let cycles = |e: &dyn QueryEngine| e.plan(&aq, &cat).unwrap().cycles();
    assert_eq!(cycles(&HiveNaive::default()), 9, "paper: Hive naive = 9");
    assert_eq!(cycles(&RapidPlus::default()), 5, "paper: RAPID+ = 5");
    assert_eq!(
        cycles(&RapidAnalytics::default()),
        3,
        "paper: RAPIDAnalytics = 3"
    );
    let mqo = cycles(&HiveMqo::default());
    assert!(
        (7..=8).contains(&mqo),
        "paper: Hive MQO = 7 (we count the final map-only join; got {mqo})"
    );
}

/// α-join pruning must drop composite combinations that match no block:
/// with crossed secondary properties (Table 2 row 4 shape), disabling the
/// pruning strictly increases the records materialized by the join cycle,
/// while results stay identical.
#[test]
fn alpha_pruning_reduces_join_output() {
    let mut g = Graph::new();
    for p in 0..30 {
        let prod = iri(&format!("p{p}"));
        g.insert_terms(&prod, &Term::iri(vocab::RDF_TYPE), &iri("T1"));
        let offer = iri(&format!("o{p}"));
        g.insert_terms(&offer, &iri("pr"), &prod);
        g.insert_terms(&offer, &iri("pc"), &Term::decimal(p as f64));
        // One third have only vf, one third only vt, one third neither.
        match p % 3 {
            0 => {
                g.insert_terms(&offer, &iri("vf"), &Term::literal("2015"));
            }
            1 => {
                g.insert_terms(&offer, &iri("vt"), &Term::literal("2016"));
            }
            _ => {}
        }
    }
    let q = format!(
        "{PREFIX}SELECT ?n1 ?n2 {{
            {{ SELECT (COUNT(?v1) AS ?n1)
               {{ ?p a ex:T1 . ?o ex:pr ?p ; ex:pc ?c1 ; ex:vf ?v1 . }} }}
            {{ SELECT (COUNT(?v2) AS ?n2)
               {{ ?p2 a ex:T1 . ?o2 ex:pr ?p2 ; ex:pc ?c2 ; ex:vt ?v2 . }} }}
        }}"
    );
    let query = parse_query(&q).unwrap();
    let expected = evaluate(&query, &g).canonicalized(&g.dict);
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());

    let mut join_outputs = Vec::new();
    for pruning in [true, false] {
        let engine = PlanRules {
            alpha_pruning: pruning,
            ..PlanRules::rapida()
        };
        let plan = engine.plan(&aq, &cat).unwrap();
        let (rel, wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        assert_eq!(rel.canonicalized(&g.dict), expected, "pruning={pruning}");
        // The first job is the composite α-join cycle.
        join_outputs.push(wf.jobs[0].output_records);
    }
    assert!(
        join_outputs[0] < join_outputs[1],
        "α-join pruning must shrink the join output: {} vs {}",
        join_outputs[0],
        join_outputs[1]
    );
    // Exactly the no-valid-property third is pruned.
    assert_eq!(join_outputs[0], 20);
    assert_eq!(join_outputs[1], 30);
}
