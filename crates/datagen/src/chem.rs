//! Chem2Bio2RDF-like synthetic chemogenomics generator: compounds, bioassays,
//! proteins/genes, drug targets, drugs (including "Dexamethasone"), KEGG-like
//! pathways (including "MAPK signaling pathway"), side effects (including
//! "hepatomegaly") and MEDLINE-like publications (the large VP relations of
//! G9 / MG9–MG10).

use rapida_testkit::rng::StdRng;
use rapida_rdf::{vocab, Graph, Term};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChemConfig {
    /// Number of chemical compounds.
    pub compounds: usize,
    /// Number of bioassay records.
    pub assays: usize,
    /// Number of proteins (each with a gene symbol).
    pub proteins: usize,
    /// Number of drugs.
    pub drugs: usize,
    /// Number of pathways.
    pub pathways: usize,
    /// Number of side-effect records.
    pub sider: usize,
    /// Number of MEDLINE-like publications (the large relation).
    pub medline: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChemConfig {
    fn default() -> Self {
        ChemConfig {
            compounds: 400,
            assays: 2500,
            proteins: 250,
            drugs: 120,
            pathways: 60,
            sider: 500,
            medline: 6000,
            seed: 1234,
        }
    }
}

impl ChemConfig {
    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        ChemConfig {
            compounds: 40,
            assays: 150,
            proteins: 30,
            drugs: 15,
            pathways: 10,
            sider: 40,
            medline: 250,
            seed: 5,
        }
    }
}

fn ns(local: &str) -> Term {
    Term::iri(format!("{}{}", vocab::CHEM_NS, local))
}

/// Generate a Chem2Bio2RDF-like graph.
pub fn generate(cfg: &ChemConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();

    let p_cid = ns("CID");
    let p_outcome = ns("outcome");
    let p_score = ns("Score");
    let p_gi = ns("gi");
    let p_gene_symbol = ns("geneSymbol");
    let p_gene = ns("gene");
    let p_dbid = ns("DBID");
    let p_generic_name = ns("Generic_Name");
    let p_protein = ns("protein");
    let p_pathway_name = ns("Pathway_name");
    let p_pathway_id = ns("pathwayid");
    let p_side_effect = ns("side_effect");
    let p_cid_ref = ns("cid");
    let p_swissprot = ns("SwissProt_ID");
    let p_disease = ns("disease");

    // Proteins with entrez gi ids and gene symbols.
    for u in 0..cfg.proteins {
        let protein = ns(&format!("protein{u}"));
        g.insert_terms(&protein, &p_gi, &ns(&format!("gi{u}")));
        g.insert_terms(
            &protein,
            &p_gene_symbol,
            &Term::literal(format!("GENE{}", u % (cfg.proteins / 2).max(1))),
        );
        if rng.gen_bool(0.8) {
            g.insert_terms(&protein, &p_swissprot, &ns(&format!("swiss{u}")));
        }
        // Pathway membership is added below via protein IRIs.
    }

    // Bioassays: compound x protein activity records.
    for b in 0..cfg.assays {
        let assay = ns(&format!("assay{b}"));
        let c = rng.gen_range(0..cfg.compounds);
        g.insert_terms(&assay, &p_cid, &ns(&format!("compound{c}")));
        g.insert_terms(
            &assay,
            &p_outcome,
            &Term::literal(if rng.gen_bool(0.6) { "active" } else { "inactive" }),
        );
        g.insert_terms(
            &assay,
            &p_score,
            &Term::integer(rng.gen_range(0..100)),
        );
        let u = rng.gen_range(0..cfg.proteins);
        g.insert_terms(&assay, &p_gi, &ns(&format!("gi{u}")));
    }

    // Drugs (drug 0 is Dexamethasone) and drug-target records.
    for d in 0..cfg.drugs {
        let drug = ns(&format!("drug{d}"));
        let name = if d == 0 {
            "Dexamethasone".to_string()
        } else {
            format!("Drug-{d}")
        };
        g.insert_terms(&drug, &p_generic_name, &Term::literal(name));
        // DrugBank compound cross-references (G7 joins SIDER cids to drugs).
        for _ in 0..rng.gen_range(1..=2usize) {
            let c = rng.gen_range(0..cfg.compounds);
            g.insert_terms(&drug, &p_cid, &ns(&format!("compound{c}")));
        }
        // Each drug targets 1–4 genes.
        for t in 0..rng.gen_range(1..=4usize) {
            let di = ns(&format!("drugtarget{d}_{t}"));
            let u = rng.gen_range(0..cfg.proteins);
            g.insert_terms(
                &di,
                &p_gene,
                &Term::literal(format!("GENE{}", u % (cfg.proteins / 2).max(1))),
            );
            g.insert_terms(&di, &p_dbid, &drug);
            // Target records linking drugs to proteins via SwissProt ids
            // (G7 joins these to pathway membership).
            let target = ns(&format!("target{d}_{t}"));
            g.insert_terms(&target, &p_dbid, &drug);
            g.insert_terms(&target, &p_swissprot, &ns(&format!("protein{u}")));
        }
    }

    // Pathways: multi-valued protein membership, names include "MAPK
    // signaling pathway" for a slice.
    for pw in 0..cfg.pathways {
        let pathway = ns(&format!("pathway{pw}"));
        let name = if pw % 8 == 0 {
            format!("MAPK signaling pathway variant {pw}")
        } else {
            format!("pathway nr {pw}")
        };
        g.insert_terms(&pathway, &p_pathway_name, &Term::literal(name));
        g.insert_terms(&pathway, &p_pathway_id, &ns(&format!("pwid{pw}")));
        for _ in 0..rng.gen_range(2..=8usize) {
            let u = rng.gen_range(0..cfg.proteins);
            g.insert_terms(&pathway, &p_protein, &ns(&format!("protein{u}")));
        }
    }

    // Side-effect records (SIDER): cid + side-effect literal.
    for s in 0..cfg.sider {
        let sider = ns(&format!("sider{s}"));
        let effect = if s % 10 == 0 {
            "hepatomegaly and related conditions".to_string()
        } else {
            format!("side effect {}", s % 37)
        };
        g.insert_terms(&sider, &p_side_effect, &Term::literal(effect));
        let c = rng.gen_range(0..cfg.compounds);
        g.insert_terms(&sider, &p_cid_ref, &ns(&format!("compound{c}")));
    }

    // MEDLINE-like publications: gene links + side effects + diseases
    // (the large VP relations).
    for m in 0..cfg.medline {
        let pmid = ns(&format!("pmid{m}"));
        let u = rng.gen_range(0..cfg.proteins);
        g.insert_terms(&pmid, &p_gene, &ns(&format!("protein{u}")));
        g.insert_terms(
            &pmid,
            &p_side_effect,
            &Term::literal(format!("observation {}", m % 53)),
        );
        if rng.gen_bool(0.6) {
            g.insert_terms(
                &pmid,
                &p_disease,
                &ns(&format!("disease{}", rng.gen_range(0..25))),
            );
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            generate(&ChemConfig::tiny()).len(),
            generate(&ChemConfig::tiny()).len()
        );
    }

    #[test]
    fn contains_marker_entities() {
        let g = generate(&ChemConfig::tiny());
        assert!(g.dict.lookup(&Term::literal("Dexamethasone")).is_some());
        let forms = || (0..g.dict.len() as u64).filter_map(|id| g.dict.lexical(rapida_rdf::TermId(id)));
        assert!(forms().any(|s| s.contains("MAPK signaling")));
        assert!(forms().any(|s| s.contains("hepatomegaly")));
    }

    #[test]
    fn medline_is_the_largest_relation() {
        let g = generate(&ChemConfig::tiny());
        let count = |p: &Term| {
            let p = g.dict.lookup(p).unwrap();
            g.triples.iter().filter(|t| t.p == p).count()
        };
        assert!(count(&ns("gene")) > 3 * count(&ns("Pathway_name")));
    }
}
