//! PubMed/Bio2RDF-like synthetic publication generator: publications with
//! journals, publication types, multi-valued authors / MeSH headings /
//! chemicals, and grants with agencies and countries.
//!
//! The heavily multi-valued `mesh_heading` and `chemical` properties are the
//! relations whose join blow-up made naive Hive exhaust HDFS space on MG13
//! in the paper; the generator reproduces that fan-out at laptop scale.

use rapida_testkit::rng::StdRng;
use rapida_rdf::{vocab, Graph, Term};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct PubmedConfig {
    /// Number of publications.
    pub publications: usize,
    /// Number of distinct authors.
    pub authors: usize,
    /// Number of journals.
    pub journals: usize,
    /// Number of grant agencies.
    pub agencies: usize,
    /// Number of countries.
    pub countries: usize,
    /// Maximum MeSH headings per publication.
    pub max_mesh: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PubmedConfig {
    fn default() -> Self {
        PubmedConfig {
            publications: 4000,
            authors: 600,
            journals: 80,
            agencies: 40,
            countries: 12,
            max_mesh: 12,
            seed: 99,
        }
    }
}

impl PubmedConfig {
    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        PubmedConfig {
            publications: 200,
            authors: 40,
            journals: 10,
            agencies: 8,
            countries: 5,
            max_mesh: 6,
            seed: 11,
        }
    }
}

fn ns(local: &str) -> Term {
    Term::iri(format!("{}{}", vocab::PUBMED_NS, local))
}

/// Generate a PubMed-like graph.
pub fn generate(cfg: &PubmedConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();

    let p_journal = ns("journal");
    let p_pub_type = ns("pub_type");
    let p_author = ns("author");
    let p_mesh = ns("mesh_heading");
    let p_chemical = ns("chemical");
    let p_grant = ns("grant");
    let p_agency = ns("grant_agency");
    let p_country = ns("grant_country");
    let p_last_name = ns("last_name");

    for a in 0..cfg.authors {
        g.insert_terms(
            &ns(&format!("author{a}")),
            &p_last_name,
            &Term::literal(format!("Lastname{}", a % (cfg.authors / 2).max(1))),
        );
    }

    let mut grant_id = 0usize;
    for p in 0..cfg.publications {
        let publ = ns(&format!("pub{p}"));
        g.insert_terms(
            &publ,
            &p_journal,
            &ns(&format!("journal{}", rng.gen_range(0..cfg.journals))),
        );
        // "Journal Article" ≈ 70% (low selectivity, MG15); "News" ≈ 5%
        // (high selectivity, MG16).
        let roll: f64 = rng.gen_range(0.0..1.0);
        let pub_type = if roll < 0.70 {
            "Journal Article"
        } else if roll < 0.75 {
            "News"
        } else if roll < 0.88 {
            "Review"
        } else {
            "Letter"
        };
        g.insert_terms(&publ, &p_pub_type, &Term::literal(pub_type));
        for _ in 0..rng.gen_range(1..=4usize) {
            g.insert_terms(
                &publ,
                &p_author,
                &ns(&format!("author{}", rng.gen_range(0..cfg.authors))),
            );
        }
        // Heavy multi-valued MeSH headings.
        for _ in 0..rng.gen_range(2..=cfg.max_mesh) {
            g.insert_terms(
                &publ,
                &p_mesh,
                &ns(&format!("mesh{}", rng.gen_range(0..400))),
            );
        }
        // Chemicals on ~60% of publications.
        if rng.gen_bool(0.6) {
            for _ in 0..rng.gen_range(1..=5usize) {
                g.insert_terms(
                    &publ,
                    &p_chemical,
                    &ns(&format!("chem{}", rng.gen_range(0..250))),
                );
            }
        }
        // Grants on ~50% of publications.
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(1..=2usize) {
                let grant = ns(&format!("grant{grant_id}"));
                grant_id += 1;
                g.insert_terms(&publ, &p_grant, &grant);
                g.insert_terms(
                    &grant,
                    &p_agency,
                    &ns(&format!("agency{}", rng.gen_range(0..cfg.agencies))),
                );
                g.insert_terms(
                    &grant,
                    &p_country,
                    &ns(&format!("country{}", rng.gen_range(0..cfg.countries))),
                );
            }
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
            generate(&PubmedConfig::tiny()).len(),
            generate(&PubmedConfig::tiny()).len()
        );
    }

    #[test]
    fn pub_type_selectivities() {
        let g = generate(&PubmedConfig::default());
        // Count triples whose object is each pub-type literal.
        let count_obj = |needle: &str| {
            let id = g.dict.lookup(&Term::literal(needle)).expect("type exists");
            g.triples.iter().filter(|t| t.o == id).count()
        };
        let journal = count_obj("Journal Article");
        let news = count_obj("News");
        assert!(journal > 5 * news, "Journal Article must dominate News");
        assert!((0..g.dict.len() as u64).any(|id| g.dict.lexical(rapida_rdf::TermId(id)) == Some("News")));
    }

    #[test]
    fn mesh_is_heavily_multivalued() {
        let g = generate(&PubmedConfig::tiny());
        let count = |p: &Term| {
            let p = g.dict.lookup(p).unwrap();
            g.triples.iter().filter(|t| t.p == p).count()
        };
        assert!(count(&ns("mesh_heading")) > 2 * count(&ns("journal")));
    }
}
