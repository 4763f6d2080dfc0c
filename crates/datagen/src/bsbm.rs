//! BSBM-like synthetic data generator (Berlin SPARQL Benchmark, Business
//! Intelligence use case vocabulary subset): products with types, labels and
//! multi-valued features; offers with prices and vendors; vendors with
//! countries.
//!
//! Selectivity mirrors the paper's setup: `ProductType1` is low-selectivity
//! (many products), `ProductType9` high-selectivity (few products).

use rapida_testkit::rng::StdRng;
use rapida_rdf::{vocab, Graph, Term};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct BsbmConfig {
    /// Number of products.
    pub products: usize,
    /// Number of vendors.
    pub vendors: usize,
    /// Number of distinct product features.
    pub features: usize,
    /// Number of countries.
    pub countries: usize,
    /// Maximum offers per product (uniform 0..=max).
    pub max_offers_per_product: usize,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Default for BsbmConfig {
    fn default() -> Self {
        BsbmConfig {
            products: 2000,
            vendors: 50,
            features: 40,
            countries: 10,
            max_offers_per_product: 4,
            seed: 42,
        }
    }
}

impl BsbmConfig {
    /// The scaled-down stand-in for BSBM-500K.
    pub fn small() -> Self {
        BsbmConfig::default()
    }

    /// The scaled-down stand-in for BSBM-2M (4× `small`, like 2M : 500K).
    pub fn large() -> Self {
        BsbmConfig {
            products: 8000,
            vendors: 120,
            features: 80,
            countries: 10,
            max_offers_per_product: 4,
            seed: 43,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        BsbmConfig {
            products: 400,
            vendors: 8,
            features: 10,
            countries: 4,
            max_offers_per_product: 3,
            seed: 7,
        }
    }
}

fn ns(local: &str) -> Term {
    Term::iri(format!("{}{}", vocab::BSBM_NS, local))
}

/// Generate a BSBM-like graph.
pub fn generate(cfg: &BsbmConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();

    let rdf_type = Term::iri(vocab::RDF_TYPE);
    let label = Term::iri(vocab::RDFS_LABEL);
    let p_feature = ns("productFeature");
    let p_product = ns("product");
    let p_price = ns("price");
    let p_vendor = ns("vendor");
    let p_country = ns("country");
    let p_valid_from = ns("validFrom");
    let p_valid_to = ns("validTo");

    // Type distribution: ProductType1 covers ~35% of products, decaying to
    // ProductType9 at ~2% (low → high selectivity).
    let type_weights: [f64; 9] = [35.0, 20.0, 12.0, 9.0, 7.0, 6.0, 5.0, 4.0, 2.0];
    let total_weight: f64 = type_weights.iter().sum();

    let countries: Vec<Term> = (0..cfg.countries)
        .map(|c| ns(&format!("Country{c}")))
        .collect();
    for v in 0..cfg.vendors {
        let vendor = ns(&format!("Vendor{v}"));
        g.insert_terms(&vendor, &p_country, &countries[rng.gen_range(0..countries.len())]);
        g.insert_terms(&vendor, &label, &Term::literal(format!("vendor {v}")));
    }

    let mut offer_id = 0usize;
    for p in 0..cfg.products {
        let product = ns(&format!("Product{p}"));
        // Pick the type by weight.
        let mut roll = rng.gen_range(0.0..total_weight);
        let mut ty = 1usize;
        for (i, w) in type_weights.iter().enumerate() {
            if roll < *w {
                ty = i + 1;
                break;
            }
            roll -= w;
        }
        g.insert_terms(&product, &rdf_type, &ns(&format!("ProductType{ty}")));
        g.insert_terms(&product, &label, &Term::literal(format!("product nr {p}")));
        // Multi-valued features; ~20% of products have none (drives the
        // with-feature vs ALL contrast of MG1/AQ1).
        if rng.gen_bool(0.8) {
            let n_feats = rng.gen_range(1..=4usize);
            for _ in 0..n_feats {
                let f = rng.gen_range(0..cfg.features);
                g.insert_terms(&product, &p_feature, &ns(&format!("Feature{f}")));
            }
        }
        // Offers.
        let n_offers = rng.gen_range(0..=cfg.max_offers_per_product);
        for _ in 0..n_offers {
            let offer = ns(&format!("Offer{offer_id}"));
            offer_id += 1;
            g.insert_terms(&offer, &p_product, &product);
            let price = (rng.gen_range(500..500_000) as f64) / 100.0;
            g.insert_terms(&offer, &p_price, &Term::decimal(price));
            let v = rng.gen_range(0..cfg.vendors);
            g.insert_terms(&offer, &p_vendor, &ns(&format!("Vendor{v}")));
            if rng.gen_bool(0.7) {
                g.insert_terms(
                    &offer,
                    &p_valid_from,
                    &Term::literal(format!("2015-{:02}-01", rng.gen_range(1..=12))),
                );
            }
            if rng.gen_bool(0.7) {
                g.insert_terms(
                    &offer,
                    &p_valid_to,
                    &Term::literal(format!("2016-{:02}-28", rng.gen_range(1..=12))),
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
    fn deterministic_generation() {
        let a = generate(&BsbmConfig::tiny());
        let b = generate(&BsbmConfig::tiny());
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn has_expected_shape() {
        let g = generate(&BsbmConfig::tiny());
        // Type partitions exist and ProductType1 dominates ProductType9.
        let ty = g.dict.lookup(&Term::iri(vocab::RDF_TYPE));
        let count = |t: &Term| {
            let t = g.dict.lookup(t);
            g.triples.iter().filter(|tr| Some(tr.p) == ty && Some(tr.o) == t).count()
        };
        assert!(count(&ns("ProductType1")) > count(&ns("ProductType9")), "PT1 must be low selectivity");
        assert!(g.triples.len() > 500);
    }

    #[test]
    fn larger_config_scales() {
        let small = generate(&BsbmConfig::tiny());
        let big = generate(&BsbmConfig {
            products: 1600,
            ..BsbmConfig::tiny()
        });
        assert!(big.len() > 3 * small.len());
    }
}
