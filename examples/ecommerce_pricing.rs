//! The paper's motivating query AQ1 (Fig. 1) end to end: *"for each
//! country, retrieve product features with the highest ratio between price
//! with that feature and price without that feature"* — on generated
//! BSBM-like data, executed with all four engines, with the final ratio
//! computed client-side from the joined aggregates.
//!
//! ```text
//! cargo run --release --example ecommerce_pricing
//! ```

use rapida::prelude::*;
use rapida::sparql::{Cell, Var};

fn main() {
    let graph = rapida::datagen::generate_bsbm(&rapida::datagen::BsbmConfig::small());
    println!("BSBM-like dataset: {} triples", graph.len());
    let cat = DataCatalog::load(&graph);
    let mr = MrEngine::new(cat.dfs.clone());

    // AQ1 as a SPARQL analytical query (MG3 in the evaluated catalog):
    // per-(feature, country) price aggregates joined with per-country
    // aggregates over ALL features.
    let q = rapida::datagen::query("MG3");

    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    let mut last = None;
    for engine in &engines {
        let (result, metrics, _plan) =
            run_query(engine.as_ref(), &q.sparql, &cat, &mr).expect("query runs");
        println!(
            "{:<16} {} cycles, {:>8.2} MB shuffled, {} result rows",
            engine.name(),
            metrics.cycles(),
            metrics.total(|j| j.shuffle_bytes) as f64 / 1e6,
            result.len()
        );
        last = Some(result);
    }
    let result = last.expect("ran at least one engine");

    // Compute the AQ1 ratio client-side: avg price with the feature vs
    // avg price per country (across all features), per (country, feature).
    let col = |name: &str| result.col(&Var::new(name)).expect("column present");
    let (cf, cc) = (col("f"), col("c"));
    let (sum_f, cnt_f) = (col("sumF"), col("cntF"));
    let (sum_t, cnt_t) = (col("sumT"), col("cntT"));
    let mut best: std::collections::HashMap<&str, (&str, f64)> = Default::default();
    for row in &result.rows {
        let (Some(sf), Some(nf), Some(st), Some(nt)) = (
            row[sum_f].as_num(&cat.dict),
            row[cnt_f].as_num(&cat.dict),
            row[sum_t].as_num(&cat.dict),
            row[cnt_t].as_num(&cat.dict),
        ) else {
            continue;
        };
        if nf == 0.0 || nt == 0.0 || st == 0.0 {
            continue;
        }
        let ratio = (sf / nf) / (st / nt);
        let country = match row[cc] {
            Cell::Term(id) => cat.dict.lexical(id).unwrap_or_default(),
            _ => continue,
        };
        let feature = match row[cf] {
            Cell::Term(id) => cat.dict.lexical(id).unwrap_or_default(),
            _ => continue,
        };
        let entry = best.entry(country).or_insert((feature, ratio));
        if ratio > entry.1 {
            *entry = (feature, ratio);
        }
    }
    println!("\nAQ1: feature with the highest price ratio per country");
    let mut countries: Vec<_> = best.into_iter().collect();
    countries.sort_by(|a, b| a.0.cmp(b.0));
    for (country, (feature, ratio)) in countries {
        let c = country.rsplit('/').next().unwrap_or(country);
        let f = feature.rsplit('/').next().unwrap_or(feature);
        println!("  {c:<12} {f:<12} ratio {ratio:.3}");
    }
}
