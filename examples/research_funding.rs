//! Research-funding disparity analytics over PubMed-like data — the
//! ReDD-Observatory use case from the paper's introduction: compare
//! per-country grant-funded publication counts with global totals (MG11),
//! and demonstrate the engine-by-engine cost difference on the
//! multi-valued-property query MG13 whose intermediate blow-up broke naive
//! Hive in the paper.
//!
//! ```text
//! cargo run --release --example research_funding
//! ```

use rapida::prelude::*;
use rapida::sparql::Var;

fn main() {
    let graph = rapida::datagen::generate_pubmed(&rapida::datagen::PubmedConfig::default());
    println!("PubMed-like dataset: {} triples", graph.len());
    let cat = DataCatalog::load(&graph);
    let mr = MrEngine::new(cat.dfs.clone());

    // MG11: grant-funded journal publications per country vs total.
    let q = rapida::datagen::query("MG11");
    let engine = RapidAnalytics::default();
    let (result, metrics, _) = run_query(&engine, &q.sparql, &cat, &mr).expect("MG11 runs");
    println!("\nMG11: {} countries, {} cycles", result.len(), metrics.cycles());
    let c_col = result.col(&Var::new("c")).unwrap();
    let cnt_c = result.col(&Var::new("cntC")).unwrap();
    let cnt_t = result.col(&Var::new("cntT")).unwrap();
    let mut rows = result.rows.clone();
    rows.sort_by(|a, b| {
        b[cnt_c]
            .as_num(&cat.dict)
            .partial_cmp(&a[cnt_c].as_num(&cat.dict))
            .unwrap()
    });
    for row in &rows {
        let country = match row[c_col] {
            rapida::sparql::Cell::Term(id) => cat.dict.lexical(id).unwrap_or_default(),
            _ => continue,
        };
        let share = row[cnt_c].as_num(&cat.dict).unwrap_or(0.0)
            / row[cnt_t].as_num(&cat.dict).unwrap_or(1.0);
        let c = country.rsplit('/').next().unwrap_or(country);
        println!("  {c:<12} {:5.1}% of all grants", share * 100.0);
    }

    // MG13: MeSH headings per (author, pub-type) vs per pub-type — the
    // query whose naive-Hive evaluation ran out of HDFS space in the paper.
    // Here we measure the materialization each engine needs.
    let q = rapida::datagen::query("MG13");
    println!("\nMG13 materialized intermediate volume by engine:");
    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    let mut naive_mb = 0.0;
    let mut ra_mb = 0.0;
    for engine in &engines {
        let (_, metrics, _) = run_query(engine.as_ref(), &q.sparql, &cat, &mr).expect("runs");
        let mb = metrics.total(|j| j.output_bytes) as f64 / 1e6;
        if engine.name().contains("Naive") && engine.name().contains("Hive") {
            naive_mb = mb;
        }
        if engine.name() == "RAPIDAnalytics" {
            ra_mb = mb;
        }
        println!(
            "  {:<16} {:>8.2} MB materialized over {} cycles",
            engine.name(),
            mb,
            metrics.cycles()
        );
    }
    println!(
        "\nnaive Hive materializes {:.1}x more than RAPIDAnalytics — the blow-up\n\
         that exhausted HDFS space at the paper's 230 GB scale",
        naive_mb / ra_mb.max(1e-9)
    );
}
