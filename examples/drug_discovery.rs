//! Chemogenomics analytics (the paper's Chem2Bio2RDF case studies, §5.1):
//! compare per-(compound, gene) bioassay counts with per-compound totals
//! (query MG6, adopted from disease-specific drug discovery), and run the
//! single-grouping Dexamethasone query G5.
//!
//! ```text
//! cargo run --release --example drug_discovery
//! ```

use rapida::prelude::*;
use rapida::sparql::Var;

fn main() {
    let graph = rapida::datagen::generate_chem(&rapida::datagen::ChemConfig::default());
    println!("Chem2Bio2RDF-like dataset: {} triples", graph.len());
    let cat = DataCatalog::load(&graph);
    let mr = MrEngine::new(cat.dfs.clone());
    let engine = RapidAnalytics::default();

    // G5: drug-like compounds sharing targets with Dexamethasone.
    let g5 = rapida::datagen::query("G5");
    let (result, metrics, _) = run_query(&engine, &g5.sparql, &cat, &mr).expect("G5 runs");
    println!(
        "\nG5 (targets shared with Dexamethasone): {} compounds, {} cycles",
        result.len(),
        metrics.cycles()
    );
    let mut rows = result.rows.clone();
    let n_col = result.col(&Var::new("active_assays")).unwrap();
    let cid_col = result.col(&Var::new("cid")).unwrap();
    rows.sort_by(|a, b| {
        b[n_col]
            .as_num(&cat.dict)
            .partial_cmp(&a[n_col].as_num(&cat.dict))
            .unwrap()
    });
    for row in rows.iter().take(5) {
        let cid = match row[cid_col] {
            rapida::sparql::Cell::Term(id) => cat.dict.lexical(id).unwrap_or_default(),
            _ => continue,
        };
        println!(
            "  {:<55} {:>4.0} active assays",
            cid,
            row[n_col].as_num(&cat.dict).unwrap_or(0.0)
        );
    }

    // MG6: per-(compound, gene) counts vs per-compound totals — a
    // multi-grouping query over overlapping 3-star patterns.
    let mg6 = rapida::datagen::query("MG6");
    let (result, metrics, plan) = run_query(&engine, &mg6.sparql, &cat, &mr).expect("MG6 runs");
    println!(
        "\nMG6 (assays per compound-gene vs per compound): {} rows in {} cycles",
        result.len(),
        plan.cycles()
    );
    println!(
        "  shuffled {:.2} MB, materialized {:.2} MB",
        metrics.total(|j| j.shuffle_bytes) as f64 / 1e6,
        metrics.total(|j| j.output_bytes) as f64 / 1e6
    );

    // Share of each compound's activity concentrated in its top gene: the
    // kind of derived analysis the paper's biology use cases motivate.
    let cg = result.col(&Var::new("aPerCG")).unwrap();
    let ct = result.col(&Var::new("aPerC")).unwrap();
    let cid_col = result.col(&Var::new("cid")).unwrap();
    let mut top: std::collections::HashMap<&str, f64> = Default::default();
    for row in &result.rows {
        let (Some(per_cg), Some(per_c)) =
            (row[cg].as_num(&cat.dict), row[ct].as_num(&cat.dict))
        else {
            continue;
        };
        if per_c == 0.0 {
            continue;
        }
        let cid = match row[cid_col] {
            rapida::sparql::Cell::Term(id) => cat.dict.lexical(id).unwrap_or_default(),
            _ => continue,
        };
        let share = per_cg / per_c;
        let e = top.entry(cid).or_insert(0.0);
        if share > *e {
            *e = share;
        }
    }
    let focused = top.values().filter(|&&s| s >= 0.5).count();
    println!(
        "  {} of {} compounds have ≥50% of their assays on a single gene",
        focused,
        top.len()
    );
}
