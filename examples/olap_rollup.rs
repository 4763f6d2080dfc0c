//! The paper's future-work direction (§6) implemented: OLAP ROLLUP / CUBE
//! over an RDF graph pattern, evaluated as **one** generalized Agg-Join
//! cycle — price aggregates over the full (feature, country) lattice of the
//! BSBM-like dataset.
//!
//! ```text
//! cargo run --release --example olap_rollup
//! ```

use rapida::core::{extract, rollup_sets, GroupingSetsQuery};
use rapida::prelude::*;
use rapida::sparql::Var;

fn main() {
    let graph = rapida::datagen::generate_bsbm(&rapida::datagen::BsbmConfig::small());
    let cat = DataCatalog::load(&graph);
    let mr = MrEngine::new(cat.dfs.clone());

    // The finest-level grouping as a plain analytical query...
    let base = "
        PREFIX bsbm: <http://bsbm.example.org/v01/>
        SELECT ?f ?c (COUNT(?pr) AS ?cnt) (SUM(?pr) AS ?sum) {
          ?p a bsbm:ProductType1 ; bsbm:productFeature ?f .
          ?o bsbm:product ?p ; bsbm:price ?pr ; bsbm:vendor ?v .
          ?v bsbm:country ?c .
        } GROUP BY ?f ?c";
    let block = extract(&parse_query(base).unwrap()).unwrap().blocks.remove(0);

    // ...rolled up through (feature, country) -> (feature) -> ().
    let q = GroupingSetsQuery {
        sets: rollup_sets(&[Var::new("f"), Var::new("c")]),
        block,
    };
    let plan = q.plan(&cat).expect("plans");
    println!(
        "ROLLUP(feature, country): {} grouping sets in {} MR cycles",
        3,
        plan.cycles()
    );
    let (rel, wf) = plan.try_execute(&mr).expect("plan executes");
    println!(
        "{} lattice rows, {:.2} MB shuffled total\n",
        rel.len(),
        wf.total(|j| j.shuffle_bytes) as f64 / 1e6
    );

    // Show the roll-up levels.
    let set_col = rel.col(&Var::new("__set")).unwrap();
    let cnt_col = rel.col(&Var::new("cnt")).unwrap();
    for (set, label) in [(0.0, "per (feature, country)"), (1.0, "per feature"), (2.0, "ALL")] {
        let rows: Vec<_> = rel
            .rows
            .iter()
            .filter(|r| r[set_col] == Cell::Num(set))
            .collect();
        let total: f64 = rows
            .iter()
            .filter_map(|r| r[cnt_col].as_num(&cat.dict))
            .sum();
        println!(
            "  level {label:<24} {:>5} groups, {:>8} offers counted",
            rows.len(),
            total
        );
    }
    println!("\nevery level carries the same offer total — the lattice is consistent");
}
