//! A relational scan predicate drops a row whose cell holds an id the
//! dictionary never issued: one past its end, or [`MISSING_ID`]. The
//! operator-level cases (`IdPred`, `AggSpec`, `ValueFilter`) are pinned in
//! `crates/ntga/tests/missing_ids.rs`.

use rapida_core::catalog::{DataCatalog, MISSING_ID};
use rapida_core::relops::{IdPred, MapJoinCfg, MapJoinFactory, PredOnCol, ScanKind};
use rapida_core::rows::{decode_row, row_bytes, RVal};
use rapida_mapred::{DatasetWriter, Engine, JobBuilder, SimDfs};
use rapida_rdf::{Graph, Term};
use rapida_sparql::ast::CmpOp;
use std::sync::Arc;

/// Ids 0..=4: `s`, `p`, `5.0`, `q`, `"abc"`.
fn catalog() -> DataCatalog {
    let mut g = Graph::new();
    let (s, p, q) = (Term::iri("http://x/s"), Term::iri("http://x/p"), Term::iri("http://x/q"));
    g.insert_terms(&s, &p, &Term::decimal(5.0));
    g.insert_terms(&s, &q, &Term::literal("abc"));
    DataCatalog::load(&g)
}

const FIVE: u64 = 2;
const ABC: u64 = 4;
const PAST_END: u64 = 5;

fn scan_cfg(cat: &DataCatalog, pred: IdPred) -> MapJoinCfg {
    MapJoinCfg {
        stream: ScanKind::Rows(2),
        stream_preds: vec![PredOnCol { col: 1, pred }],
        smalls: vec![],
        output_cols: vec![0],
        eq_checks: vec![],
        dict: cat.dict.clone(),
    }
}

/// The first cells of the rows `[k, id]` that survive `pred` on `id`.
fn surviving(cat: &DataCatalog, pred: IdPred, ids: &[u64]) -> Vec<u64> {
    let dfs = SimDfs::new();
    let mut w = DatasetWriter::new(128);
    for (k, &id) in ids.iter().enumerate() {
        w.push(&row_bytes(&[RVal::Id(k as u64), RVal::Id(id)]));
    }
    dfs.put("rows", w.finish());
    let job = JobBuilder::new("scan")
        .input("rows")
        .mapper(Arc::new(MapJoinFactory::new(Arc::new(scan_cfg(cat, pred)))))
        .output("out")
        .build();
    Engine::pinned(dfs.clone()).run_job(&job);
    let out = dfs.peek("out").unwrap();
    let mut keys: Vec<u64> = out.iter_records().map(|r| decode_row(r).unwrap()[0].id().unwrap()).collect();
    keys.sort_unstable();
    keys
}

#[test]
fn the_fixture_ends_where_the_test_says() {
    assert_eq!(catalog().dict.len() as u64, PAST_END);
}

#[test]
fn a_scan_predicate_drops_the_row_of_an_unknown_id() {
    let cat = catalog();
    let ne = IdPred::Num { op: CmpOp::Ne, rhs: 0.0 };
    assert_eq!(surviving(&cat, ne, &[FIVE, PAST_END, MISSING_ID]), [0]);
    let any = IdPred::Contains { pattern: String::new(), case_insensitive: true };
    assert_eq!(surviving(&cat, any, &[ABC, PAST_END, MISSING_ID]), [0]);
}
