//! The route tables the NTGA planners compile are exact. A tg-join or raw
//! Agg-Join shared scan walks each input only with the routes (single-star
//! filters) its equivalence class covers; every `(input, route)` pair a
//! table leaves out must be one the route can never pass.
//!
//! In test builds, [`super::TgJoinPlanner`]'s join cycles and
//! [`super::agg_join_job`] [`record`] every table they compile, with its
//! job inputs and raw routes, on the planning thread. For every plan of
//! tiny BSBM MG1–MG4, tiny chem MG6–MG10 and two BSBM shared single-star
//! scans, under RAPID+ and RAPIDAnalytics, each dropped pair runs through
//! the owned reference mapper, which applies every route it is given to
//! every raw record: it must emit nothing. Every raw input must keep at
//! least one route, so each raw record is still walked once and the
//! quarantine ledger cannot move.

#[path = "../../../../ntga/tests/common/mod.rs"]
mod reference;

use super::*;
use crate::aquery::extract;
use crate::plan::QueryEngine;
use rapida_datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};
use rapida_mapred::{InputSrc, MapOutput, MapTask};
use rapida_sparql::parse_query;
use reference::ReferenceTgJoinMap;
use std::cell::RefCell;

/// A compiled scan: its job inputs, its route table and the raw routes the
/// table's `Raw` entries index.
struct Scan {
    inputs: Vec<String>,
    table: Vec<InputRoutes>,
    routes: Vec<(StarSpec, ValueFilter)>,
}

thread_local! {
    /// The scans planned on this thread since they were last taken.
    static SCANS: RefCell<Vec<Scan>> = const { RefCell::new(Vec::new()) };
}

/// Record a scan the planner just compiled.
pub(super) fn record<'r>(
    inputs: &[String],
    table: &[InputRoutes],
    routes: impl Iterator<Item = (&'r StarSpec, &'r ValueFilter)>,
) {
    let scan = Scan {
        inputs: inputs.to_vec(),
        table: table.to_vec(),
        routes: routes.map(|(spec, filter)| (spec.clone(), filter.clone())).collect(),
    };
    SCANS.with(|scans| scans.borrow_mut().push(scan));
}

/// Shared single-star scans: two non-overlapping single-star blocks, one
/// Agg-Join over the union of their classes. No class covers both stars of
/// the first; every offer class covers both stars of the second.
const SHARED_SINGLE_STAR: [&str; 2] = [
    "PREFIX bsbm: <http://bsbm.example.org/v01/>
SELECT ?v ?nA ?f ?nB {
  { SELECT ?v (COUNT(?pr) AS ?nA) { ?o bsbm:price ?pr ; bsbm:vendor ?v . } GROUP BY ?v }
  { SELECT ?f (COUNT(?l) AS ?nB) { ?p rdfs:label ?l ; bsbm:productFeature ?f . } GROUP BY ?f }
}",
    "PREFIX bsbm: <http://bsbm.example.org/v01/>
SELECT ?nA ?v ?nB {
  { SELECT (SUM(?pr) AS ?nA) { ?o bsbm:price ?pr . } }
  { SELECT ?v (COUNT(?o2) AS ?nB) { ?o2 bsbm:vendor ?v . } GROUP BY ?v }
}",
];

/// How many records of `dataset` pass `spec` behind `filter`, counted by the
/// reference tg-join mapper over a one-route, one-input table.
fn passing(cat: &DataCatalog, dataset: &str, (spec, filter): &(StarSpec, ValueFilter)) -> usize {
    let route = StarRoute {
        spec: spec.clone(),
        side: Side::Left,
        key: JoinKey::Subject { star: spec.star },
        filter: filter.clone(),
    };
    let cfg = TgJoinMapConfig {
        inputs: vec![InputRoutes::Raw(vec![0])],
        star_routes: vec![route],
        ann_routes: Vec::new(),
    };
    let mut mapper = ReferenceTgJoinMap(Arc::new(cfg));
    let mut out = MapOutput::default();
    let ds = cat.dfs.peek(dataset).expect("a raw input is a stored class");
    for rec in ds.iter_records() {
        mapper.map(InputSrc { dataset: 0 }, rec, &mut out);
    }
    assert_eq!(out.corrupt_records, 0, "{dataset}");
    out.kvs.len()
}

/// Plan `texts` under both NTGA presets and check every raw entry of every
/// scan the plans compile: non-empty, ascending, and every route it leaves
/// out passes no record of its input. Returns the number of dropped pairs.
fn check_queries(cat: &DataCatalog, texts: &[String]) -> usize {
    let mut dropped = 0;
    for text in texts {
        let aq = extract(&parse_query(text).unwrap()).unwrap();
        for rules in [PlanRules::rapid_plus(), PlanRules::rapida()] {
            SCANS.take();
            rules.plan(&aq, cat).unwrap();
            for scan in SCANS.take() {
                for (dataset, entry) in scan.inputs.iter().zip(&scan.table) {
                    let InputRoutes::Raw(entry) = entry else { continue };
                    assert!(!entry.is_empty(), "raw input {dataset} is walked by no route");
                    assert!(entry.windows(2).all(|w| w[0] < w[1]), "{dataset}: {entry:?}");
                    for (r, route) in scan.routes.iter().enumerate() {
                        if entry.contains(&r) {
                            continue;
                        }
                        let n = passing(cat, dataset, route);
                        assert_eq!(n, 0, "route {r} dropped on {dataset}, where {n} records pass it");
                        dropped += 1;
                    }
                }
            }
        }
    }
    dropped
}

#[test]
fn bsbm_route_tables_drop_only_routes_a_class_cannot_pass() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let texts = ["MG1", "MG2", "MG3", "MG4"].map(|id| query(id).sparql);
    assert!(check_queries(&cat, &texts) > 0, "the tg-join tables must prune something");
    let shared = check_queries(&cat, &SHARED_SINGLE_STAR.map(String::from));
    assert!(shared > 0, "the Agg-Join table must prune something");
}

#[test]
fn chem_route_tables_drop_only_routes_a_class_cannot_pass() {
    let cat = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
    let texts = ["MG6", "MG7", "MG8", "MG9", "MG10"].map(|id| query(id).sparql);
    assert!(check_queries(&cat, &texts) > 0, "the tg-join tables must prune something");
}
