//! Delivery identity: however many requests share one answer, each gets the
//! rows a solo run of its query produces, in request order, and the drain's
//! ledger does not move.
//!
//! One drain over two batching windows carries 200 duplicates of MG3 (29
//! rows on tiny BSBM), 2 of G5 (a chem query: no rows on BSBM) and 1 of G1
//! (1 row), with a malformed text and an unknown catalog id interleaved.
//! Both modes must hand every completed request a relation equal, row for
//! row, to the solo reference, reject the other two with their typed
//! reasons, and reproduce the ledger digests pinned below, recorded from the
//! board that copied each duplicate's answer as it settled.

use rapida_core::{extract, DataCatalog, PlanRules, QueryEngine};
use rapida_datagen::{generate_bsbm, query, BsbmConfig};
use rapida_mapred::integrity::fnv1a;
use rapida_mapred::Engine;
use rapida_rdf::Graph;
use rapida_serve::{RequestStatus, ServeConfig, ServeMode, ServeReport, Server};
use rapida_sparql::{parse_query, Relation};
use std::collections::BTreeMap;

/// A text the parser refuses (unterminated group).
const MALFORMED: &str = "SELECT ?x WHERE { ?x a ";

/// FNV-1a of each mode's `{:?}` ledger for [`drain`]'s traffic.
const LEDGER_FNV: [(ServeMode, u64); 2] = [
    (ServeMode::Batched, 0xce10b16e9e02a8aa),
    (ServeMode::Serial, 0x08cb194b82359cf8),
];

/// The solo answer of each catalog query the traffic names, planned the way
/// the server plans, on an engine of its own.
fn references(g: &Graph) -> BTreeMap<&'static str, Relation> {
    let cat = DataCatalog::load(g);
    let mr = Engine::pinned(cat.dfs.clone());
    ["MG3", "G5", "G1"]
        .into_iter()
        .map(|id| {
            let aq = extract(&parse_query(&query(id).sparql).unwrap()).unwrap();
            let plan = PlanRules::hive_mqo().plan(&aq, &cat).unwrap();
            let (rel, _) = plan
                .try_execute(&mr, &aq, &cat.dict)
                .expect("plan executes");
            plan.cleanup(&cat.dfs);
            cat.dfs.remove(&plan.output_dataset);
            (id, rel)
        })
        .collect()
}

/// Drain the traffic in `mode` and return the report with the `(at_ms,
/// client, seq)` of every submission, sorted: the order outcomes come in.
fn drain(g: &Graph, mode: ServeMode) -> (ServeReport, Vec<(u64, usize, usize)>) {
    let server = Server::new(
        g,
        ServeConfig {
            mode,
            ..ServeConfig::default()
        },
    );
    let sessions: Vec<_> = (0..4).map(|c| server.session(c)).collect();
    let mut submitted = Vec::new();
    let mut seqs = [0usize; 4];
    let mut submit = |at_ms: u64, client: usize, what: Result<&str, &str>| {
        match what {
            Ok(id) => sessions[client].submit_catalog(at_ms, id),
            Err(text) => sessions[client].submit(at_ms, text),
        }
        submitted.push((at_ms, client, seqs[client]));
        seqs[client] += 1;
    };
    for k in 0..200u64 {
        submit(k, k as usize % 3, Ok("MG3"));
        match k {
            50 | 150 => submit(k, 3, Ok("G5")),
            60 | 140 => submit(k, 3, Err(MALFORMED)),
            70 => submit(k, 3, Ok("no such id")),
            120 => submit(k, 3, Ok("G1")),
            _ => {}
        }
    }
    submitted.sort();
    (server.drain(), submitted)
}

#[test]
fn every_duplicate_gets_its_solo_answer_in_request_order() {
    let g = generate_bsbm(&BsbmConfig::tiny());
    let refs = references(&g);
    assert_eq!(refs["MG3"].len(), 29, "MG3 must be the large answer");
    assert_eq!(refs["G1"].len(), 1);
    assert!(refs["G5"].is_empty(), "G5 must be the empty answer");

    for (mode, ledger_fnv) in LEDGER_FNV {
        let (report, submitted) = drain(&g, mode);
        let order: Vec<_> = report
            .outcomes
            .iter()
            .map(|o| (o.at_ms, o.client, o.seq))
            .collect();
        assert_eq!(order, submitted, "{mode:?}: outcomes out of request order");

        let mut served: BTreeMap<&str, usize> = BTreeMap::new();
        for o in &report.outcomes {
            match (&o.status, refs.get(o.query_id.as_str())) {
                (RequestStatus::Completed { relation }, Some(expect)) => {
                    assert_eq!(
                        relation, expect,
                        "{mode:?}: c{} s{} ({})",
                        o.client, o.seq, o.query_id
                    );
                    *served.entry(&o.query_id).or_default() += 1;
                }
                (RequestStatus::Rejected { reason }, None) => match o.query_id.as_str() {
                    "adhoc" => assert!(reason.starts_with("parse error:"), "{reason}"),
                    id => assert_eq!(*reason, format!("unknown catalog query '{id}'")),
                },
                (status, _) => panic!("{mode:?}: {} ended as {status:?}", o.query_id),
            }
        }
        assert_eq!(
            served,
            BTreeMap::from([("G1", 1), ("G5", 2), ("MG3", 200)]),
            "{mode:?}"
        );
        assert_eq!(
            (report.ledger.completed, report.ledger.rejected),
            (203, 3),
            "{mode:?}"
        );
        if mode == ServeMode::Batched {
            let windows: Vec<_> = report
                .ledger
                .windows
                .iter()
                .map(|w| (w.window, w.arrivals))
                .collect();
            assert_eq!(windows, [(0, 103), (1, 103)]);
        }

        let got = fnv1a(format!("{:?}", report.ledger).as_bytes());
        assert_eq!(
            got, ledger_fnv,
            "{mode:?}: the ledger moved (fnv {got:#018x}):\n{:#?}",
            report.ledger
        );
    }
}
