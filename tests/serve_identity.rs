//! Per-tenant identity of the batched serving path (ISSUE 10 property
//! suite): whatever sharing the front end performs — window batching,
//! signature dedup, MQO fusion, scan-cache reuse — every client must
//! receive exactly the rows a solo run of its own query would produce.
//!
//! Three pins:
//!
//! 1. **Random batches × catalog templates** — random multisets of Fig. 8
//!    traffic templates at random arrival times; every completed request's
//!    relation must canonicalize identically to the solo Hive (MQO) run.
//! 2. **Chaos isolation** — the same identity under injected mid-batch
//!    faults: a request either completes with the solo-identical relation
//!    or is rejected whole; a fault in one tenant's jobs never leaks
//!    partial or foreign rows into another tenant's result.
//! 3. **Replay determinism** — two fresh servers draining identical
//!    traffic (with a cache budget small enough to force LRU evictions)
//!    produce equal ledgers *and* canonically equal per-request results.

use rapida_core::engines::HiveMqo;
use rapida_core::{extract, DataCatalog, QueryEngine};
use rapida_datagen::{
    generate_bsbm, generate_traffic, query, BsbmConfig, TrafficConfig, TrafficEvent,
};
use rapida_mapred::integrity::fnv1a;
use rapida_mapred::Engine;
use rapida_rdf::Graph;
use rapida_serve::{RequestStatus, ServeConfig, ServeMode, ServeReport, Server};
use rapida_sparql::parse_query;
use rapida_testkit::rng::StdRng;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The templates the serving traffic mix draws from (a Fig. 8 subset that
/// spans single- and multi-grouping queries plus fusable cross-template
/// pairs like MG1+G1 / MG2+G2).
const TEMPLATES: [&str; 6] = ["MG1", "MG2", "MG3", "MG4", "G1", "G2"];

fn tiny() -> Graph {
    generate_bsbm(&BsbmConfig::tiny())
}

/// Canonical solo-run reference for every template, computed once per
/// catalog with the same planner the server uses.
fn references(g: &Graph) -> BTreeMap<String, Vec<String>> {
    let cat = DataCatalog::load(g);
    let mr = Engine::pinned(cat.dfs.clone());
    let planner = HiveMqo::default();
    let mut refs = BTreeMap::new();
    for id in TEMPLATES {
        let aq = extract(&parse_query(&query(id).sparql).unwrap()).unwrap();
        let plan = planner.plan(&aq, &cat).unwrap();
        let (rel, _) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        plan.cleanup(&cat.dfs);
        refs.insert(id.to_string(), rel.canonicalized(&cat.dict));
    }
    refs
}

/// Assert every completed outcome in `report` matches its solo reference.
/// Returns (completed, rejected) counts.
fn assert_identity(
    g: &Graph,
    refs: &BTreeMap<String, Vec<String>>,
    report: &ServeReport,
    label: &str,
) -> (usize, usize) {
    let mut completed = 0;
    let mut rejected = 0;
    for o in &report.outcomes {
        match &o.status {
            RequestStatus::Completed { relation } => {
                completed += 1;
                let expect = &refs[&o.query_id];
                assert_eq!(
                    &relation.canonicalized(&g.dict),
                    expect,
                    "{label}: client {} seq {} ({}) diverged from its solo run",
                    o.client,
                    o.seq,
                    o.query_id
                );
            }
            RequestStatus::Rejected { reason } => {
                rejected += 1;
                assert!(
                    !reason.is_empty(),
                    "{label}: rejection must carry a typed reason"
                );
            }
        }
    }
    (completed, rejected)
}

#[test]
fn random_batches_match_solo_runs() {
    let g = tiny();
    let refs = references(&g);
    let rounds: usize = std::env::var("RAPIDA_SERVE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut rng = StdRng::seed_from_u64(0x5e11_13a7_c4e5_0001);
    for round in 0..rounds {
        let server = Server::new(&g, ServeConfig::default());
        let n: usize = rng.gen_range(3..9usize);
        let mut submitted = 0usize;
        for client in 0..3usize {
            let session = server.session(client);
            for _ in 0..n {
                let id = TEMPLATES[rng.below(TEMPLATES.len() as u64) as usize];
                let at_ms = rng.gen_range(0..300u64);
                session.submit_catalog(at_ms, id);
                submitted += 1;
            }
        }
        let report = server.drain();
        let (completed, rejected) =
            assert_identity(&g, &refs, &report, &format!("round {round}"));
        assert_eq!(completed, submitted, "round {round}: {rejected} rejected");
    }
}

#[test]
fn chaos_mid_batch_faults_do_not_leak_between_tenants() {
    let g = tiny();
    let refs = references(&g);
    let seeds: u64 = std::env::var("RAPIDA_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let events = generate_traffic(&TrafficConfig::bsbm_mix(99, 4, 250));
    let mut total_completed = 0usize;
    for seed in 0..seeds {
        let server = Server::new(
            &g,
            ServeConfig {
                fault_seed: Some(seed),
                ..ServeConfig::default()
            },
        );
        server.enqueue_traffic(&events);
        let report = server.drain();
        let (completed, _) =
            assert_identity(&g, &refs, &report, &format!("chaos seed {seed}"));
        total_completed += completed;
    }
    assert!(
        total_completed > 0,
        "the chaos sweep rejected every request across {seeds} seeds"
    );
}

#[test]
fn replayed_traffic_is_deterministic_down_to_the_eviction_ledger() {
    let g = tiny();
    let events = generate_traffic(&TrafficConfig::bsbm_mix(7, 5, 250));
    let run = || {
        let server = Server::new(
            &g,
            ServeConfig {
                // Small enough to force LRU evictions mid-replay.
                cache_budget_bytes: 4 << 10,
                ..ServeConfig::default()
            },
        );
        server.enqueue_traffic(&events);
        server.drain()
    };
    let a = run();
    let b = run();
    assert!(
        a.ledger.cache.evictions > 0,
        "budget did not force evictions: {:?}",
        a.ledger.cache
    );
    assert_eq!(a.ledger, b.ledger, "replayed metrics ledgers diverged");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        match (&x.status, &y.status) {
            (
                RequestStatus::Completed { relation: rx },
                RequestStatus::Completed { relation: ry },
            ) => assert_eq!(rx.canonicalized(&g.dict), ry.canonicalized(&g.dict)),
            (RequestStatus::Rejected { reason: rx }, RequestStatus::Rejected { reason: ry }) => {
                assert_eq!(rx, ry)
            }
            _ => panic!(
                "replay flipped completion status for client {} seq {}",
                x.client, x.seq
            ),
        }
    }
}

/// A text the parser refuses (unterminated group).
const MALFORMED: &str = "SELECT ?x WHERE { ?x a ";

/// One line per ledger header, window and request of `report`: latency and
/// row count from the ledger, FNV-1a of the canonicalised rows (or the
/// rejection reason verbatim) from the outcome.
fn golden_lines(g: &Graph, report: &ServeReport, out: &mut String) {
    let l = &report.ledger;
    out.push_str(&format!(
        "{} window_ms={} completed={} rejected={} makespan_ms={:?} qps={:?} p50_ms={:?} p95_ms={:?} cache={:?}\n",
        l.mode, l.window_ms, l.completed, l.rejected, l.makespan_ms, l.qps, l.p50_ms, l.p95_ms, l.cache
    ));
    for w in &l.windows {
        out.push_str(&format!("  {w:?}\n"));
    }
    for (t, o) in l.requests.iter().zip(&report.outcomes) {
        let answer = match &o.status {
            RequestStatus::Completed { relation } => format!(
                "rows_fnv={:016x}",
                fnv1a(relation.canonicalized(&g.dict).join("\n").as_bytes())
            ),
            RequestStatus::Rejected { reason } => format!("rejected={reason:?}"),
        };
        out.push_str(&format!(
            "  c{} s{} {} latency_ns={} rows={:?} {answer}\n",
            t.client, t.seq, t.query_id, t.latency_ns, t.rows
        ));
    }
}

/// The serving front end against its frozen output: one fixed traffic slice
/// — catalog traffic, a whitespace variant of MG1, a malformed text sent
/// twice, a text that parses but is not analytical — drained in both modes
/// must reproduce `tests/snapshots/serve_ledger_golden.txt`, recorded from
/// the per-request front end before the per-text table replaced it.
/// `RAPIDA_UPDATE_SNAPSHOTS=1` rewrites the file; do that only for a change
/// meant to move the ledger.
#[test]
fn drain_reproduces_the_golden_ledger_in_both_modes() {
    let g = tiny();
    let events = generate_traffic(&TrafficConfig::bsbm_mix(21, 5, 350));
    let mut got = String::new();
    for mode in [ServeMode::Batched, ServeMode::Serial] {
        let server = Server::new(&g, ServeConfig { mode, ..ServeConfig::default() });
        server.enqueue_traffic(&events);
        let adhoc = server.session(5);
        adhoc.submit(120, &query("MG1").sparql.replace('\n', " \n\t "));
        adhoc.submit(130, MALFORMED);
        adhoc.submit(160, "SELECT ?s WHERE { ?s ?p ?o }");
        adhoc.submit(170, MALFORMED);
        golden_lines(&g, &server.drain(), &mut got);
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/serve_ledger_golden.txt");
    if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
        std::fs::write(&path, &got).unwrap();
    }
    let pinned = std::fs::read_to_string(&path).expect("tests/snapshots/serve_ledger_golden.txt is committed");
    assert_eq!(got, pinned, "the serving front end diverged from the pinned ledger");
}

/// Everything completed in `report`, as `(client, seq)` -> canonical rows.
fn completed_rows(g: &Graph, report: &ServeReport) -> BTreeMap<(usize, usize), Vec<String>> {
    report
        .outcomes
        .iter()
        .filter_map(|o| match &o.status {
            RequestStatus::Completed { relation } => {
                Some(((o.client, o.seq), relation.canonicalized(&g.dict)))
            }
            RequestStatus::Rejected { .. } => None,
        })
        .collect()
}

#[test]
fn texts_differing_only_in_whitespace_are_one_unique_query() {
    let g = tiny();
    let refs = references(&g);
    let server = Server::new(&g, ServeConfig::default());
    let session = server.session(0);
    let text = query("MG1").sparql;
    session.submit(10, &text);
    session.submit(20, &text.replace('\n', " \n\t "));
    session.submit(30, &text);
    let report = server.drain();
    let w = &report.ledger.windows[0];
    assert_eq!((w.arrivals, w.unique, w.rejected), (3, 1, 0), "{w:?}");
    let rows = completed_rows(&g, &report);
    assert_eq!(rows.len(), 3);
    assert!(rows.values().all(|r| *r == refs["MG1"]), "a spelling of MG1 diverged from its solo run");
}

#[test]
fn a_repeated_malformed_text_is_rejected_each_time_and_leaves_the_window_alone() {
    let g = tiny();
    let refs = references(&g);
    let drain = |with_malformed: bool| {
        let server = Server::new(&g, ServeConfig::default());
        let (good, bad) = (server.session(0), server.session(1));
        for (k, id) in ["MG1", "MG2", "G1", "MG1", "G2", "MG2"].into_iter().enumerate() {
            good.submit_catalog(10 + 10 * k as u64, id);
            if with_malformed && k % 2 == 0 {
                bad.submit(15 + 10 * k as u64, MALFORMED);
            }
        }
        server.drain()
    };
    let (clean, dirty) = (drain(false), drain(true));
    assert!(clean.ledger.windows[0].fused_members >= 2, "{:?}", clean.ledger.windows);

    let reasons: Vec<&str> = dirty
        .outcomes
        .iter()
        .filter_map(|o| match &o.status {
            RequestStatus::Rejected { reason } => Some(reason.as_str()),
            RequestStatus::Completed { .. } => None,
        })
        .collect();
    assert_eq!(reasons.len(), 3, "{reasons:?}");
    assert!(reasons[0].starts_with("parse error:"), "{}", reasons[0]);
    assert!(reasons.iter().all(|r| *r == reasons[0]), "{reasons:?}");
    assert_eq!(dirty.ledger.rejected, 3);
    assert_identity(&g, &refs, &dirty, "dirty window");

    // Modulo the three rejected rows, the two ledgers are one ledger.
    let mut expect = clean.ledger.clone();
    expect.rejected = 3;
    expect.windows[0].arrivals += 3;
    expect.windows[0].rejected = 3;
    let mut got = dirty.ledger.clone();
    got.requests.retain(|t| t.client == 0);
    assert_eq!(got, expect);
    assert_eq!(completed_rows(&g, &dirty), completed_rows(&g, &clean));
}

#[test]
fn unknown_catalog_ids_are_rejected_not_panicked_on() {
    let g = tiny();
    let refs = references(&g);
    let mut events = generate_traffic(&TrafficConfig::bsbm_mix(3, 2, 150));
    let served = events.len();
    assert!(served > 0);
    for seq in 0..2 {
        events.push(TrafficEvent { at_ms: 40 + seq as u64, client: 7, seq, query_id: "MG5".into() });
    }
    for mode in [ServeMode::Batched, ServeMode::Serial] {
        let server = Server::new(&g, ServeConfig { mode, ..ServeConfig::default() });
        server.enqueue_traffic(&events);
        server.session(8).submit_catalog(50, "no such id");
        let report = server.drain();
        let (completed, rejected) = assert_identity(&g, &refs, &report, mode.name());
        assert_eq!((completed, rejected), (served, 3), "{}", mode.name());
        for o in report.outcomes.iter().filter(|o| o.client >= 7) {
            match &o.status {
                RequestStatus::Rejected { reason } => {
                    assert_eq!(*reason, format!("unknown catalog query '{}'", o.query_id))
                }
                RequestStatus::Completed { .. } => panic!("{} completed", o.query_id),
            }
        }
        let in_windows: usize = report.ledger.windows.iter().map(|w| w.rejected).sum();
        assert_eq!(in_windows, if mode == ServeMode::Batched { 3 } else { 0 });
    }
}

#[test]
fn drain_boundaries_empty_queue_zero_cache_budget_and_a_second_drain() {
    let g = tiny();
    let refs = references(&g);

    let empty = Server::new(&g, ServeConfig::default()).drain();
    assert!(empty.outcomes.is_empty() && empty.ledger.windows.is_empty());
    assert_eq!((empty.ledger.completed, empty.ledger.rejected), (0, 0));
    assert_eq!((empty.ledger.qps, empty.ledger.makespan_ms), (0.0, 0.0));

    let events = generate_traffic(&TrafficConfig::bsbm_mix(17, 3, 200));
    let uncached = Server::new(&g, ServeConfig { cache_budget_bytes: 0, ..ServeConfig::default() });
    uncached.enqueue_traffic(&events);
    let report = uncached.drain();
    assert_eq!(assert_identity(&g, &refs, &report, "zero budget"), (events.len(), 0));
    assert_eq!(report.ledger.cache, Default::default(), "a zero budget must disable the cache");

    // The per-text table belongs to one drain: a second drain on the same
    // server meets the same texts in another order, plus one it rejects.
    let server = Server::new(&g, ServeConfig::default());
    let session = server.session(0);
    session.submit_catalog(10, "MG1");
    session.submit_catalog(20, "MG3");
    let first = server.drain();
    assert_eq!(assert_identity(&g, &refs, &first, "first drain"), (2, 0));
    session.submit_catalog(10, "MG3");
    session.submit(20, MALFORMED);
    session.submit_catalog(30, "MG1");
    session.submit_catalog(40, "MG3");
    let second = server.drain();
    assert_eq!(assert_identity(&g, &refs, &second, "second drain"), (3, 1));
    let w = &second.ledger.windows[0];
    assert_eq!((w.arrivals, w.unique, w.rejected), (4, 2, 1), "{w:?}");
    assert!(server.drain().outcomes.is_empty(), "a drain must empty the queue");
}
