//! The serving front end's edges, pinned by value:
//!
//! * a request arriving at `k · window_ms` opens window `k`; it is not the
//!   last arrival of window `k − 1`;
//! * a `deadline_s` equal to the slowest job's modeled seconds admits the
//!   query (the engine's gate is `job_time > limit`), and the next `f64`
//!   below it rejects the query whole, with a typed reason and no rows.

use rapida_core::{extract, DataCatalog, PlanRules, QueryEngine};
use rapida_datagen::{generate_bsbm, query, BsbmConfig};
use rapida_mapred::Engine;
use rapida_serve::{RequestStatus, ServeConfig, ServeMode, Server};
use rapida_sparql::parse_query;

#[test]
fn a_request_on_a_window_edge_opens_the_next_window() {
    let g = generate_bsbm(&BsbmConfig::tiny());
    let server = Server::new(
        &g,
        ServeConfig {
            window_ms: 100,
            ..ServeConfig::default()
        },
    );
    let session = server.session(0);
    for at_ms in [0, 99, 100, 199, 200, 300] {
        session.submit_catalog(at_ms, "G1");
    }
    let report = server.drain();
    let windows: Vec<_> = report
        .ledger
        .windows
        .iter()
        .map(|w| (w.window, w.arrivals))
        .collect();
    assert_eq!(windows, [(0, 2), (1, 2), (2, 1), (3, 1)]);
    // Each request completes once its own window has closed, at the earliest.
    for o in &report.outcomes {
        let closes = (o.at_ms / 100 + 1) * 100;
        assert!(o.at_ms as f64 + o.latency_ms >= closes as f64, "{o:?}");
    }
    assert_eq!(report.ledger.completed, 6);
}

#[test]
fn a_deadline_equal_to_the_slowest_job_admits_and_one_ulp_less_rejects() {
    let g = generate_bsbm(&BsbmConfig::tiny());
    let model = ServeConfig::default().model;
    let slowest = {
        let cat = DataCatalog::load(&g);
        let aq = extract(&parse_query(&query("MG1").sparql).unwrap()).unwrap();
        let plan = PlanRules::hive_mqo().plan(&aq, &cat).unwrap();
        let (_, wf) = plan
            .try_execute(&Engine::pinned(cat.dfs.clone()), &aq, &cat.dict)
            .unwrap();
        wf.jobs
            .iter()
            .map(|j| model.job_time(j))
            .fold(0.0, f64::max)
    };
    assert!(slowest > 0.0);

    // No scan cache in either mode: every request runs its jobs.
    for mode in [ServeMode::Batched, ServeMode::Serial] {
        let serve = |deadline_s: f64| {
            let config = ServeConfig {
                mode,
                cache_budget_bytes: 0,
                deadline_s: Some(deadline_s),
                ..ServeConfig::default()
            };
            let server = Server::new(&g, config);
            server.session(0).submit_catalog(10, "MG1");
            server.drain()
        };
        let admitted = serve(slowest);
        assert_eq!(
            (admitted.ledger.completed, admitted.ledger.rejected),
            (1, 0),
            "{mode:?}"
        );
        assert!(
            admitted.outcomes[0].rows().is_some_and(|r| r > 0),
            "{mode:?}"
        );

        let rejected = serve(slowest.next_down());
        assert_eq!(
            (rejected.ledger.completed, rejected.ledger.rejected),
            (0, 1),
            "{mode:?}"
        );
        assert_eq!(rejected.ledger.requests[0].rows, None, "{mode:?}");
        match &rejected.outcomes[0].status {
            RequestStatus::Rejected { reason } => {
                assert!(reason.contains("deadline"), "{mode:?}: {reason}")
            }
            RequestStatus::Completed { .. } => {
                panic!("{mode:?}: completed one ulp past its deadline")
            }
        }
    }
}
