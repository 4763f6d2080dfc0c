//! Extension and robustness tests: three-grouping queries (beyond the
//! paper's two), corrupt-record resilience, plan explanation, and DFS
//! cleanup.

use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida_core::{extract, run_query, DataCatalog, PlanError, QueryEngine};
use rapida_mapred::{Dataset, DatasetWriter, Engine, FaultPlan};
use rapida_rdf::{vocab, Graph, Term};
use rapida_sparql::{evaluate, parse_query};

fn iri(s: &str) -> Term {
    Term::iri(format!("http://x/{s}"))
}

fn sales_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..30 {
        let o = iri(&format!("o{i}"));
        g.insert_terms(&o, &Term::iri(vocab::RDF_TYPE), &iri("Sale"));
        g.insert_terms(&o, &iri("f"), &iri(&format!("feat{}", i % 3)));
        if i % 2 == 0 {
            g.insert_terms(&o, &iri("c"), &iri(&format!("country{}", i % 4)));
        }
        g.insert_terms(&o, &iri("pc"), &Term::decimal((i % 7) as f64 * 5.0));
    }
    g
}

/// THREE related groupings in one query — the paper evaluates two; the
/// composite machinery generalizes, and all engines must still agree.
#[test]
fn three_grouping_blocks() {
    let g = sales_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?f ?c ?nFC ?nF ?nT {
          { SELECT ?f ?c (COUNT(?p1) AS ?nFC)
            { ?o1 a ex:Sale ; ex:f ?f ; ex:c ?c ; ex:pc ?p1 . } GROUP BY ?f ?c }
          { SELECT ?f (COUNT(?p2) AS ?nF)
            { ?o2 a ex:Sale ; ex:f ?f ; ex:pc ?p2 . } GROUP BY ?f }
          { SELECT (COUNT(?p3) AS ?nT)
            { ?o3 a ex:Sale ; ex:pc ?p3 . } }
        }";
    let query = parse_query(q).unwrap();
    let expected = evaluate(&query, &g).canonicalized(&g.dict);
    assert!(!expected.is_empty());
    let aq = extract(&query).unwrap();
    assert_eq!(aq.blocks.len(), 3);
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    let mut ra_cycles = 0;
    let mut rp_cycles = 0;
    for e in &engines {
        let plan = e.plan(&aq, &cat).unwrap();
        if e.name() == "RAPIDAnalytics" {
            ra_cycles = plan.cycles();
        }
        if e.name().starts_with("RAPID+") {
            rp_cycles = plan.cycles();
        }
        let (rel, _wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        assert_eq!(
            rel.canonicalized(&g.dict),
            expected,
            "{} disagrees on the 3-block query",
            e.name()
        );
    }
    // Single-star patterns feed the Agg-Join directly from storage: the
    // parallel Agg-Join carries all three groupings in ONE cycle plus the
    // map-only final join, vs one aggregation cycle per block for RAPID+.
    assert_eq!(ra_cycles, 2);
    assert_eq!(rp_cycles, 4);
}

/// Corrupt records in input datasets are skipped gracefully by every
/// engine — no panics, the valid records still produce correct results,
/// and every skip is ledgered in the workflow metrics so the quarantine
/// is observable (not a silent `continue`).
#[test]
fn corrupt_records_are_skipped() {
    let g = sales_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?f (COUNT(?p) AS ?n) { ?o a ex:Sale ; ex:f ?f ; ex:pc ?p . } GROUP BY ?f";
    let query = parse_query(q).unwrap();
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);

    // Inject garbage blocks into every stored dataset.
    for name in cat.dfs.names() {
        let ds = cat.dfs.peek(&name).unwrap();
        let mut w = DatasetWriter::new(64);
        w.push(&[0xFF; 11]); // invalid varint soup
        w.push(b"");
        let garbage: Dataset = w.finish();
        let mut blocks = ds.blocks.clone();
        blocks.extend(garbage.blocks);
        let mut block_records = ds.block_records.clone();
        block_records.extend(garbage.block_records);
        cat.dfs.put(
            &name,
            Dataset {
                records: ds.records + garbage.records,
                blocks,
                block_records,
            },
        );
    }

    let mr = Engine::pinned(cat.dfs.clone());
    let engines: Vec<Box<dyn QueryEngine>> = vec![
        Box::new(HiveNaive::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    for e in &engines {
        let plan = e.plan(&aq, &cat).unwrap();
        let (rel, wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        assert_eq!(rel.len(), 3, "{}: three feature groups survive", e.name());
        assert!(
            wf.total(|j| j.corrupt_records_skipped) > 0,
            "{}: skipped garbage records must be counted in the metrics",
            e.name()
        );
    }
}

#[test]
fn explain_describes_the_plan() {
    let g = sales_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?f ?nF ?nT {
          { SELECT ?f (COUNT(?p2) AS ?nF)
            { ?o2 a ex:Sale ; ex:f ?f ; ex:pc ?p2 . } GROUP BY ?f }
          { SELECT (COUNT(?p3) AS ?nT) { ?o3 a ex:Sale ; ex:pc ?p3 . } }
        }";
    let aq = extract(&parse_query(q).unwrap()).unwrap();
    let cat = DataCatalog::load(&g);
    let plan = RapidAnalytics::default().plan(&aq, &cat).unwrap();
    let text = plan.explain();
    assert!(text.contains("RAPIDAnalytics plan"));
    assert!(text.contains("MR1"));
    assert!(text.contains("final-join"));
    assert!(text.contains("output:"));
    assert_eq!(
        text.matches("\n  MR").count(),
        plan.cycles(),
        "one line per cycle"
    );
}

#[test]
fn cleanup_removes_intermediates_only() {
    let g = sales_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?f ?nF ?nT {
          { SELECT ?f (COUNT(?p2) AS ?nF)
            { ?o2 a ex:Sale ; ex:f ?f ; ex:pc ?p2 . } GROUP BY ?f }
          { SELECT (COUNT(?p3) AS ?nT) { ?o3 a ex:Sale ; ex:pc ?p3 . } }
        }";
    let query = parse_query(q).unwrap();
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let base_names = cat.dfs.names();
    let plan = RapidAnalytics::default().plan(&aq, &cat).unwrap();
    let (rel, _) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
    assert!(!rel.is_empty());
    assert!(cat.dfs.names().len() > base_names.len(), "intermediates exist");
    plan.cleanup(&cat.dfs);
    let after = cat.dfs.names();
    // Everything except the base datasets and the final output is gone.
    let extra: Vec<String> = after
        .iter()
        .filter(|n| !base_names.contains(n))
        .cloned()
        .collect();
    assert_eq!(extra, vec![plan.output_dataset.clone()]);
    // The result is still assemblable after cleanup.
    let rel2 = plan.assemble(&cat.dfs, &aq, &cat.dict);
    assert_eq!(
        rel2.canonicalized(&g.dict),
        rel.canonicalized(&g.dict)
    );
}

/// The shared composite scan: RAPIDAnalytics reads the triplegroup
/// partitions once for both patterns, where RAPID+ scans them once per
/// pattern — visible in measured input bytes of the pattern cycles.
#[test]
fn shared_scan_reads_less_input() {
    let g = sales_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?f ?nF ?nT {
          { SELECT ?f (COUNT(?p2) AS ?nF)
            { ?o2 a ex:Sale ; ex:f ?f ; ex:pc ?p2 . } GROUP BY ?f }
          { SELECT (COUNT(?p3) AS ?nT) { ?o3 a ex:Sale ; ex:pc ?p3 . } }
        }";
    let query = parse_query(q).unwrap();
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());

    // Single-star patterns: the Agg-Join cycle scans raw triplegroups.
    let ra_plan = RapidAnalytics::default().plan(&aq, &cat).unwrap();
    let (_, ra_wf) = ra_plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
    let rp_plan = RapidPlus::default().plan(&aq, &cat).unwrap();
    let (_, rp_wf) = rp_plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
    let scan_bytes = |wf: &rapida_mapred::WorkflowMetrics| {
        wf.jobs
            .iter()
            .filter(|j| j.name.contains("agg"))
            .map(|j| j.input_bytes)
            .sum::<u64>()
    };
    assert!(
        scan_bytes(&ra_wf) < scan_bytes(&rp_wf),
        "composite shared scan must read less: {} vs {}",
        scan_bytes(&ra_wf),
        scan_bytes(&rp_wf)
    );
}

/// §2.2 sharing for NON-overlapping patterns: when every block is a single
/// star, RAPIDAnalytics shares one scan + one Agg-Join cycle instead of
/// falling back to fully sequential RAPID+ evaluation.
#[test]
fn non_overlapping_single_star_blocks_share_one_cycle() {
    let g = sales_graph();
    // Two structurally different single-star patterns (pf/label vs c only —
    // no shared property set on the same star shape with matching joins).
    let q = "PREFIX ex: <http://x/>
        SELECT ?nA ?nB {
          { SELECT (COUNT(?f) AS ?nA) { ?o1 ex:f ?f ; ex:pc ?p1 . } }
          { SELECT (COUNT(?c) AS ?nB) { ?o2 ex:c ?c . } }
        }";
    let query = parse_query(q).unwrap();
    let expected = evaluate(&query, &g).canonicalized(&g.dict);
    let aq = extract(&query).unwrap();
    assert!(matches!(
        rapida_core::build_composite(&aq.blocks).unwrap(),
        rapida_core::CompositeOutcome::NotOverlapping(_)
    ));
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());

    let ra = RapidAnalytics::default().plan(&aq, &cat).unwrap();
    let rp = RapidPlus::default().plan(&aq, &cat).unwrap();
    // RA: one shared Agg-Join cycle + map-only final join = 2;
    // RAPID+: one Agg-Join per block + final join = 3.
    assert_eq!(ra.cycles(), 2, "shared scan collapses the block cycles");
    assert_eq!(rp.cycles(), 3);

    let (ra_rel, ra_wf) = ra.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
    let (rp_rel, rp_wf) = rp.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
    assert_eq!(ra_rel.canonicalized(&g.dict), expected);
    assert_eq!(rp_rel.canonicalized(&g.dict), expected);
    assert!(
        ra_wf.total(|j| j.input_bytes) < rp_wf.total(|j| j.input_bytes),
        "one shared scan reads less than two scans: {} vs {}",
        ra_wf.total(|j| j.input_bytes),
        rp_wf.total(|j| j.input_bytes)
    );
}

/// Engine runs are deterministic despite multi-threaded execution: two
/// executions of the same plan produce identical canonical results.
#[test]
fn execution_is_deterministic() {
    let g = sales_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?f ?nF ?nT {
          { SELECT ?f (COUNT(?p2) AS ?nF)
            { ?o2 a ex:Sale ; ex:f ?f ; ex:pc ?p2 . } GROUP BY ?f }
          { SELECT (COUNT(?p3) AS ?nT) { ?o3 a ex:Sale ; ex:pc ?p3 . } }
        }";
    let query = parse_query(q).unwrap();
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let mut results = Vec::new();
    for _ in 0..3 {
        let plan = RapidAnalytics::default().plan(&aq, &cat).unwrap();
        let (rel, _) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        results.push(rel.canonicalized(&g.dict));
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

/// A job killed on more workflow attempts than the retry budget allows makes
/// `run_query` return the typed workflow error, on every engine, instead of
/// panicking — and the failed plan leaves nothing behind in the DFS.
#[test]
fn run_query_returns_an_exhausted_budget_as_an_error() {
    let g = sales_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?f (COUNT(?p) AS ?n) { ?o a ex:Sale ; ex:f ?f ; ex:pc ?p . } GROUP BY ?f";
    let cat = DataCatalog::load(&g);
    let mut mr = Engine::pinned(cat.dfs.clone());
    mr.faults = Some(FaultPlan {
        abort_job: Some((0, 99)),
        ..FaultPlan::new(0)
    });
    let stored = mr.dfs.names();
    let engines: [&dyn QueryEngine; 4] = [
        &HiveNaive::default(),
        &HiveMqo::default(),
        &RapidPlus::default(),
        &RapidAnalytics::default(),
    ];
    for engine in engines {
        let name = engine.name();
        match run_query(engine, q, &cat, &mr) {
            Err(PlanError::Workflow(m)) => assert!(m.contains("retry budget"), "{name}: {m}"),
            Err(e) => panic!("{name}: expected a workflow error, got {e}"),
            Ok(_) => panic!("{name}: the retry budget absorbed 99 kills"),
        }
        assert_eq!(mr.dfs.names(), stored, "{name}: the failed plan left datasets behind");
    }
}
