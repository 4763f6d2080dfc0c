//! Chaos over the full Fig. 8 workflow matrix: every (query, engine) pair
//! the paper evaluates must survive injected task failures, stragglers,
//! node loss, read-path corruption and whole-job aborts with byte-identical
//! DFS output — and must report the extra attempts (with correspondingly
//! higher simulated cost) in its metrics, with every detected corruption
//! ledgered and none slipping through silently.
//!
//! This is the acceptance gate for the fault-injection layer: recovery is
//! only correct if the *whole* query pipeline (planner output, shuffle
//! contract, fixups, final join) is invariant under faults.

use rapida::core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida::core::{extract, AnalyticalQuery, DataCatalog, QueryEngine};
use rapida::datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};
use rapida::mapred::integrity::fnv1a;
use rapida::mapred::{ClusterModel, Engine as MrEngine, FaultPlan, WorkflowMetrics};
use rapida::sparql::parse_query;
use rapida_testkit::chaos::{ChaosConfig, Scenario};
use std::path::PathBuf;

/// The relational engines, then the two NTGA engines.
fn engines() -> Vec<Box<dyn QueryEngine>> {
    vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ]
}

/// The sweep grid for the full matrix: trimmed relative to the mapred chaos
/// suite (workers {1, 4}, at most 2 seeds) because it multiplies by 9
/// queries × 4 engines; `RAPIDA_CHAOS_SEEDS=1` shrinks it further.
fn grid() -> ChaosConfig {
    let mut cfg = ChaosConfig::from_env();
    cfg.seeds.truncate(2);
    cfg.workers = vec![1, 4];
    cfg
}

/// What a run observes: the output dataset's exact block bytes plus the
/// committed per-job data-flow counters (attempt counters excluded — those
/// are *supposed* to differ between scenarios). Job names are excluded
/// too: they embed the per-plan id, which differs between plan instances.
type RunSignature = (Vec<Vec<u8>>, Vec<(bool, usize, usize, [u64; 8])>);

fn committed(wf: &WorkflowMetrics) -> Vec<(bool, usize, usize, [u64; 8])> {
    wf.jobs
        .iter()
        .map(|m| {
            (
                m.map_only,
                m.map_tasks,
                m.reduce_tasks,
                [
                    m.input_bytes,
                    m.input_records,
                    m.map_output_records,
                    m.map_output_bytes,
                    m.shuffle_records,
                    m.shuffle_bytes,
                    m.output_records,
                    m.output_bytes,
                ],
            )
        })
        .collect()
}

/// Plan + execute one (query, engine) pair under a scenario, returning the
/// run's signature and its full metrics.
fn run_one(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    engine: &dyn QueryEngine,
    scenario: &Scenario,
) -> (RunSignature, WorkflowMetrics) {
    let mut mr = MrEngine::with_workers(cat.dfs.clone(), scenario.workers);
    mr.faults = scenario.fault_seed.map(FaultPlan::chaotic);
    let plan = engine
        .plan(aq, cat)
        .unwrap_or_else(|e| panic!("{} failed to plan: {e}", engine.name()));
    let (_rel, wf) = plan.try_execute(&mr, aq, &cat.dict).expect("plan executes");
    let blocks: Vec<Vec<u8>> = cat
        .dfs
        .peek(&plan.output_dataset)
        .map(|ds| ds.blocks.iter().map(|b| b.as_ref().to_vec()).collect())
        .unwrap_or_default();
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    ((blocks, committed(&wf)), wf)
}

/// Sweep one catalog's queries through the grid on `engines`; `pin` sees
/// each pair's fault-free signature, which every other scenario must equal.
fn chaos_matrix(
    cat: &DataCatalog,
    ids: &[&str],
    engines: &[Box<dyn QueryEngine>],
    mut pin: impl FnMut(&str, &str, &RunSignature),
) {
    let model = ClusterModel::nodes10();
    let cfg = grid();
    let scenarios = cfg.scenarios();
    // Corruption detections aggregate across the whole matrix: a single
    // (query, engine) pair may read too few blocks for the corrupting
    // probabilities to fire, but the matrix as a whole must both detect
    // corruption and quarantine all of it (the silent counter stays zero
    // per run, asserted inside the sweep).
    let mut detected = 0u64;
    for id in ids {
        let q = query(id);
        let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();
        for engine in engines {
            let (golden, golden_wf) = run_one(cat, &aq, engine.as_ref(), &scenarios[0]);
            assert!(
                !golden.0.is_empty() || golden_wf.jobs.is_empty(),
                "{id}/{}: golden run produced no output blocks",
                engine.name()
            );
            pin(id, engine.name(), &golden);
            let golden_cost = model.workflow_time(&golden_wf);
            // Aggregate chaos evidence across the faulted scenarios: the
            // tiny workloads make any single seed's injections sparse, but
            // the sweep as a whole must both retry and speculate.
            let mut injected = 0u64;
            for s in &scenarios[1..] {
                let (got, wf) = run_one(cat, &aq, engine.as_ref(), s);
                assert_eq!(
                    got,
                    golden,
                    "{id}/{}: [{}] diverged from the fault-free golden run",
                    engine.name(),
                    s.label()
                );
                assert_eq!(
                    wf.total(|j| j.silent_corruptions),
                    0,
                    "{id}/{}: [{}] corruption slipped past the checksum gate",
                    engine.name(),
                    s.label()
                );
                if s.fault_seed.is_some() {
                    let extra = wf.total(|j| j.failed_attempts + j.speculative_attempts);
                    injected += extra;
                    detected += wf.total(|j| j.corrupt_blocks_detected + j.corrupt_spills_detected);
                    // Wasted attempts must be charged: strictly costlier
                    // whenever anything was injected.
                    if extra > 0 {
                        assert!(
                            model.workflow_time(&wf) > golden_cost,
                            "{id}/{}: [{}] absorbed {extra} extra attempts but costs no more",
                            engine.name(),
                            s.label()
                        );
                    }
                } else {
                    assert_eq!(wf.total(|j| j.failed_attempts), 0);
                    assert_eq!(wf.total(|j| j.speculative_attempts), 0);
                }
            }
            assert!(
                injected > 0,
                "{id}/{}: chaotic sweep injected nothing across {} faulted scenarios",
                engine.name(),
                cfg.seeds.len() * cfg.workers.len()
            );
        }
    }
    assert!(
        detected > 0,
        "chaotic sweep detected no corruption across the whole matrix"
    );
}

#[test]
fn bsbm_g_queries_survive_chaos() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    chaos_matrix(&cat, &["G1", "G2", "G3", "G4"], &engines(), |_, _, _| {});
}

#[test]
fn bsbm_mg_queries_survive_chaos() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    chaos_matrix(&cat, &["MG1", "MG2", "MG3", "MG4"], &engines(), |_, _, _| {});
}

#[test]
fn chem_mg6_survives_chaos() {
    let cat = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
    chaos_matrix(&cat, &["MG6"], &engines(), |_, _, _| {});
}

/// `blocks=<count> bytes=<total block bytes> fnv=<FNV-1a 64>` of a run's
/// signature; the hash covers every block (length-prefixed) and every
/// committed per-job counter.
fn digest(sig: &RunSignature) -> String {
    let mut flat = Vec::new();
    for block in &sig.0 {
        flat.extend_from_slice(&(block.len() as u64).to_le_bytes());
        flat.extend_from_slice(block);
    }
    for (map_only, maps, reduces, counters) in &sig.1 {
        for n in [u64::from(*map_only), *maps as u64, *reduces as u64].iter().chain(counters) {
            flat.extend_from_slice(&n.to_le_bytes());
        }
    }
    let bytes: usize = sig.0.iter().map(Vec::len).sum();
    format!("blocks={} bytes={bytes} fnv={:016x}", sig.0.len(), fnv1a(&flat))
}

/// The NTGA operators against their frozen reference: every Fig. 8 MG query
/// on both NTGA engines must reproduce the digests in
/// `tests/snapshots/fig8_ntga_golden.txt` — recorded from the owned-decode
/// reference operators before they left production (their operator-level
/// form lives on in `crates/ntga/tests/common`) — fault-free and, through
/// the sweep, under every fault scenario. `RAPIDA_UPDATE_SNAPSHOTS=1`
/// rewrites the file; do that only for a change meant to move output bytes.
#[test]
fn view_operators_survive_chaos_byte_identically() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/fig8_ntga_golden.txt");
    let mut got = String::new();
    chaos_matrix(&cat, &["MG1", "MG2", "MG3", "MG4"], &engines()[2..], |id, engine, sig| {
        got.push_str(&format!("{id} {engine} {}\n", digest(sig)));
    });
    if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
        std::fs::write(&path, &got).unwrap();
    }
    let pinned = std::fs::read_to_string(&path).expect("tests/snapshots/fig8_ntga_golden.txt is committed");
    assert_eq!(got, pinned, "an NTGA engine diverged from the pinned reference digests");
}
