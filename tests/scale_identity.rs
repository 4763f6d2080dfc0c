//! Worker-count determinism matrix over the full Fig. 8 query × engine
//! grid: with the work-stealing task pool and the shard-parallel reduce
//! merge in the engine, every (query, engine) pair must produce
//! byte-identical DFS output, identical committed data-flow metrics, and an
//! identical simulated cluster cost at 1, 2, 4 and 8 workers — fault-free.
//!
//! This is the acceptance gate for the parallel execution layer: the worker
//! count may only change *wall-clock* behavior (busy-time makespans,
//! steals, shard counts), never anything the paper's plan-quality claims
//! are measured on.

use rapida::core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida::core::{extract, AnalyticalQuery, DataCatalog, QueryEngine};
use rapida::datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};
use rapida::mapred::{ClusterModel, Engine as MrEngine, WorkflowMetrics};
use rapida::sparql::parse_query;

const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn engines() -> Vec<Box<dyn QueryEngine>> {
    vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ]
}

/// What a run observes: output block bytes plus committed per-job data-flow
/// counters (same signature shape as `chaos_fig8.rs`; job names excluded —
/// they embed per-plan ids that differ between plan instances).
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

/// Plan + execute one (query, engine) pair fault-free at a worker count.
fn run_one(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    engine: &dyn QueryEngine,
    workers: usize,
) -> (RunSignature, WorkflowMetrics) {
    let mr = MrEngine::with_workers(cat.dfs.clone(), workers);
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

/// Sweep one catalog's queries across the worker matrix on all engines.
fn scale_matrix(cat: &DataCatalog, ids: &[&str]) {
    let model = ClusterModel::nodes10();
    for id in ids {
        let q = query(id);
        let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();
        for engine in engines() {
            let (golden, golden_wf) = run_one(cat, &aq, engine.as_ref(), 1);
            assert!(
                !golden.0.is_empty() || golden_wf.jobs.is_empty(),
                "{id}/{}: 1-worker golden run produced no output blocks",
                engine.name()
            );
            let golden_cost = model.workflow_time(&golden_wf);
            for &workers in &WORKER_MATRIX[1..] {
                let (got, wf) = run_one(cat, &aq, engine.as_ref(), workers);
                assert_eq!(
                    got,
                    golden,
                    "{id}/{}: {workers}-worker run diverged from the 1-worker golden",
                    engine.name()
                );
                // The simulated cost consumes only data-flow and attempt
                // counters — never busy times, steals or shard counts — so
                // it must be exactly equal, not merely close.
                assert_eq!(
                    model.workflow_time(&wf),
                    golden_cost,
                    "{id}/{}: simulated cost drifted at {workers} workers",
                    engine.name()
                );
                // Fault-free: the attempt ledger stays at one per task.
                assert_eq!(wf.total(|j| j.failed_attempts), 0);
                assert_eq!(wf.total(|j| j.speculative_attempts), 0);
            }
        }
    }
}

#[test]
fn bsbm_g_queries_are_worker_count_invariant() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    scale_matrix(&cat, &["G1", "G2", "G3", "G4"]);
}

#[test]
fn bsbm_mg_queries_are_worker_count_invariant() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    scale_matrix(&cat, &["MG1", "MG2", "MG3", "MG4"]);
}

#[test]
fn chem_mg6_is_worker_count_invariant() {
    let cat = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
    scale_matrix(&cat, &["MG6"]);
}
