//! Byte-identity oracle for the ExtVP layer over the full Fig. 8 query ×
//! engine matrix: a catalog loaded with ExtVP semi-join reductions (and the
//! compilers substituting them for full VP scans / gating triplegroup scans
//! on their subject sets) must produce the exact output bytes of a catalog
//! loaded without them — while never reading or shuffling *more*.
//!
//! This is the acceptance gate for the reduction machinery: ExtVP is a
//! pure scan-side optimization, so the only observable differences are the
//! data-flow counters shrinking, never the answer.

use rapida::core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida::core::{extract, AnalyticalQuery, DataCatalog, LoadConfig, QueryEngine};
use rapida::datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};
use rapida::mapred::{Engine as MrEngine, FaultPlan, WorkflowMetrics};
use rapida::rdf::Graph;
use rapida::sparql::parse_query;
use rapida_testkit::chaos::ChaosConfig;

fn engines() -> Vec<Box<dyn QueryEngine>> {
    vec![
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ]
}

/// The two catalogs under comparison, loaded from one graph.
fn catalog_pair(graph: &Graph) -> (DataCatalog, DataCatalog) {
    let on = DataCatalog::load(graph); // ExtVP on by default
    let off = DataCatalog::load_with(
        graph,
        LoadConfig {
            extvp: false,
            ..LoadConfig::default()
        },
    );
    assert!(
        !on.vp.ext_tables().is_empty(),
        "ExtVP-on catalog materialized no reductions — the oracle would be vacuous"
    );
    assert!(off.vp.ext_tables().is_empty());
    (on, off)
}

/// Plan + execute one (query, engine) pair, returning the output dataset's
/// exact block bytes, the plan's cycle count, and the run metrics.
fn run_one(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    engine: &dyn QueryEngine,
    fault_seed: Option<u64>,
) -> (Vec<Vec<u8>>, usize, WorkflowMetrics) {
    let mut mr = MrEngine::with_workers(cat.dfs.clone(), 4);
    mr.faults = fault_seed.map(FaultPlan::chaotic);
    let plan = engine
        .plan(aq, cat)
        .unwrap_or_else(|e| panic!("{} failed to plan: {e}", engine.name()));
    let cycles = plan.cycles();
    let (_rel, wf) = plan.try_execute(&mr, aq, &cat.dict).expect("plan executes");
    let blocks: Vec<Vec<u8>> = cat
        .dfs
        .peek(&plan.output_dataset)
        .map(|ds| ds.blocks.iter().map(|b| b.as_ref().to_vec()).collect())
        .unwrap_or_default();
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    (blocks, cycles, wf)
}

/// One (query, engine) pair of a sweep: did ExtVP strictly shrink its
/// input bytes, its shuffle bytes?
struct Shrank {
    id: &'static str,
    engine: &'static str,
    input: bool,
    shuffle: bool,
}

/// Sweep the query list on all four engines over both catalogs, returning
/// per (query, engine) pair where ExtVP strictly shrank the data flow.
fn identity_matrix(on: &DataCatalog, off: &DataCatalog, ids: &[&'static str]) -> Vec<Shrank> {
    let mut shrank = Vec::new();
    for &id in ids {
        let q = query(id);
        let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();
        for engine in engines() {
            let (golden, base_cycles, base_wf) = run_one(off, &aq, engine.as_ref(), None);
            let (got, cycles, wf) = run_one(on, &aq, engine.as_ref(), None);
            assert!(
                !golden.is_empty() || base_wf.jobs.is_empty(),
                "{id}/{}: full-scan golden run produced no output blocks",
                engine.name()
            );
            assert_eq!(
                got,
                golden,
                "{id}/{}: ExtVP run diverged from the full-scan golden",
                engine.name()
            );
            // Substitution swaps datasets, never plan shape: the paper's
            // pinned cycle counts are ExtVP-invariant on the fixed engines.
            assert_eq!(
                cycles,
                base_cycles,
                "{id}/{}: ExtVP changed the cycle count",
                engine.name()
            );
            // Never-worse: reductions and subject gates only remove work.
            let (in_on, in_off) = (wf.total(|j| j.input_bytes), base_wf.total(|j| j.input_bytes));
            let (sh_on, sh_off) = (wf.total(|j| j.shuffle_bytes), base_wf.total(|j| j.shuffle_bytes));
            assert!(
                in_on <= in_off,
                "{id}/{}: ExtVP read more ({in_on} > {in_off} input bytes)",
                engine.name()
            );
            assert!(
                sh_on <= sh_off,
                "{id}/{}: ExtVP shuffled more ({sh_on} > {sh_off} bytes)",
                engine.name()
            );
            shrank.push(Shrank {
                id,
                engine: engine.name(),
                input: in_on < in_off,
                shuffle: sh_on < sh_off,
            });
        }
    }
    shrank
}

#[test]
fn bsbm_g_queries_are_extvp_invariant() {
    let (on, off) = catalog_pair(&generate_bsbm(&BsbmConfig::tiny()));
    identity_matrix(&on, &off, &["G1", "G2", "G3", "G4"]);
}

#[test]
fn bsbm_mg_queries_are_extvp_invariant_and_cheaper() {
    let (on, off) = catalog_pair(&generate_bsbm(&BsbmConfig::tiny()));
    let shrank = identity_matrix(&on, &off, &["MG1", "MG2", "MG3", "MG4"]);
    assert!(
        shrank.iter().any(|s| s.input || s.shuffle),
        "no MG (query, engine) pair saw a strict data-flow reduction — \
         substitution never fired"
    );
}

/// Chem MG6, G6 and G7. G6 and G7 are the catalog cells where the NTGA
/// engines install an ExtVP subject gate on a triplegroup scan, so under
/// RAPID+ and RAPIDAnalytics the gate must strictly shrink the shuffle.
#[test]
fn chem_mg6_is_extvp_invariant() {
    let (on, off) = catalog_pair(&generate_chem(&ChemConfig::tiny()));
    let shrank = identity_matrix(&on, &off, &["MG6", "G6", "G7"]);
    let gated: Vec<&Shrank> = shrank
        .iter()
        .filter(|s| s.id != "MG6" && s.engine.starts_with("RAPID"))
        .collect();
    assert_eq!(gated.len(), 4, "G6 and G7 under RAPID+ and RAPIDAnalytics");
    for s in gated {
        assert!(s.shuffle, "{}/{}: the subject gate never fired", s.id, s.engine);
    }
}

/// Chaos leg: the ExtVP-substituted plans must also recover byte-identically
/// from injected failures, stragglers and node loss — against the *full
/// scan* fault-free golden, so fault recovery and substitution are pinned
/// together.
#[test]
fn extvp_plans_survive_chaos_byte_identically() {
    let (on, off) = catalog_pair(&generate_bsbm(&BsbmConfig::tiny()));
    let q = query("MG2");
    let aq = extract(&parse_query(&q.sparql).unwrap()).unwrap();
    let mut cfg = ChaosConfig::from_env();
    cfg.seeds.truncate(2);
    let mut injected = 0u64;
    for engine in engines() {
        let (golden, _, _) = run_one(&off, &aq, engine.as_ref(), None);
        for &seed in &cfg.seeds {
            let (got, _, wf) = run_one(&on, &aq, engine.as_ref(), Some(seed));
            assert_eq!(
                got,
                golden,
                "MG2/{}: faulted ExtVP run diverged from the full-scan golden",
                engine.name()
            );
            injected += wf.total(|j| j.failed_attempts + j.speculative_attempts);
        }
    }
    assert!(
        injected > 0,
        "chaotic sweep injected nothing across the faulted runs"
    );
}
