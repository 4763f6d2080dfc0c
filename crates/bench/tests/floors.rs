//! The floors of the four reports that extend the paper's Fig. 8 plan-quality
//! claims: cost-based plan choice, ExtVP reductions, checkpoint recovery and
//! batched serving. Every quantity is a simulated model second, a byte count
//! or a simulated rate — a pure function of catalog, query and cluster model —
//! so each floor is a plain assertion. `cargo test -p rapida-bench --test
//! floors -- --nocapture` prints the rows EXPERIMENTS.md records.

use rapida_bench::Workbench;
use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida_core::{enumerate_best, extract, AnalyticalQuery, DataCatalog, Family, LoadConfig, QueryEngine, QueryPlan};
use rapida_datagen::{generate_bsbm, generate_chem, generate_traffic, query, BsbmConfig, ChemConfig, TrafficConfig};
use rapida_mapred::{ClusterModel, Engine, FaultPlan, JobDeadline, RecoveryLedger, ResiliencePolicy};
use rapida_serve::{ServeConfig, ServeLedger, ServeMode, Server};
use rapida_sparql::parse_query;

const MG: [&str; 4] = ["MG1", "MG2", "MG3", "MG4"];

fn analytical(id: &str) -> AnalyticalQuery {
    extract(&parse_query(&query(id).sparql).unwrap()).unwrap()
}

/// Simulated cost of one compiled plan run on the pinned simulator (the
/// measurement the enumerator's dry runs use), with the run's input bytes.
/// The engine's deadline is one no plan comes near; an engine with a
/// deadline runs a chosen plan afresh instead of replaying its dry run.
fn measured(plan: &QueryPlan, aq: &AnalyticalQuery, cat: &DataCatalog, model: &ClusterModel) -> (f64, u64) {
    let mr = Engine::pinned(cat.dfs.clone()).with_resilience(ResiliencePolicy {
        deadline: Some(JobDeadline::new(*model, 1e12)),
        ..ResiliencePolicy::default()
    });
    let (_rel, wf) = plan.try_execute(&mr, aq, &cat.dict).expect("plan executes");
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    (model.workflow_time(&wf), wf.total(|j| j.input_bytes))
}

/// On the Fig. 8(a) workbench (BSBM-500K stand-in, 10-node model) the
/// enumerator's plan costs at most 1.001x each fixed plan of its family on
/// every MG query, and some chosen plan beats fixed Hive-MQO by 1.1x.
#[test]
fn plan_choice_never_loses_to_a_fixed_plan() {
    let wb = Workbench::bsbm_500k();
    let (cat, model) = (&wb.cat, &wb.model);
    let fixed: [&dyn QueryEngine; 4] = [
        &HiveNaive::default(),
        &HiveMqo::default(),
        &RapidPlus::default(),
        &RapidAnalytics::default(),
    ];
    println!("| Query | Hive naive | Hive MQO | chosen Hive (picked) | RAPID+ | RAPIDA | chosen RAPID (picked) |");
    let mut best_vs_mqo = 0.0f64;
    for id in MG {
        let aq = analytical(id);
        let fixed_s: Vec<f64> = fixed
            .iter()
            .map(|e| measured(&e.plan(&aq, cat).expect("fixed plan compiles"), &aq, cat, model).0)
            .collect();
        let mut row = format!("| {id} |");
        for (family, family_fixed) in [(Family::Hive, &fixed_s[..2]), (Family::Rapid, &fixed_s[2..])] {
            let e = enumerate_best(family, &aq, cat, model).expect("enumeration succeeds");
            let chosen = measured(&e.plan, &aq, cat, model).0;
            for &f in family_fixed {
                assert!(
                    chosen <= f * 1.001,
                    "{id} {family:?}: chosen {chosen:.3} model-s loses to a fixed {f:.3}"
                );
                row += &format!(" {f:.3} |");
            }
            row += &format!(" **{chosen:.3}** ({}) |", e.choice);
            best_vs_mqo = best_vs_mqo.max(fixed_s[1] / chosen);
        }
        println!("{row}");
    }
    println!("best chosen-vs-fixed-Hive-MQO speedup: {best_vs_mqo:.2}x");
    assert!(
        best_vs_mqo >= 1.1,
        "no chosen plan beats fixed Hive-MQO by 1.1x (best {best_vs_mqo:.2}x)"
    );
}

/// Fixed Hive-MQO and RAPIDAnalytics plans on a catalog loaded with ExtVP
/// reductions vs one loaded without, under one model calibrated on the
/// full-scan catalog (so the ratio isolates scan-side savings): ExtVP is never
/// worse than 0.999x, and some MG pair is at least 1.2x faster.
#[test]
fn extvp_never_loses_to_a_full_scan() {
    let sweeps = [
        (generate_bsbm(&BsbmConfig::small()), 43e9, &MG[..]),
        (generate_chem(&ChemConfig::default()), 60e9, &["MG6"][..]),
    ];
    println!("| Query | Family | full-scan in-bytes | ExtVP in-bytes | full-scan model-s | ExtVP model-s | speedup |");
    let mut best = 0.0f64;
    for (graph, paper_bytes, ids) in sweeps {
        let off = DataCatalog::load_with(
            &graph,
            LoadConfig {
                extvp: false,
                ..LoadConfig::default()
            },
        );
        let on = DataCatalog::load(&graph);
        let mut model = ClusterModel::nodes10();
        model.data_scale = paper_bytes / off.dfs.stored_bytes().max(1) as f64;
        for id in ids {
            let aq = analytical(id);
            for engine in [&HiveMqo::default() as &dyn QueryEngine, &RapidAnalytics::default()] {
                let run = |cat: &DataCatalog| {
                    measured(&engine.plan(&aq, cat).expect("fixed plan compiles"), &aq, cat, &model)
                };
                let (full_s, full_in) = run(&off);
                let (ext_s, ext_in) = run(&on);
                let speedup = full_s / ext_s;
                let name = engine.name();
                println!("| {id} | {name} | {full_in} | {ext_in} | {full_s:.3} | {ext_s:.3} | {speedup:.2}x |");
                assert!(
                    speedup >= 0.999,
                    "{id} {name}: ExtVP loses to the full scan ({speedup:.3}x)"
                );
                best = best.max(speedup);
            }
        }
    }
    assert!(best >= 1.2, "no MG pair beats the full scan by 1.2x (best {best:.2}x)");
}

/// MG1 on Hive (Naive), the longest Fig. 8 workflow, with the last job of the
/// main workflow killed once; the recovery ledger of the run.
fn recover_once(cat: &DataCatalog, checkpointing: bool) -> RecoveryLedger {
    let aq = analytical("MG1");
    let plan = HiveNaive::default().plan(&aq, cat).expect("MG1 plans on HiveNaive");
    let mut mr = Engine::pinned(cat.dfs.clone()).with_resilience(ResiliencePolicy {
        checkpointing,
        ..ResiliencePolicy::default()
    });
    // By index: job names embed a per-plan id.
    mr.faults = Some(FaultPlan {
        abort_job: Some((plan.jobs.len() - 1, 1)),
        ..FaultPlan::new(0)
    });
    let (_rel, wf) = plan
        .try_execute(&mr, &aq, &cat.dict)
        .expect("one kill is within the default budget");
    plan.cleanup(&cat.dfs);
    cat.dfs.remove(&plan.output_dataset);
    wf.recovery
}

/// After a late-job loss, full restart recomputes at least 2x the bytes that
/// checkpoint resume does, and the cost model charges it more.
#[test]
fn checkpoint_resume_recomputes_half_a_restart_at_most() {
    let model = ClusterModel::nodes10();
    println!("| BSBM | mode | jobs replayed | checkpoints skipped | recomputed bytes | model overhead s |");
    for (size, config) in [("tiny", BsbmConfig::tiny()), ("small", BsbmConfig::small())] {
        let cat = DataCatalog::load(&generate_bsbm(&config));
        let (restart, ckpt) = (recover_once(&cat, false), recover_once(&cat, true));
        let (o_restart, o_ckpt) = (model.recovery_overhead(&restart), model.recovery_overhead(&ckpt));
        for (mode, r, o) in [("restart", &restart, o_restart), ("checkpoint", &ckpt, o_ckpt)] {
            let (jobs, skipped, bytes) = (r.jobs_replayed, r.checkpoint_jobs_skipped, r.recomputed_bytes);
            println!(
                "| {size} | {mode} | {jobs} | {skipped} ({} B verified) | {bytes} | {o:.1} |",
                r.checkpoint_bytes_read
            );
        }
        assert!(
            ckpt.checkpoint_jobs_skipped > 0 && restart.checkpoint_jobs_skipped == 0,
            "{size}: modes must differ (checkpoint skipped {}, restart {})",
            ckpt.checkpoint_jobs_skipped,
            restart.checkpoint_jobs_skipped
        );
        assert!(
            ckpt.recomputed_bytes > 0,
            "{size}: checkpoint resume recomputed nothing — the kill never fired"
        );
        let margin = restart.recomputed_bytes as f64 / ckpt.recomputed_bytes as f64;
        assert!(
            margin >= 2.0,
            "{size}: restart/checkpoint recomputation margin {margin:.2}x is below 2x"
        );
        assert!(
            o_restart > o_ckpt,
            "{size}: checkpoint overhead {o_ckpt:.1} s is not below restart's {o_restart:.1} s"
        );
    }
}

fn serve(cat: &DataCatalog, clients: usize, dur_ms: u64, mode: ServeMode) -> ServeLedger {
    let server = Server::over(
        cat.clone(),
        ServeConfig {
            mode,
            ..ServeConfig::default()
        },
    );
    server.enqueue_traffic(&generate_traffic(&TrafficConfig::bsbm_mix(42, clients, dur_ms)));
    let ledger = server.drain().ledger;
    assert_eq!(
        ledger.rejected,
        0,
        "{} c{clients}: every traffic-mix query completes",
        mode.name()
    );
    ledger
}

/// Batched-MQO serving with the scan cache beats one-query-at-a-time serving
/// at 10, 100 and 1000 simulated clients, with cache hits at each, and by at
/// least 1.5x at 100 clients.
#[test]
fn batched_serving_beats_serial() {
    println!("| BSBM | Clients | batched q/s | serial q/s | batched/serial | cache hit ratio |");
    for (size, config, dur_ms) in [("tiny", BsbmConfig::tiny(), 220), ("small", BsbmConfig::small(), 600)] {
        let cat = DataCatalog::load(&generate_bsbm(&config));
        for clients in [10, 100, 1000] {
            let batched = serve(&cat, clients, dur_ms, ServeMode::Batched);
            let serial = serve(&cat, clients, dur_ms, ServeMode::Serial);
            let (speedup, hits) = (batched.qps / serial.qps, batched.cache_hit_ratio());
            println!(
                "| {size} | {clients} | {:.3} | {:.3} | {speedup:.1}x | {:.0}% |",
                batched.qps,
                serial.qps,
                100.0 * hits
            );
            assert!(
                speedup > 1.0,
                "{size} c{clients}: batched loses to serial ({speedup:.2}x)"
            );
            assert!(hits > 0.0, "{size} c{clients}: the cross-window scan cache never hit");
            if clients == 100 {
                assert!(
                    speedup >= 1.5,
                    "{size} c100: batched/serial {speedup:.2}x is below the 1.5x floor"
                );
            }
        }
    }
}
