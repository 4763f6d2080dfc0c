//! Chaos suite for the MapReduce simulator itself: sweep fault seeds ×
//! worker counts over a three-cycle workflow and require (a) bit-identical
//! recovery and (b) an honest attempt ledger with correspondingly higher
//! simulated cost — pinned by value in
//! `tests/snapshots/fault_ledger_golden.txt`.
//!
//! Sweep width is tunable via `RAPIDA_CHAOS_SEEDS` (see
//! `rapida_testkit::chaos`); `scripts/verify.sh` runs this file as its
//! chaos smoke pass.

mod common;

use rapida_mapred::{
    ClusterModel, Dataset, DatasetWriter, Engine, FaultPlan, FnMapFactory, FnReduceFactory,
    InputSrc, Job, JobBuilder, JobMetrics, KeyLocal, MapOutput, MapTask, ReduceOutput, ReduceTask,
    SimDfs, WorkflowMetrics,
};
use rapida_testkit::chaos;
use rapida_testkit::chaos::{ChaosConfig, Scenario};
use rapida_testkit::rng::StdRng;
use std::path::PathBuf;
use std::sync::Arc;

/// Emits (word, 1) for every input record.
struct TokenMap;
impl MapTask for TokenMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(record, &1u32.to_le_bytes());
    }
}

/// Map-only pass that drops records shorter than 2 bytes.
struct FilterMap;
impl MapTask for FilterMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        if record.len() >= 2 {
            out.write(record);
        }
    }
}

/// Shuffle-heavy mapper: emits one pair per byte of the record (so every
/// map task produces several runs with heavy key overlap) plus a
/// per-record length marker — exercises the reduce-side run merge with
/// many equal keys spread across every task.
struct FanoutMap;
impl MapTask for FanoutMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        for &b in record {
            out.emit(&[b], &1u32.to_le_bytes());
        }
        out.emit(&[b'L', record.len() as u8], &1u32.to_le_bytes());
    }
}

/// Sums u32 values; writes `key \0 sum` as output or re-emits as combiner.
struct Sum {
    to_output: bool,
}
impl ReduceTask for Sum {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let total: u32 = values
            .iter()
            .map(|v| {
                let mut b = [0u8; 4];
                b.copy_from_slice(v);
                u32::from_le_bytes(b)
            })
            .sum();
        if self.to_output {
            let mut rec = key.to_vec();
            rec.push(0);
            rec.extend_from_slice(&total.to_le_bytes());
            out.write(&rec);
        } else {
            out.emit(key, &total.to_le_bytes());
        }
    }
}

/// The three-cycle workflow: map-only filter → combined word count →
/// re-aggregation (same shape as the determinism suite's).
fn workflow() -> Vec<Job> {
    vec![
        JobBuilder::new("filter")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| FilterMap)))
            .output("filtered")
            .build(),
        JobBuilder::new("wc")
            .input("filtered")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .combiner(Arc::new(FnReduceFactory(|| Sum { to_output: false })))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("counts")
            .num_reducers(5)
            .build(),
        JobBuilder::new("regroup")
            .input("counts")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("out")
            .num_reducers(3)
            .build(),
    ]
}

/// The fault plan a scenario's seed selects.
type PlanOf = fn(u64) -> FaultPlan;

/// A scenario runner: builds its input, runs its jobs under the scenario and
/// returns full workflow metrics plus the `out` dataset's exact block bytes.
type Runner = fn(&Scenario, PlanOf) -> (WorkflowMetrics, Vec<Vec<u8>>);

/// Run `jobs` over `input` (stored as `in`) under a scenario.
fn run_jobs(
    scenario: &Scenario,
    plan_of: PlanOf,
    input: Dataset,
    jobs: &[Job],
) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let dfs = SimDfs::new();
    dfs.put("in", input);
    let mut engine = Engine::with_workers(dfs.clone(), scenario.workers);
    engine.faults = scenario.fault_seed.map(plan_of);
    let wf = engine
        .try_run_workflow(jobs)
        .expect("probabilistic fault plans never exhaust the recovery budget");
    let blocks: Vec<Vec<u8>> = dfs
        .peek("out")
        .expect("workflow output")
        .blocks
        .iter()
        .map(|b| b.as_ref().to_vec())
        .collect();
    (wf, blocks)
}

/// `n` seeded words of `len` letters drawn from the first `letters` of the
/// alphabet, in splits of `split_bytes`.
fn words(
    seed: u64,
    n: usize,
    len: std::ops::RangeInclusive<usize>,
    letters: u8,
    split_bytes: usize,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = DatasetWriter::new(split_bytes);
    for _ in 0..n {
        let len = rng.gen_range(len.clone());
        let word: Vec<u8> = (0..len)
            .map(|_| b'a' + rng.gen_range(0u8..letters))
            .collect();
        w.push(&word);
    }
    w.finish()
}

/// The three-cycle [`workflow`] over 400 short words.
fn run(scenario: &Scenario, plan_of: PlanOf) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    run_jobs(
        scenario,
        plan_of,
        words(0x5EED, 400, 1..=4, 6, 64),
        &workflow(),
    )
}

/// Like [`run`], but the input is hand-assembled without per-block record
/// counts, so a doomed map attempt must count its split to find its kill
/// point.
fn run_uncounted(scenario: &Scenario, plan_of: PlanOf) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let mut input = words(0x5EED, 400, 1..=4, 6, 64);
    input.block_records.clear();
    run_jobs(scenario, plan_of, input, &workflow())
}

/// The committed (data-flow) portion of the metrics: everything the cost
/// of a *fault-free* run depends on. Attempt counters are deliberately
/// excluded — they are supposed to differ across scenarios.
fn committed_signature(wf: &WorkflowMetrics) -> Vec<String> {
    wf.jobs.iter().map(common::committed).collect()
}

/// A whole node lost on top of background failures and stragglers, with
/// speculation disabled.
fn node_loss_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        lost_node: Some((seed % 8) as usize),
        speculation: false,
        straggler_p: 0.2,
        ..FaultPlan::failures_only(seed, 0.3)
    }
}

/// Map attempts fail at a high rate, reduce attempts never; both kinds
/// straggle, with speculation.
fn map_chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        map_fail_p: 0.6,
        reduce_fail_p: 0.0,
        straggler_p: 0.4,
        speculation: true,
        ..FaultPlan::new(seed)
    }
}

/// Reduce attempts fail at a high rate, with stragglers and speculation.
fn reduce_chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        reduce_fail_p: 0.7,
        straggler_p: 0.3,
        speculation: true,
        ..FaultPlan::new(seed)
    }
}

chaos! {
    /// Output blocks and committed metrics are identical across the whole
    /// seed × worker grid under the aggressive chaotic preset.
    fn workflow_survives_chaotic_faults(scenario) {
        let (wf, blocks) = run(scenario, FaultPlan::chaotic);
        (committed_signature(&wf), blocks)
    }

    /// Same, under pure failures at a high rate (no stragglers).
    fn workflow_survives_pure_failures(scenario) {
        let (wf, blocks) = run(scenario, |seed| FaultPlan::failures_only(seed, 0.5));
        (committed_signature(&wf), blocks)
    }

    /// Same, losing a whole node on top of background failures, with
    /// speculation disabled.
    fn workflow_survives_node_loss_without_speculation(scenario) {
        let (wf, blocks) = run(scenario, node_loss_plan);
        (committed_signature(&wf), blocks)
    }

    /// Shard-parallel reduce merge under reduce-side chaos: a key-local
    /// reducer over a partition big enough to shard, with reduce attempts
    /// failing at a high rate — so doomed attempts (serial full-partition
    /// merges) and committed shard merges interleave on the pool. Recovery
    /// must be byte-identical to the fault-free golden at every worker
    /// count and seed.
    fn sharded_reduce_survives_mid_merge_faults(scenario) {
        let (wf, blocks) = run_sharded(scenario, |seed| FaultPlan {
            map_fail_p: 0.05,
            ..reduce_chaos_plan(seed)
        });
        (committed_signature(&wf), blocks)
    }

    /// Read-path corruption only: DFS block reads and shuffle spill runs
    /// flip bits at a high rate, but with checksums on (the default) every
    /// corruption is detected and quarantined — the committed output must
    /// be bit-identical to the fault-free golden, with zero silent
    /// corruptions, at every seed and worker count.
    fn workflow_survives_read_corruption(scenario) {
        let (wf, blocks) = run(scenario, FaultPlan::corrupting);
        assert_eq!(
            wf.total(|j| j.silent_corruptions), 0,
            "[{}] corruption slipped past the checksum gate", scenario.label()
        );
        (committed_signature(&wf), blocks)
    }

    /// Sorted-run merge under map-side chaos only: a shuffle-heavy job
    /// (several emitted pairs per record, runs overlapping on every key)
    /// where map attempts fail or straggle but reduce tasks never do.
    /// Killed map attempts re-emit into fresh arenas; the committed runs —
    /// and therefore the merged reduce input — must be bit-identical to the
    /// fault-free golden.
    fn run_merge_survives_map_failures_and_stragglers(scenario) {
        let (wf, blocks) = run_fanout(scenario, map_chaos_plan);
        (committed_signature(&wf), blocks)
    }
}

/// Like [`run`], but over the shuffle-heavy [`FanoutMap`] workflow: a
/// combined fan-out count followed by a regrouping cycle, 7 then 2
/// reducers so partitions see many runs each.
fn run_fanout(scenario: &Scenario, plan_of: PlanOf) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let jobs = vec![
        JobBuilder::new("fanout")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| FanoutMap)))
            .combiner(Arc::new(FnReduceFactory(|| Sum { to_output: false })))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("counts")
            .num_reducers(7)
            .build(),
        JobBuilder::new("regroup")
            .input("counts")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("out")
            .num_reducers(2)
            .build(),
    ];
    run_jobs(scenario, plan_of, words(0xFA57, 300, 1..=5, 4, 48), &jobs)
}

/// Bigram counter: emits a 2-byte key per adjacent byte pair — a wider key
/// space than [`FanoutMap`], so [`rapida_mapred::plan_shards`] has real cut
/// points to work with.
struct BigramMap;
impl MapTask for BigramMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        for w in record.windows(2) {
            out.emit(w, &1u32.to_le_bytes());
        }
    }
}

/// Like [`run`], but a single-cycle bigram count sized past the engine's
/// shard floor (≥ 4096 records per partition), with the reducer declared
/// key-local so committed merges genuinely shard.
fn run_sharded(scenario: &Scenario, plan_of: PlanOf) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let jobs = vec![JobBuilder::new("bigrams")
        .input("in")
        .mapper(Arc::new(FnMapFactory(|| BigramMap)))
        .reducer(Arc::new(KeyLocal(FnReduceFactory(|| Sum {
            to_output: true,
        }))))
        .output("out")
        .num_reducers(2)
        .build()];
    run_jobs(
        scenario,
        plan_of,
        words(0xB16, 2500, 4..=9, 12, 2048),
        &jobs,
    )
}

/// The attempt ledger by value. Every scenario runner × five fault plans ×
/// seeds 1–4 × {1, 4} workers must reproduce
/// `tests/snapshots/fault_ledger_golden.txt`: every counter of every
/// committed job (the shared [`common::signature`] — attempts, failures,
/// node loss, stragglers, speculation, waste, backoff, integrity) plus the
/// workflow recovery ledger. `RAPIDA_UPDATE_SNAPSHOTS=1` rewrites the file;
/// do that only for a change meant to move the ledger.
#[test]
fn fault_ledger_matches_the_golden() {
    let runners: [(&str, Runner); 4] = [
        ("words", run),
        ("uncounted", run_uncounted),
        ("fanout", run_fanout),
        ("sharded", run_sharded),
    ];
    let plans: [(&str, PlanOf); 5] = [
        ("chaotic", FaultPlan::chaotic),
        ("failures_only_0.5", |seed| {
            FaultPlan::failures_only(seed, 0.5)
        }),
        ("node_loss", node_loss_plan),
        ("map_chaos", map_chaos_plan),
        ("corrupting", FaultPlan::corrupting),
    ];
    let mut got = String::new();
    for (runner_name, runner) in runners {
        for (plan_name, plan_of) in plans {
            for seed in 1..=4u64 {
                for workers in [1usize, 4] {
                    let scenario = Scenario {
                        fault_seed: Some(seed),
                        workers,
                    };
                    let (wf, _) = runner(&scenario, plan_of);
                    got.push_str(&format!(
                        "{runner_name} {plan_name} seed={seed} workers={workers}\n"
                    ));
                    for m in &wf.jobs {
                        got.push_str(&format!("  {}\n", common::signature(m)));
                    }
                    got.push_str(&format!("  {:?}\n", wf.recovery));
                }
            }
        }
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/fault_ledger_golden.txt");
    if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
    }
    let pinned = std::fs::read_to_string(&path)
        .expect("tests/snapshots/fault_ledger_golden.txt is committed");
    assert_eq!(
        got, pinned,
        "the attempt ledger diverged from the pinned golden"
    );
}

/// Under reduce-side chaos the entire attempt ledger — including wasted
/// output bytes, which are *measured during execution* — must be identical
/// at every worker count, because doomed and superseded attempts always run
/// the serial full-partition merge regardless of how committed merges shard.
#[test]
fn sharded_reduce_ledger_is_worker_count_independent() {
    let cfg = ChaosConfig::from_env();
    for seed in &cfg.seeds {
        let ledgers: Vec<Vec<String>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&workers| {
                let s = Scenario {
                    fault_seed: Some(*seed),
                    workers,
                };
                let (wf, _) = run_sharded(&s, reduce_chaos_plan);
                wf.jobs.iter().map(common::ledger).collect()
            })
            .collect();
        for l in &ledgers[1..] {
            assert_eq!(
                l, &ledgers[0],
                "seed {seed:#x}: fault ledger drifted with worker count"
            );
        }
        let extra: u64 = {
            let s = Scenario {
                fault_seed: Some(*seed),
                workers: 8,
            };
            let (wf, _) = run_sharded(&s, reduce_chaos_plan);
            assert_eq!(
                wf.jobs.iter().map(|j| j.extra_attempts()).sum::<u64>(),
                wf.total(|j| j.failed_attempts + j.speculative_attempts),
                "seed {seed:#x}: attempt ledger must balance"
            );
            wf.total(|j| j.failed_attempts + j.speculative_attempts)
        };
        assert!(extra > 0, "seed {seed:#x}: reduce chaos injected nothing");
    }
}

/// The integrity ledger — corrupt blocks/spills detected, bytes re-read
/// from replicas, malformed records skipped — must be identical at every
/// worker count: block corruption is decided during the serial split
/// gather, spill corruption in a serial verify-on-commit pass, and record
/// skips only on committed attempts. The sweep as a whole must actually
/// detect something, and nothing may slip through silently.
#[test]
fn corruption_ledger_is_worker_count_independent_and_detects() {
    let cfg = ChaosConfig::from_env();
    for seed in &cfg.seeds {
        let ledgers: Vec<Vec<(u64, u64, u64, u64)>> = [1usize, 2, 4, 8]
            .iter()
            .map(|&workers| {
                let s = Scenario {
                    fault_seed: Some(*seed),
                    workers,
                };
                let (wf, _) = run(&s, FaultPlan::corrupting);
                assert_eq!(
                    wf.total(|j| j.silent_corruptions),
                    0,
                    "seed {seed:#x}/{workers}w: silent corruption under checksums"
                );
                wf.jobs
                    .iter()
                    .map(|j| {
                        (
                            j.corrupt_blocks_detected,
                            j.corrupt_spills_detected,
                            j.integrity_reread_bytes,
                            j.corrupt_records_skipped,
                        )
                    })
                    .collect()
            })
            .collect();
        for l in &ledgers[1..] {
            assert_eq!(
                l, &ledgers[0],
                "seed {seed:#x}: integrity ledger drifted with worker count"
            );
        }
        let detected: u64 = ledgers[0]
            .iter()
            .map(|(blocks, spills, _, _)| blocks + spills)
            .sum();
        assert!(
            detected > 0,
            "seed {seed:#x}: corrupting plan injected nothing"
        );
    }
}

/// Faulted runs must report the chaos they absorbed — retries and/or
/// speculative attempts — and the cost model must charge for it.
#[test]
fn faulted_runs_ledger_attempts_and_cost_more() {
    let model = ClusterModel::nodes10();
    let cfg = ChaosConfig::from_env();
    let clean = Scenario {
        fault_seed: None,
        workers: 4,
    };
    let (clean_wf, _) = run(&clean, FaultPlan::chaotic);
    assert_eq!(clean_wf.total(|j| j.failed_attempts), 0);
    assert_eq!(clean_wf.total(|j| j.speculative_attempts), 0);
    assert_eq!(
        clean_wf.total(JobMetrics::task_attempts),
        clean_wf
            .jobs
            .iter()
            .map(|j| (j.map_tasks + j.reduce_tasks) as u64)
            .sum::<u64>()
    );
    let clean_cost = model.workflow_time(&clean_wf);

    for seed in &cfg.seeds {
        let s = Scenario {
            fault_seed: Some(*seed),
            workers: 4,
        };
        let (wf, _) = run(&s, FaultPlan::chaotic);
        let extra: u64 = wf.jobs.iter().map(|j| j.extra_attempts()).sum();
        assert!(
            wf.total(|j| j.failed_attempts + j.speculative_attempts) > 0,
            "seed {seed:#x}: chaotic plan injected nothing"
        );
        assert_eq!(
            extra,
            wf.total(|j| j.failed_attempts + j.speculative_attempts),
            "attempt ledger must balance"
        );
        assert!(
            model.workflow_time(&wf) > clean_cost,
            "seed {seed:#x}: faulted cost not above fault-free cost"
        );
    }
}

/// The chaos sweep macro re-exported path works (`rapida_testkit::chaos`
/// as both module and macro) — compile-time check via an explicit call.
#[test]
fn sweep_callable_directly() {
    chaos::sweep("direct", &ChaosConfig::with_seed_count(1), |s| {
        let (wf, blocks) = run(s, FaultPlan::chaotic);
        (committed_signature(&wf), blocks)
    });
}
