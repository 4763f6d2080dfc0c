//! Deterministic cost-model unit tests backing the plan enumerator: the
//! orderings the chooser relies on must hold exactly — more shuffled bytes,
//! more records, and more cycles each cost strictly more, and the paper's
//! cluster presets (nodes10 / nodes50 / nodes60) rank as expected on jobs
//! big enough to saturate the smaller cluster.

use rapida_mapred::{ClusterModel, JobMetrics, WorkflowMetrics};

/// A mid-size full MR job; knobs for the dimension under test.
fn job() -> JobMetrics {
    JobMetrics {
        name: "j".into(),
        map_only: false,
        map_tasks: 16,
        reduce_tasks: 8,
        input_bytes: 64 << 20,
        input_records: 1_000_000,
        map_output_records: 1_000_000,
        map_output_bytes: 32 << 20,
        shuffle_records: 1_000_000,
        shuffle_bytes: 32 << 20,
        output_records: 100_000,
        output_bytes: 4 << 20,
        ..Default::default()
    }
}

#[test]
fn strictly_monotone_in_shuffle_bytes() {
    let model = ClusterModel::nodes10();
    let mut prev = f64::NEG_INFINITY;
    for mb in [1u64, 8, 64, 256, 1024] {
        let mut j = job();
        j.shuffle_bytes = mb << 20;
        j.map_output_bytes = mb << 20;
        let t = model.job_time(&j);
        assert!(
            t > prev,
            "job_time must strictly increase with shuffle bytes ({mb} MiB: {t:.3}s <= {prev:.3}s)"
        );
        prev = t;
    }
}

#[test]
fn strictly_monotone_in_record_counts() {
    let model = ClusterModel::nodes10();
    let mut prev = f64::NEG_INFINITY;
    for n in [10_000u64, 100_000, 1_000_000, 10_000_000, 100_000_000] {
        let mut j = job();
        j.input_records = n;
        j.map_output_records = n;
        j.shuffle_records = n;
        let t = model.job_time(&j);
        assert!(
            t > prev,
            "job_time must strictly increase with record counts ({n} recs: {t:.3}s <= {prev:.3}s)"
        );
        prev = t;
    }
}

#[test]
fn strictly_monotone_in_input_bytes() {
    let model = ClusterModel::nodes10();
    let mut prev = f64::NEG_INFINITY;
    for mb in [1u64, 16, 128, 512, 2048] {
        let mut j = job();
        j.input_bytes = mb << 20;
        let t = model.job_time(&j);
        assert!(t > prev, "job_time must strictly increase with input bytes");
        prev = t;
    }
}

/// Every extra MR cycle pays at least the full job startup — the term that
/// makes the paper's cycle-count reduction the dominant optimization.
#[test]
fn workflow_time_monotone_in_cycle_count() {
    let model = ClusterModel::nodes10();
    let mut prev = 0.0;
    for cycles in 1..=8 {
        let wf = WorkflowMetrics {
            jobs: (0..cycles).map(|_| job()).collect(),
            ..Default::default()
        };
        let t = model.workflow_time(&wf);
        assert!(
            t >= prev + model.job_startup_s,
            "cycle {cycles} must add at least startup ({:.1}s): {t:.3}s vs {prev:.3}s",
            model.job_startup_s
        );
        prev = t;
    }
}

/// The paper's three cluster presets rank 10 > 50 > 60 (slower to faster)
/// on a job large enough to fill every cluster's slots.
#[test]
fn cluster_presets_rank_on_saturating_jobs() {
    let big = JobMetrics {
        name: "big".into(),
        map_only: false,
        map_tasks: 600,
        reduce_tasks: 200,
        input_bytes: 8 << 30,
        input_records: 100_000_000,
        map_output_records: 100_000_000,
        map_output_bytes: 4 << 30,
        shuffle_records: 100_000_000,
        shuffle_bytes: 4 << 30,
        output_records: 10_000_000,
        output_bytes: 1 << 30,
        ..Default::default()
    };
    let t10 = ClusterModel::nodes10().job_time(&big);
    let t50 = ClusterModel::nodes50().job_time(&big);
    let t60 = ClusterModel::nodes60().job_time(&big);
    assert!(
        t10 > t50 && t50 > t60,
        "expected nodes10 ({t10:.1}s) > nodes50 ({t50:.1}s) > nodes60 ({t60:.1}s)"
    );
}

/// On a tiny job the presets converge: startup dominates and extra nodes
/// cannot help, so the enumerator's choice is scale-aware, not node-aware.
#[test]
fn presets_converge_on_startup_bound_jobs() {
    let tiny = JobMetrics {
        name: "tiny".into(),
        map_only: false,
        map_tasks: 1,
        reduce_tasks: 1,
        input_bytes: 4 << 10,
        input_records: 100,
        map_output_records: 100,
        map_output_bytes: 2 << 10,
        shuffle_records: 100,
        shuffle_bytes: 2 << 10,
        output_records: 10,
        output_bytes: 512,
        ..Default::default()
    };
    let t10 = ClusterModel::nodes10().job_time(&tiny);
    let t60 = ClusterModel::nodes60().job_time(&tiny);
    assert!((t10 - t60).abs() < 0.5, "tiny jobs are startup-bound on any cluster");
}

/// Map-only cycles skip shuffle and reduce entirely; converting a full
/// cycle to map-only (the map-join rewrite) must always pay off on equal
/// data volumes.
#[test]
fn map_only_conversion_always_pays_on_equal_volumes() {
    let model = ClusterModel::nodes10();
    for mb in [1u64, 32, 256] {
        let mut full = job();
        full.shuffle_bytes = mb << 20;
        full.map_output_bytes = mb << 20;
        let mut mo = full.clone();
        mo.map_only = true;
        mo.shuffle_bytes = 0;
        mo.shuffle_records = 0;
        mo.reduce_tasks = 0;
        assert!(
            model.job_time(&mo) < model.job_time(&full),
            "map-only must be cheaper at {mb} MiB"
        );
    }
}

// ---------------------------------------------------------------------------
// The dry-run pruning bound: `job_time_floor` must never exceed `job_time`,
// whatever the job measured — the enumerator skips a plan on it unseen.
// ---------------------------------------------------------------------------

use rapida_mapred::RecoveryLedger;
use rapida_testkit::prelude::*;

/// Arbitrary metrics, degenerate ones included: zero tasks, empty inputs,
/// and every fault / integrity counter the model charges for.
fn arb_metrics() -> impl Strategy<Value = JobMetrics> {
    let shape = (any::<bool>(), 0usize..400, 0usize..80);
    let volume = (
        0u64..(1 << 32),
        0u64..(1 << 26),
        0u64..(1 << 30),
        0u64..(1 << 28),
    );
    let faults = (
        0u64..30,
        0u64..30,
        0u64..30,
        0u64..(1 << 20),
        0u64..(1 << 26),
        0.0f64..600.0,
    );
    (shape, volume, faults).prop_map(
        |(
            (map_only, map_tasks, reduce_tasks),
            (input_bytes, records, shuffle, out),
            (failed, speculative, stragglers, wasted_rec, wasted_bytes, backoff_s),
        )| JobMetrics {
            name: "j".into(),
            map_only,
            map_tasks,
            reduce_tasks,
            input_bytes,
            input_records: records,
            map_output_records: records,
            map_output_bytes: shuffle,
            shuffle_records: records,
            shuffle_bytes: shuffle,
            output_records: records / 2,
            output_bytes: out,
            map_attempts: map_tasks as u64 + failed + speculative,
            reduce_attempts: reduce_tasks as u64,
            failed_attempts: failed,
            speculative_attempts: speculative,
            straggler_tasks: stragglers,
            wasted_input_records: wasted_rec,
            wasted_output_bytes: wasted_bytes,
            integrity_reread_bytes: wasted_bytes / 2,
            backoff_s,
            ..Default::default()
        },
    )
}

proptest! {
    /// Per job and per workflow (recovery ledger included), on every preset:
    /// the floor is a lower bound, exactly — no epsilon.
    #[test]
    fn job_time_floor_is_admissible(
        jobs in proptest::collection::vec(arb_metrics(), 1..8),
        restarts in 0u64..4,
        recomputed in 0u64..(1 << 28),
        backoff in 0.0f64..120.0,
    ) {
        for model in [
            ClusterModel::nodes10(),
            ClusterModel::nodes50(),
            ClusterModel::nodes60(),
        ] {
            for j in &jobs {
                prop_assert!(model.job_time(j) >= model.job_time_floor(j.map_only));
            }
            let floor: f64 = jobs.iter().map(|j| model.job_time_floor(j.map_only)).sum();
            let wf = WorkflowMetrics {
                jobs: jobs.clone(),
                recovery: RecoveryLedger {
                    workflow_restarts: restarts,
                    aborted_job_attempts: restarts,
                    jobs_replayed: restarts,
                    recomputed_bytes: recomputed,
                    recovery_backoff_s: backoff,
                    ..Default::default()
                },
            };
            prop_assert!(model.workflow_time(&wf) >= floor);
        }
    }
}
