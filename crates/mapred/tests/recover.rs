//! Workflow checkpoint/recovery tests: losing a job mid-workflow must
//! resume from the last fully-committed checkpoint (not job 0), recompute
//! strictly less than a full restart, keep the output byte-identical, and
//! ledger every replay deterministically. Exhausting the retry budget must
//! degrade to a typed [`WorkflowError`] carrying partial metrics.

use rapida_mapred::{
    backoff_s, ClusterModel, DatasetWriter, Engine, FaultPlan, FnMapFactory, FnReduceFactory,
    InputSrc, JobBuilder, JobDeadline, MapOutput, MapTask, ReduceOutput, ReduceTask,
    ResiliencePolicy, SimDfs, WorkflowError, WorkflowMetrics,
};
use rapida_testkit::rng::StdRng;
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

/// Three-cycle workflow (filter → combined word count → regroup); the
/// late job is the recovery target so checkpoint resume has two committed
/// upstream jobs to skip.
fn workflow() -> Vec<rapida_mapred::Job> {
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

fn run(
    faults: Option<FaultPlan>,
    policy: ResiliencePolicy,
) -> (Result<WorkflowMetrics, WorkflowError>, Vec<Vec<u8>>) {
    let dfs = SimDfs::new();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut w = DatasetWriter::new(64);
    for _ in 0..400 {
        let len = rng.gen_range(1usize..=4);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0u8..6)) as char)
            .collect();
        w.push(word.as_bytes());
    }
    dfs.put("in", w.finish());
    let mut engine = Engine::with_workers(dfs.clone(), 4).with_resilience(policy);
    engine.faults = faults;
    let res = engine.try_run_workflow(&workflow());
    let blocks: Vec<Vec<u8>> = dfs
        .peek("out")
        .map(|ds| ds.blocks.iter().map(|b| b.as_ref().to_vec()).collect())
        .unwrap_or_default();
    (res, blocks)
}

/// Kill the late job (index 2) exactly once.
fn kill_late_job() -> FaultPlan {
    FaultPlan {
        abort_job: Some((2, 1)),
        ..FaultPlan::new(0)
    }
}

/// Checkpoint resume after a late-job loss: the two committed upstream
/// jobs are verified and skipped, only the lost job replays, and the
/// output is byte-identical to the undisturbed run.
#[test]
fn checkpoint_resume_replays_only_the_lost_job() {
    let (clean, golden) = run(None, ResiliencePolicy::default());
    let clean = clean.expect("clean run");
    assert!(clean.recovery.is_clean());

    let (wf, blocks) = run(Some(kill_late_job()), ResiliencePolicy::default());
    let wf = wf.expect("recovery within budget");
    assert_eq!(blocks, golden, "checkpoint resume changed the output bytes");
    let r = &wf.recovery;
    assert_eq!(r.workflow_restarts, 1);
    assert_eq!(r.aborted_job_attempts, 1);
    assert_eq!(r.checkpoint_jobs_skipped, 2, "both upstream checkpoints skip");
    assert_eq!(r.jobs_replayed, 1, "only the lost job replays");
    assert!(r.checkpoint_bytes_read > 0);
    assert!(r.recomputed_bytes > 0);
    assert!(r.wasted_bytes > 0, "the aborted attempt's work is charged");
    assert!(r.wasted_task_attempts > 0);
    assert_eq!(r.recovery_backoff_s, backoff_s(0));
    // Committed metrics are those of the final (successful) runs only.
    assert_eq!(wf.jobs.len(), 3);
}

/// The same loss without checkpointing replays the whole DAG: every job
/// reruns, nothing is skipped, and the recomputed bytes are at least 2×
/// the checkpoint-resume figure — the margin that
/// `crates/bench/tests/floors.rs` asserts on MG1.
#[test]
fn full_restart_recomputes_at_least_twice_as_much() {
    let model = ClusterModel::nodes10();
    let (_, golden) = run(None, ResiliencePolicy::default());

    let (ckpt, ckpt_blocks) = run(Some(kill_late_job()), ResiliencePolicy::default());
    let ckpt = ckpt.expect("checkpoint-mode recovery");
    let restart_policy = ResiliencePolicy {
        checkpointing: false,
        ..ResiliencePolicy::default()
    };
    let (restart, restart_blocks) = run(Some(kill_late_job()), restart_policy);
    let restart = restart.expect("restart-mode recovery");

    assert_eq!(ckpt_blocks, golden);
    assert_eq!(restart_blocks, golden, "full restart changed the output bytes");
    assert_eq!(restart.recovery.checkpoint_jobs_skipped, 0);
    assert_eq!(restart.recovery.jobs_replayed, 3, "the whole DAG replays");
    assert!(
        restart.recovery.recomputed_bytes >= 2 * ckpt.recovery.recomputed_bytes,
        "restart recomputed {} B, checkpoint resume {} B — expected ≥ 2×",
        restart.recovery.recomputed_bytes,
        ckpt.recovery.recomputed_bytes
    );
    assert!(
        model.workflow_time(&restart) > model.workflow_time(&ckpt),
        "the cost model must charge full restart more than checkpoint resume"
    );
}

/// Exhausting the workflow retry budget returns the typed error with the
/// partial metrics — committed upstream jobs and the full recovery ledger
/// — instead of panicking.
#[test]
fn exhausted_retry_budget_degrades_gracefully() {
    let plan = FaultPlan {
        abort_job: Some((1, 99)),
        ..FaultPlan::new(0)
    };
    let policy = ResiliencePolicy {
        workflow_attempts: 3,
        ..ResiliencePolicy::default()
    };
    let (res, _) = run(Some(plan), policy);
    let err = res.expect_err("budget of 3 cannot absorb 99 kills");
    match &err {
        WorkflowError::RetryBudgetExhausted {
            job,
            job_index,
            attempts,
            partial,
        } => {
            assert_eq!(job, "wc");
            assert_eq!(*job_index, 1);
            assert_eq!(*attempts, 3);
            assert_eq!(partial.jobs.len(), 1, "only the filter job committed");
            assert_eq!(partial.recovery.aborted_job_attempts, 3);
            assert_eq!(partial.recovery.workflow_restarts, 2);
            assert_eq!(partial.recovery.jobs_replayed, 2);
        }
        other => panic!("expected RetryBudgetExhausted, got {other}"),
    }
    assert_eq!(err.job(), "wc");
    assert_eq!(err.partial().jobs.len(), 1);
    assert!(err.to_string().contains("retry budget"));
}

/// Deadline timeout-kills escalate the per-job limit until the job clears
/// it; the workflow completes with the kills ledgered and byte-identical
/// output.
#[test]
fn deadline_kills_escalate_until_the_job_clears() {
    let (_, golden) = run(None, ResiliencePolicy::default());
    let policy = ResiliencePolicy {
        deadline: Some(JobDeadline {
            model: ClusterModel::nodes10(),
            limit_s: 1.0,
            escalation: 4.0,
        }),
        workflow_attempts: 16,
        ..ResiliencePolicy::default()
    };
    let (wf, blocks) = run(None, policy);
    let wf = wf.expect("escalation must eventually clear the deadline");
    assert_eq!(blocks, golden, "deadline recovery changed the output bytes");
    let r = &wf.recovery;
    assert!(r.timeout_kills > 0, "a 1 s limit must kill these jobs at least once");
    assert_eq!(r.deadline_escalations, r.timeout_kills);
    assert_eq!(r.aborted_job_attempts, 0, "no fault plan attached");
    assert_eq!(wf.jobs.len(), 3);
}

/// A deadline that never escalates exhausts the budget on the first job
/// and reports the limit that was in force.
#[test]
fn unescalated_deadline_exhausts_the_budget() {
    let policy = ResiliencePolicy {
        deadline: Some(JobDeadline {
            model: ClusterModel::nodes10(),
            limit_s: 0.5,
            escalation: 1.0,
        }),
        workflow_attempts: 2,
        ..ResiliencePolicy::default()
    };
    let (res, _) = run(None, policy);
    match res.expect_err("a fixed sub-second deadline cannot be met") {
        WorkflowError::DeadlineExhausted {
            job,
            job_index,
            limit_s,
            partial,
        } => {
            assert_eq!(job, "filter");
            assert_eq!(job_index, 0);
            assert_eq!(limit_s, 0.5, "escalation 1.0 must leave the limit unchanged");
            assert!(partial.jobs.is_empty(), "nothing committed");
            assert_eq!(partial.recovery.timeout_kills, 2);
        }
        other => panic!("expected DeadlineExhausted, got {other}"),
    }
}
