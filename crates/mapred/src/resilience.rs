//! The unified resilience policy: one place for every retry budget, backoff
//! schedule, deadline, and integrity switch the engine consults, replacing
//! the per-attempt constants that used to be scattered across the task path.
//!
//! Three layers of recovery compose here (see DESIGN.md §2f):
//!
//! 1. **Task attempts** — bounded retry with exponential backoff
//!    ([`backoff_s`]) and speculation, owned by [`crate::fault::FaultPlan`].
//! 2. **Data integrity** — checksummed DFS blocks and spill runs with a
//!    detect → quarantine → re-read-from-replica path ([`Self::checksums`]).
//! 3. **Workflow recovery** — job-granular checkpoint/resume after a job
//!    abort or deadline kill ([`Self::checkpointing`]), bounded by
//!    [`Self::workflow_attempts`]; exhaustion degrades gracefully to a typed
//!    [`WorkflowError`] carrying partial metrics instead of panicking.

use crate::cost::ClusterModel;
use crate::metrics::WorkflowMetrics;
use std::fmt;

/// Simulated delay before retry number `retry` (0-based) of a task attempt
/// or of a workflow-level recovery, seconds: deterministic exponential
/// backoff, `2 · 2^min(retry, 16)`.
///
/// The clamp bounds the exponent so the simulated delay saturates instead of
/// overflowing `f64` range on adversarial retry counts — the schedule tops
/// out at `2 · 65536` s, already hours of simulated wall clock; task
/// retries, bounded by [`crate::FaultPlan::MAX_ATTEMPTS`], never reach it
/// and see pure doubling. Hadoop's real backoff jitters; ours deliberately does
/// not, which is what keeps the waste ledger bit-identical across worker
/// counts and replays.
pub fn backoff_s(retry: usize) -> f64 {
    /// Exponent clamp: retry numbers at or beyond this reuse its delay.
    const CAP: u32 = 16;
    2.0 * 2f64.powi((retry as u32).min(CAP) as i32)
}

/// A per-job simulated deadline: after a job attempt completes, its modeled
/// cluster time is checked against the current limit; exceeding it counts as
/// a timeout-kill — the attempt's work is discarded, the limit escalates,
/// and the job re-runs on the workflow retry budget.
#[derive(Debug, Clone)]
pub struct JobDeadline {
    /// Cost model evaluating a job's simulated seconds.
    pub model: ClusterModel,
    /// Initial per-job limit, simulated seconds.
    pub limit_s: f64,
    /// Multiplier applied to a job's limit after each of its timeout-kills
    /// (clamped to ≥ 1.0). Escalation is what guarantees a deterministic
    /// simulator eventually clears its own deadline: re-runs take identical
    /// simulated time, so only a growing limit (or the budget running out)
    /// terminates the loop.
    pub escalation: f64,
}

impl JobDeadline {
    /// A deadline with the conventional doubling escalation.
    pub fn new(model: ClusterModel, limit_s: f64) -> Self {
        JobDeadline {
            model,
            limit_s,
            escalation: 2.0,
        }
    }
}

/// Engine-level resilience policy. All fields are public; construct with
/// struct-update syntax over [`ResiliencePolicy::default`].
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Verify block and spill checksums whenever a fault plan is attached,
    /// quarantining corrupt copies (blocks re-read from the next replica,
    /// spills re-fetched from the map output). Disabling this lets injected
    /// corruption flow through silently — the counterfactual the integrity
    /// tests use to prove detection is load-bearing.
    pub checksums: bool,
    /// Resume a recovering workflow from the last fully-committed job's
    /// checkpoint instead of job 0. Disabling forces full-workflow restart
    /// (the pre-checkpoint behavior the recovery bench baselines against).
    pub checkpointing: bool,
    /// Workflow-level retry budget: total job aborts + timeout-kills the
    /// workflow may absorb before giving up with a [`WorkflowError`].
    pub workflow_attempts: usize,
    /// Optional per-job simulated deadline with timeout-kill + escalation.
    pub deadline: Option<JobDeadline>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            checksums: true,
            checkpointing: true,
            workflow_attempts: 4,
            deadline: None,
        }
    }
}

/// Typed failure of a workflow that exhausted its recovery budget. Carries
/// the metrics accumulated so far (committed jobs + the recovery ledger) so
/// callers can report partial progress instead of losing the run.
#[derive(Debug, Clone)]
pub enum WorkflowError {
    /// The workflow-level retry budget ran out on a job abort.
    RetryBudgetExhausted {
        /// Name of the job whose abort exhausted the budget.
        job: String,
        /// Its index in the workflow.
        job_index: usize,
        /// The budget that was exhausted.
        attempts: usize,
        /// Metrics up to the failure: committed jobs + recovery ledger.
        partial: Box<WorkflowMetrics>,
    },
    /// The budget ran out on a deadline timeout-kill.
    DeadlineExhausted {
        /// Name of the job that kept missing its deadline.
        job: String,
        /// Its index in the workflow.
        job_index: usize,
        /// The limit (simulated seconds) in force at the final kill.
        limit_s: f64,
        /// Metrics up to the failure: committed jobs + recovery ledger.
        partial: Box<WorkflowMetrics>,
    },
}

impl WorkflowError {
    /// The partial metrics accumulated before the failure.
    pub fn partial(&self) -> &WorkflowMetrics {
        match self {
            WorkflowError::RetryBudgetExhausted { partial, .. } => partial,
            WorkflowError::DeadlineExhausted { partial, .. } => partial,
        }
    }

    /// Name of the job the workflow died on.
    pub fn job(&self) -> &str {
        match self {
            WorkflowError::RetryBudgetExhausted { job, .. } => job,
            WorkflowError::DeadlineExhausted { job, .. } => job,
        }
    }
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::RetryBudgetExhausted {
                job,
                job_index,
                attempts,
                partial,
            } => write!(
                f,
                "workflow retry budget ({attempts}) exhausted at job {job_index} ({job}); \
                 {} jobs committed",
                partial.jobs.len()
            ),
            WorkflowError::DeadlineExhausted {
                job,
                job_index,
                limit_s,
                partial,
            } => write!(
                f,
                "deadline ({limit_s:.1}s) exhausted the retry budget at job {job_index} ({job}); \
                 {} jobs committed",
                partial.jobs.len()
            ),
        }
    }
}

impl std::error::Error for WorkflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates_at_the_cap() {
        assert_eq!(backoff_s(0), 2.0);
        assert_eq!(backoff_s(1), 4.0);
        assert_eq!(backoff_s(10), 2.0 * 1024.0);
        // At and beyond the cap the delay is constant — no overflow, no NaN.
        assert_eq!(backoff_s(16), 2.0 * 65536.0);
        assert_eq!(backoff_s(17), backoff_s(16));
        assert_eq!(backoff_s(usize::MAX), backoff_s(16));
        assert!(backoff_s(usize::MAX).is_finite());
    }

    #[test]
    fn default_policy_is_safe() {
        let p = ResiliencePolicy::default();
        assert!(p.checksums);
        assert!(p.checkpointing);
        assert!(p.workflow_attempts >= 2);
        assert!(p.deadline.is_none());
    }

    #[test]
    fn workflow_error_exposes_partials() {
        let e = WorkflowError::RetryBudgetExhausted {
            job: "j3".into(),
            job_index: 3,
            attempts: 4,
            partial: Box::default(),
        };
        assert_eq!(e.job(), "j3");
        assert_eq!(e.partial().jobs.len(), 0);
        assert!(e.to_string().contains("retry budget"));
    }
}
