//! Deterministic fault injection for the MapReduce simulator.
//!
//! Hadoop's defining robustness features — per-task retry with backoff,
//! speculative re-execution of stragglers, and whole-node loss — are cost
//! events the paper's plan-quality argument implicitly relies on: every
//! extra MR cycle is another chance to pay for a failed or straggling task.
//! A [`FaultPlan`] makes those events first-class in the simulator while
//! keeping every run bit-for-bit reproducible.
//!
//! ## Determinism
//!
//! Fault decisions are a *pure function* of
//! `(plan seed, job name, task kind, task index, attempt number)` — derived
//! by hashing through the testkit's pinned SplitMix64 mixer — never of
//! worker threads, scheduling order, or wall-clock time. Two consequences:
//!
//! 1. The same plan replays the same faults on every run, on any machine,
//!    at any worker count.
//! 2. Because injected failure probabilities are threshold comparisons
//!    against those fixed hashes, raising a probability only *adds* faults
//!    (every attempt that failed at `p` still fails at `p' > p`), which is
//!    what makes simulated cost monotone in the injected fault rate.
//!
//! ## Bounded retry
//!
//! Attempts per task are capped at [`FaultPlan::MAX_ATTEMPTS`] (Hadoop's
//! `mapred.map.max.attempts`, default 4). The plan never injects a failure
//! into a task's final allowed attempt, so recovery always terminates and
//! every chaos run completes with output identical to the fault-free run —
//! the simulator models the *cost* of failure, not job abortion.

use rapida_testkit::rng::splitmix64;

/// Which phase a task attempt belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A map task (one per input split).
    Map,
    /// A reduce task (one per non-empty partition).
    Reduce,
}

/// The injected outcome of one task attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The attempt runs to completion and commits.
    Success,
    /// The attempt is killed after processing `fraction` of its input
    /// (work wasted, retry follows after backoff). `node_loss` marks
    /// failures injected by a simulated whole-node loss.
    Fail {
        /// Fraction of the attempt's input processed before the kill, in
        /// `[0, 1)`.
        fraction: f64,
        /// Whether this failure models the task's node disappearing.
        node_loss: bool,
    },
    /// The attempt runs to completion, but late. With
    /// [`FaultPlan::speculation`] on, the engine launches a duplicate attempt
    /// that wins; otherwise the slow attempt commits and the cost model
    /// charges it a fixed [`crate::cost::ClusterModel::straggler_penalty_s`].
    Straggle,
}

/// A seedable, deterministic fault-injection plan.
///
/// All fields are public; construct with struct-update syntax over
/// [`FaultPlan::new`] or use the [`FaultPlan::chaotic`] preset the chaos
/// suite sweeps.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed deriving every fault decision.
    pub seed: u64,
    /// Per-attempt probability that a map attempt is killed mid-task.
    pub map_fail_p: f64,
    /// Per-attempt probability that a reduce attempt is killed mid-task.
    pub reduce_fail_p: f64,
    /// Per-attempt probability that an attempt straggles.
    pub straggler_p: f64,
    /// Launch a speculative duplicate for stragglers (Hadoop's
    /// `mapred.map.tasks.speculative.execution`).
    pub speculation: bool,
    /// Number of simulated nodes tasks are placed on (round-robin by task
    /// index).
    pub nodes: usize,
    /// If set, the node with this id (mod [`FaultPlan::nodes`]) is lost:
    /// the first attempt of every task placed on it fails wholesale.
    pub lost_node: Option<usize>,
    /// Per-(block, replica) probability that reading a DFS block returns a
    /// silently bit-flipped copy (the corruption fault class). Applied on
    /// *read*; storage itself is never mutated, so a clean replica always
    /// exists.
    pub block_corrupt_p: f64,
    /// Per-(task, partition) probability that a map task's spill run for a
    /// partition arrives at the reducer bit-flipped.
    pub spill_corrupt_p: f64,
    /// Per-(job, recovery-attempt) probability that a whole job attempt is
    /// lost at commit time (driver/JobTracker node loss) and must be
    /// recovered at the workflow level. Never fires on the workflow's final
    /// allowed attempt, so probabilistic chaos runs always complete.
    pub job_abort_p: f64,
    /// Deterministic job kill: abort job `index` on its first `kills`
    /// workflow-level attempts — unlike [`Self::job_abort_p`] this is *not*
    /// suppressed on the final allowed attempt, so it can drive a workflow
    /// into its typed [`crate::resilience::WorkflowError`] on purpose.
    pub abort_job: Option<(usize, usize)>,
}

impl FaultPlan {
    /// Maximum attempts per task; the last attempt always succeeds. Retries
    /// wait [`crate::resilience::backoff_s`].
    pub const MAX_ATTEMPTS: usize = 4;

    /// Simulated replica count for DFS blocks. Corruption is decided per
    /// replica, and the last replica is never corrupted — the storage-side
    /// mirror of "the final attempt never fails", so integrity recovery
    /// always terminates.
    pub const REPLICAS: usize = 3;

    /// A quiet plan: no faults at all (useful as a baseline carrier).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            map_fail_p: 0.0,
            reduce_fail_p: 0.0,
            straggler_p: 0.0,
            speculation: true,
            nodes: 8,
            lost_node: None,
            block_corrupt_p: 0.0,
            spill_corrupt_p: 0.0,
            job_abort_p: 0.0,
            abort_job: None,
        }
    }

    /// The aggressive preset the chaos suite sweeps: frequent task kills
    /// and stragglers with speculation on, plus read-path corruption of
    /// blocks and spill runs and occasional whole-job aborts.
    pub fn chaotic(seed: u64) -> Self {
        FaultPlan {
            map_fail_p: 0.35,
            reduce_fail_p: 0.35,
            straggler_p: 0.25,
            block_corrupt_p: 0.3,
            spill_corrupt_p: 0.25,
            job_abort_p: 0.15,
            ..FaultPlan::new(seed)
        }
    }

    /// Corruption only — bit flips on block and spill reads, nothing else.
    /// The preset the integrity suite sweeps: with checksums on the output
    /// must be byte-identical to fault-free; with checksums off it must
    /// diverge.
    pub fn corrupting(seed: u64) -> Self {
        FaultPlan {
            block_corrupt_p: 0.5,
            spill_corrupt_p: 0.5,
            ..FaultPlan::new(seed)
        }
    }

    /// Failures only, no stragglers, probability `p` — the shape whose
    /// simulated cost is provably monotone in `p` (see module docs).
    pub fn failures_only(seed: u64, p: f64) -> Self {
        FaultPlan {
            map_fail_p: p,
            reduce_fail_p: p,
            ..FaultPlan::new(seed)
        }
    }

    /// The pinned per-decision hash: a pure function of the plan seed and
    /// the attempt's coordinates. `salt` separates independent draws for
    /// the same attempt (fail? / fail fraction / straggle?).
    fn hash(&self, job: &str, kind: TaskKind, task: usize, attempt: usize, salt: u64) -> u64 {
        let mut state = self.seed ^ 0x9d89_0e4a_11c9_b3f7;
        for &b in job.as_bytes() {
            state ^= u64::from(b);
            state = splitmix64(&mut state);
        }
        state ^= match kind {
            TaskKind::Map => 0x006d_6170,
            TaskKind::Reduce => 0x0072_6564,
        };
        let _ = splitmix64(&mut state);
        state ^= (task as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let _ = splitmix64(&mut state);
        state ^= (attempt as u64) << 32 | salt;
        splitmix64(&mut state)
    }

    /// Map a hash to a uniform `f64` in `[0, 1)` (top 53 bits, same
    /// construction as `StdRng::unit_f64`).
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The simulated node a task is placed on.
    pub fn node_of(&self, task: usize) -> usize {
        task % self.nodes.max(1)
    }

    /// Decide the outcome of attempt `attempt` of task `task` — pure,
    /// order-independent, identical on every replay.
    pub fn decide(&self, job: &str, kind: TaskKind, task: usize, attempt: usize) -> Outcome {
        let final_attempt = attempt + 1 >= Self::MAX_ATTEMPTS;
        if !final_attempt {
            // Whole-node loss: every task placed on the lost node dies on
            // its first attempt, wholesale (fraction ~1: the node took the
            // attempt's full progress with it).
            if attempt == 0 {
                if let Some(node) = self.lost_node {
                    if self.node_of(task) == node % self.nodes.max(1) {
                        return Outcome::Fail {
                            fraction: 1.0 - f64::EPSILON,
                            node_loss: true,
                        };
                    }
                }
            }
            let fail_p = match kind {
                TaskKind::Map => self.map_fail_p,
                TaskKind::Reduce => self.reduce_fail_p,
            };
            if Self::unit(self.hash(job, kind, task, attempt, 1)) < fail_p {
                return Outcome::Fail {
                    fraction: Self::unit(self.hash(job, kind, task, attempt, 2)),
                    node_loss: false,
                };
            }
        }
        if Self::unit(self.hash(job, kind, task, attempt, 3)) < self.straggler_p {
            return Outcome::Straggle;
        }
        Outcome::Success
    }

    /// The pinned hash for non-task fault domains (blocks, spills, job
    /// aborts): a pure function of the plan seed, a domain constant, a name,
    /// and two coordinates — same mixer discipline as [`Self::hash`].
    fn hash_domain(&self, domain: u64, name: &str, a: u64, b: u64) -> u64 {
        let mut state = self.seed ^ domain ^ 0x9d89_0e4a_11c9_b3f7;
        for &byte in name.as_bytes() {
            state ^= u64::from(byte);
            state = splitmix64(&mut state);
        }
        state ^= a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let _ = splitmix64(&mut state);
        state ^= (b << 32) | domain;
        splitmix64(&mut state)
    }

    /// Decide whether reading replica `replica` of block `block` of dataset
    /// `dataset` returns a corrupted copy; `Some(h)` carries the hash that
    /// picks the flipped bit. The last replica is never corrupted (see
    /// [`Self::REPLICAS`]), so a verify-and-re-read loop always terminates
    /// on clean bytes.
    pub fn corrupt_block(&self, dataset: &str, block: usize, replica: usize) -> Option<u64> {
        if replica + 1 >= Self::REPLICAS {
            return None;
        }
        let h = self.hash_domain(0xb10c, dataset, block as u64, replica as u64);
        if Self::unit(h) < self.block_corrupt_p {
            Some(self.hash_domain(0xb117, dataset, block as u64, replica as u64))
        } else {
            None
        }
    }

    /// Decide whether map task `task`'s spill run for reduce partition
    /// `partition` arrives corrupted; `Some(h)` carries the bit-pick hash.
    pub fn corrupt_spill(&self, job: &str, task: usize, partition: usize) -> Option<u64> {
        let h = self.hash_domain(0x5b11, job, task as u64, partition as u64);
        if Self::unit(h) < self.spill_corrupt_p {
            Some(self.hash_domain(0x5b17, job, task as u64, partition as u64))
        } else {
            None
        }
    }

    /// Decide whether job `index` (`job` names it) is lost wholesale on
    /// workflow-level recovery attempt `recovery`. The probabilistic path is
    /// suppressed when `final_attempt` is set (the workflow's last allowed
    /// attempt always commits); the explicit [`Self::abort_job`] kill is
    /// not, so tests and benches can exhaust the budget deliberately.
    pub fn decide_job_abort(
        &self,
        job: &str,
        index: usize,
        recovery: usize,
        final_attempt: bool,
    ) -> bool {
        if let Some((target, kills)) = self.abort_job {
            return index == target && recovery < kills;
        }
        if final_attempt {
            return false;
        }
        Self::unit(self.hash_domain(0xab07, job, index as u64, recovery as u64)) < self.job_abort_p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::backoff_s;

    #[test]
    fn decisions_are_pure() {
        let plan = FaultPlan::chaotic(42);
        for task in 0..32 {
            for attempt in 0..4 {
                for kind in [TaskKind::Map, TaskKind::Reduce] {
                    assert_eq!(
                        plan.decide("j", kind, task, attempt),
                        plan.decide("j", kind, task, attempt),
                    );
                }
            }
        }
    }

    #[test]
    fn decisions_vary_with_coordinates() {
        let plan = FaultPlan::chaotic(7);
        // Over many tasks, at chaotic probabilities, all three outcome
        // kinds must appear — and differ across job names.
        let mut fails = 0;
        let mut straggles = 0;
        let mut diffs = 0;
        for task in 0..200 {
            match plan.decide("a", TaskKind::Map, task, 0) {
                Outcome::Fail { .. } => fails += 1,
                Outcome::Straggle => straggles += 1,
                Outcome::Success => {}
            }
            if plan.decide("a", TaskKind::Map, task, 0) != plan.decide("b", TaskKind::Map, task, 0)
            {
                diffs += 1;
            }
        }
        assert!(fails > 20, "expected ~35% failures, got {fails}/200");
        assert!(straggles > 10, "expected stragglers, got {straggles}/200");
        assert!(diffs > 50, "decisions must depend on the job name");
    }

    #[test]
    fn final_attempt_never_fails() {
        let plan = FaultPlan {
            map_fail_p: 1.0,
            reduce_fail_p: 1.0,
            lost_node: Some(0),
            ..FaultPlan::new(0)
        };
        for task in 0..16 {
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                // Attempts 0..max-1 all fail at p=1; the last may not.
                for attempt in 0..FaultPlan::MAX_ATTEMPTS - 1 {
                    assert!(matches!(
                        plan.decide("j", kind, task, attempt),
                        Outcome::Fail { .. }
                    ));
                }
                assert!(!matches!(
                    plan.decide("j", kind, task, FaultPlan::MAX_ATTEMPTS - 1),
                    Outcome::Fail { .. }
                ));
            }
        }
    }

    #[test]
    fn failure_set_is_monotone_in_probability() {
        // Raising the failure probability never un-fails an attempt: the
        // property simulated-cost monotonicity rests on.
        let lo = FaultPlan::failures_only(3, 0.2);
        let hi = FaultPlan::failures_only(3, 0.6);
        for task in 0..200 {
            for attempt in 0..3 {
                if matches!(
                    lo.decide("j", TaskKind::Map, task, attempt),
                    Outcome::Fail { .. }
                ) {
                    assert!(matches!(
                        hi.decide("j", TaskKind::Map, task, attempt),
                        Outcome::Fail { .. }
                    ));
                }
            }
        }
    }

    #[test]
    fn node_loss_kills_exactly_the_lost_nodes_tasks() {
        let plan = FaultPlan {
            lost_node: Some(2),
            ..FaultPlan::new(9)
        };
        for task in 0..64 {
            let first = plan.decide("j", TaskKind::Map, task, 0);
            if plan.node_of(task) == 2 {
                assert!(
                    matches!(first, Outcome::Fail { node_loss: true, .. }),
                    "task {task} on the lost node must die first"
                );
                // The retry lands elsewhere and is not re-killed by the
                // node loss.
                assert!(!matches!(
                    plan.decide("j", TaskKind::Map, task, 1),
                    Outcome::Fail { node_loss: true, .. }
                ));
            } else {
                assert!(!matches!(first, Outcome::Fail { node_loss: true, .. }));
            }
        }
    }

    #[test]
    fn backoff_is_exponential() {
        assert_eq!(backoff_s(0), 2.0);
        assert_eq!(backoff_s(1), 4.0);
        assert_eq!(backoff_s(2), 8.0);
    }

    #[test]
    fn backoff_is_jitterless_and_retry_count_determined() {
        // The delay depends only on the retry number: no RNG, no worker or
        // scheduling input. Summing a fixed retry multiset therefore yields
        // bit-identical totals in any accumulation order — the property
        // that makes the ledger's `backoff_s` worker-count independent.
        let retries = [0usize, 1, 2, 0, 3, 1, 0, 2];
        let forward: f64 = retries.iter().map(|&r| backoff_s(r)).sum();
        let reverse: f64 = retries.iter().rev().map(|&r| backoff_s(r)).sum();
        assert_eq!(forward.to_bits(), reverse.to_bits());
        for &r in &retries {
            assert_eq!(backoff_s(r), backoff_s(r));
        }
    }

    #[test]
    fn block_corruption_is_pure_and_spares_the_last_replica() {
        let plan = FaultPlan::corrupting(5);
        let mut fired = 0;
        for block in 0..64 {
            for replica in 0..FaultPlan::REPLICAS {
                let d = plan.corrupt_block("vp_x", block, replica);
                assert_eq!(d, plan.corrupt_block("vp_x", block, replica));
                if replica + 1 >= FaultPlan::REPLICAS {
                    assert!(d.is_none(), "last replica must never corrupt");
                } else if d.is_some() {
                    fired += 1;
                }
            }
        }
        assert!(fired > 20, "p=0.5 over 128 draws must fire often: {fired}");
        // Decisions vary with the dataset name.
        let diff = (0..64)
            .filter(|&b| plan.corrupt_block("vp_x", b, 0) != plan.corrupt_block("vp_y", b, 0))
            .count();
        assert!(diff > 10, "corruption must key on the dataset name");
    }

    #[test]
    fn corruption_set_is_monotone_in_probability() {
        let lo = FaultPlan {
            block_corrupt_p: 0.2,
            spill_corrupt_p: 0.2,
            ..FaultPlan::new(3)
        };
        let hi = FaultPlan {
            block_corrupt_p: 0.6,
            spill_corrupt_p: 0.6,
            ..FaultPlan::new(3)
        };
        for i in 0..128 {
            if lo.corrupt_block("d", i, 0).is_some() {
                assert!(hi.corrupt_block("d", i, 0).is_some());
            }
            if lo.corrupt_spill("j", i, 1).is_some() {
                assert!(hi.corrupt_spill("j", i, 1).is_some());
            }
        }
    }

    #[test]
    fn probabilistic_aborts_spare_the_final_attempt() {
        let plan = FaultPlan {
            job_abort_p: 1.0,
            ..FaultPlan::new(4)
        };
        for i in 0..8 {
            assert!(plan.decide_job_abort("j", i, 0, false));
            assert!(
                !plan.decide_job_abort("j", i, 3, true),
                "final workflow attempt must always commit"
            );
        }
    }

    #[test]
    fn explicit_abort_kills_exactly_the_scheduled_attempts() {
        let plan = FaultPlan {
            abort_job: Some((2, 2)),
            ..FaultPlan::new(0)
        };
        assert!(plan.decide_job_abort("j", 2, 0, false));
        assert!(plan.decide_job_abort("j", 2, 1, true), "explicit kill ignores finality");
        assert!(!plan.decide_job_abort("j", 2, 2, false), "kill budget spent");
        assert!(!plan.decide_job_abort("j", 1, 0, false), "other jobs untouched");
    }
}
