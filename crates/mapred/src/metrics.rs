//! Per-job and per-workflow execution metrics.
//!
//! These are *measured* quantities — bytes genuinely serialized, records
//! genuinely processed — and the inputs to the cluster cost model.

use std::fmt;
use std::iter::Sum;
use std::time::Duration;

/// Metrics for one executed MapReduce job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job name.
    pub name: String,
    /// Whether the job was map-only.
    pub map_only: bool,
    /// Number of map tasks (input splits).
    pub map_tasks: usize,
    /// Number of reduce tasks that received data.
    pub reduce_tasks: usize,
    /// Bytes read from the DFS by map tasks.
    pub input_bytes: u64,
    /// Records read by map tasks.
    pub input_records: u64,
    /// Input segments skipped whole via zone-map pruning by committed map
    /// attempts (subset of the splits counted in `input_bytes` — pruning
    /// saves scan work, not scheduled input).
    pub segments_skipped: u64,
    /// Input bytes of those skipped segments.
    pub input_bytes_pruned: u64,
    /// Map output records before the combiner.
    pub map_output_records: u64,
    /// Map output bytes before the combiner.
    pub map_output_bytes: u64,
    /// Records actually shuffled (post-combiner).
    pub shuffle_records: u64,
    /// Bytes actually shuffled (post-combiner).
    pub shuffle_bytes: u64,
    /// Output records written to the DFS.
    pub output_records: u64,
    /// Output bytes written to the DFS.
    pub output_bytes: u64,
    /// Total map task attempts, including retries and speculative
    /// duplicates (equals `map_tasks` on a fault-free run).
    pub map_attempts: u64,
    /// Total reduce task attempts, including retries and speculative
    /// duplicates (equals `reduce_tasks` on a fault-free run).
    pub reduce_attempts: u64,
    /// Attempts killed by injected failures (each one forced a retry).
    pub failed_attempts: u64,
    /// Speculative duplicate attempts launched for stragglers.
    pub speculative_attempts: u64,
    /// Tasks whose attempt straggled (slow attempt observed, whether or
    /// not speculation replaced it).
    pub straggler_tasks: u64,
    /// Failed attempts attributed to a simulated whole-node loss.
    pub lost_node_tasks: u64,
    /// Input records processed by attempts whose work was discarded.
    pub wasted_input_records: u64,
    /// Output bytes produced by attempts whose work was discarded.
    pub wasted_output_bytes: u64,
    /// DFS block reads whose checksum failed — the copy was quarantined and
    /// the block re-read from the next replica.
    pub corrupt_blocks_detected: u64,
    /// Shuffle spill runs whose checksum failed at the verify-on-commit
    /// gate — quarantined and re-fetched from the map output before any
    /// reducer saw a byte of them.
    pub corrupt_spills_detected: u64,
    /// Extra bytes read re-fetching quarantined blocks and spill runs.
    pub integrity_reread_bytes: u64,
    /// Corrupted copies that flowed through *undetected* because checksum
    /// verification was disabled. Always zero when checksums are on — the
    /// assertion the integrity suite pins.
    pub silent_corruptions: u64,
    /// Records committed task attempts skipped because they failed to
    /// decode (record-level quarantine — a layer below block checksums,
    /// which only vouch for the bytes, not the framing producers wrote).
    pub corrupt_records_skipped: u64,
    /// Simulated retry backoff accumulated by this job, seconds.
    pub backoff_s: f64,
    /// In-process wall time of this job.
    pub wall: Duration,
    /// Busiest map worker's CPU time in task bodies, nanoseconds — the map
    /// phase's busy-time makespan. Measured, machine-dependent; excluded
    /// from the cost model and from determinism signatures.
    pub map_busy_max_ns: u64,
    /// Total map-phase CPU time across all workers, nanoseconds.
    pub map_busy_total_ns: u64,
    /// Busiest reduce worker's CPU time in task bodies, nanoseconds.
    pub reduce_busy_max_ns: u64,
    /// Total reduce-phase CPU time across all workers, nanoseconds.
    pub reduce_busy_total_ns: u64,
    /// Tasks migrated between worker deques by work stealing (both phases).
    pub steals: u64,
    /// Committed reduce merge shards executed (`>= reduce_tasks` whenever
    /// a key-local reducer's partitions were cut into parallel ranges).
    pub merge_shards: usize,
    /// Cross-query scan-cache hits: the job's output was served from the
    /// cache and the job body never ran (all other counters stay zero).
    pub scan_cache_hits: u64,
    /// Scan-cache lookups that missed; the job ran and its output was
    /// offered to the cache.
    pub scan_cache_misses: u64,
    /// Cache entries evicted to admit this job's output.
    pub scan_cache_evictions: u64,
}

impl JobMetrics {
    /// Combiner effectiveness: shuffled records / pre-combine records.
    pub fn combine_ratio(&self) -> f64 {
        if self.map_output_records == 0 {
            1.0
        } else {
            self.shuffle_records as f64 / self.map_output_records as f64
        }
    }

    /// Total task attempts across both phases.
    pub fn task_attempts(&self) -> u64 {
        self.map_attempts + self.reduce_attempts
    }

    /// Attempts beyond the one-per-task minimum: retries after failures
    /// plus speculative duplicates. Zero on a fault-free run.
    pub fn extra_attempts(&self) -> u64 {
        self.task_attempts()
            .saturating_sub((self.map_tasks + self.reduce_tasks) as u64)
    }

    /// Busy-time makespan of the whole job: the critical path through both
    /// phase pools, assuming the phases run back to back.
    pub fn busy_makespan_ns(&self) -> u64 {
        self.map_busy_max_ns + self.reduce_busy_max_ns
    }
}

impl fmt::Display for JobMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] in={}r/{}B shuffle={}r/{}B out={}r/{}B maps={} reduces={} wall={:?}",
            self.name,
            if self.map_only { "map-only" } else { "map-reduce" },
            self.input_records,
            self.input_bytes,
            self.shuffle_records,
            self.shuffle_bytes,
            self.output_records,
            self.output_bytes,
            self.map_tasks,
            self.reduce_tasks,
            self.wall,
        )?;
        if self.extra_attempts() > 0 || self.straggler_tasks > 0 {
            write!(
                f,
                " attempts={} (failed={} speculative={} stragglers={}) backoff={:.1}s",
                self.task_attempts(),
                self.failed_attempts,
                self.speculative_attempts,
                self.straggler_tasks,
                self.backoff_s,
            )?;
        }
        Ok(())
    }
}

/// Deterministic ledger of workflow-level recovery work: what checkpoint
/// resume saved and what aborts, timeout-kills, and replays cost. All
/// counters are driven by the serial workflow driver, so the ledger is
/// identical at any worker count.
///
/// Only *committed* job runs appear in [`WorkflowMetrics::jobs`]; the work
/// lost to aborted or killed attempts lives here, keeping the committed
/// per-job signatures byte-identical to a fault-free run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryLedger {
    /// Recovery passes the driver started (each after an abort or kill).
    pub workflow_restarts: u64,
    /// Whole-job attempts lost at commit time (simulated driver/node loss).
    pub aborted_job_attempts: u64,
    /// Job attempts killed for exceeding their simulated deadline.
    pub timeout_kills: u64,
    /// Deadline escalations applied after timeout-kills.
    pub deadline_escalations: u64,
    /// Executions of jobs that had already run before (the recompute cost
    /// of recovery — checkpoint resume exists to shrink this).
    pub jobs_replayed: u64,
    /// Jobs a recovery pass did *not* re-run thanks to a verified
    /// checkpoint.
    pub checkpoint_jobs_skipped: u64,
    /// Bytes read validating checkpoints on recovery passes.
    pub checkpoint_bytes_read: u64,
    /// Input + output bytes of replayed executions (recomputed work).
    pub recomputed_bytes: u64,
    /// Input + output bytes of aborted/killed attempts (work thrown away).
    pub wasted_bytes: u64,
    /// Task attempts inside aborted/killed job runs.
    pub wasted_task_attempts: u64,
    /// Simulated backoff between workflow-level recovery attempts, seconds.
    pub recovery_backoff_s: f64,
}

impl RecoveryLedger {
    /// True when no workflow-level recovery happened at all.
    pub fn is_clean(&self) -> bool {
        self.workflow_restarts == 0
            && self.aborted_job_attempts == 0
            && self.timeout_kills == 0
            && self.jobs_replayed == 0
    }

    /// Fold another ledger into this one (chained workflow segments).
    pub fn absorb(&mut self, o: &RecoveryLedger) {
        self.workflow_restarts += o.workflow_restarts;
        self.aborted_job_attempts += o.aborted_job_attempts;
        self.timeout_kills += o.timeout_kills;
        self.deadline_escalations += o.deadline_escalations;
        self.jobs_replayed += o.jobs_replayed;
        self.checkpoint_jobs_skipped += o.checkpoint_jobs_skipped;
        self.checkpoint_bytes_read += o.checkpoint_bytes_read;
        self.recomputed_bytes += o.recomputed_bytes;
        self.wasted_bytes += o.wasted_bytes;
        self.wasted_task_attempts += o.wasted_task_attempts;
        self.recovery_backoff_s += o.recovery_backoff_s;
    }
}

impl fmt::Display for RecoveryLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery: {} restarts ({} aborts, {} timeouts), {} jobs replayed, \
             {} skipped via checkpoints, recomputed={}B wasted={}B ckpt-read={}B backoff={:.1}s",
            self.workflow_restarts,
            self.aborted_job_attempts,
            self.timeout_kills,
            self.jobs_replayed,
            self.checkpoint_jobs_skipped,
            self.recomputed_bytes,
            self.wasted_bytes,
            self.checkpoint_bytes_read,
            self.recovery_backoff_s,
        )
    }
}

/// Aggregate metrics for an executed workflow (sequence of jobs).
#[derive(Debug, Clone, Default)]
pub struct WorkflowMetrics {
    /// Per-job metrics for *committed* runs, in workflow order.
    pub jobs: Vec<JobMetrics>,
    /// Workflow-level recovery ledger (zeroed on clean runs).
    pub recovery: RecoveryLedger,
}

impl WorkflowMetrics {
    /// Total number of MR cycles (the paper's headline plan-quality metric).
    pub fn cycles(&self) -> usize {
        self.jobs.len()
    }

    /// Number of full map-reduce cycles (with a shuffle).
    pub fn full_cycles(&self) -> usize {
        self.jobs.iter().filter(|j| !j.map_only).count()
    }

    /// Number of map-only cycles.
    pub fn map_only_cycles(&self) -> usize {
        self.jobs.iter().filter(|j| j.map_only).count()
    }

    /// Sum one per-job quantity over every committed job: a counter
    /// (`wf.total(|j| j.shuffle_bytes)`), a derived count
    /// (`wf.total(JobMetrics::task_attempts)`) or a time
    /// (`wf.total(|j| j.wall)`). The one place a workflow total is folded.
    pub fn total<T: Sum>(&self, f: impl Fn(&JobMetrics) -> T) -> T {
        self.jobs.iter().map(f).sum()
    }
}

impl fmt::Display for WorkflowMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "workflow: {} cycles ({} full, {} map-only), shuffle={}B, materialized={}B",
            self.cycles(),
            self.full_cycles(),
            self.map_only_cycles(),
            self.total(|j| j.shuffle_bytes),
            self.total(|j| j.output_bytes),
        )?;
        for j in &self.jobs {
            writeln!(f, "  {j}")?;
        }
        if !self.recovery.is_clean() {
            writeln!(f, "  {}", self.recovery)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workflow_counts_cycles() {
        let mut wf = WorkflowMetrics::default();
        wf.jobs.push(JobMetrics {
            name: "a".into(),
            map_only: false,
            shuffle_bytes: 100,
            ..Default::default()
        });
        wf.jobs.push(JobMetrics {
            name: "b".into(),
            map_only: true,
            output_bytes: 50,
            ..Default::default()
        });
        assert_eq!(wf.cycles(), 2);
        assert_eq!(wf.full_cycles(), 1);
        assert_eq!(wf.map_only_cycles(), 1);
        assert_eq!(wf.total(|j| j.shuffle_bytes), 100);
        assert_eq!(wf.total(|j| j.output_bytes), 50);
    }

    #[test]
    fn combine_ratio_defaults_to_one() {
        let m = JobMetrics::default();
        assert_eq!(m.combine_ratio(), 1.0);
        let m2 = JobMetrics {
            map_output_records: 100,
            shuffle_records: 25,
            ..Default::default()
        };
        assert_eq!(m2.combine_ratio(), 0.25);
    }
}
