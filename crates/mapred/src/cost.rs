//! Analytic cluster cost model: converts measured job metrics into simulated
//! cluster seconds.
//!
//! The paper's numbers come from 10/50/60-node Hadoop clusters where total
//! time is dominated by (a) the number of MR cycles — each paying job startup
//! — and (b) I/O: split reads, shuffle transfer + merge-sort, and HDFS
//! materialization. This model reproduces exactly those terms from the
//! *measured* byte/record counts of the simulator, so the relative ordering
//! of plans matches the paper's even though absolute constants differ.

use crate::metrics::{JobMetrics, RecoveryLedger, WorkflowMetrics};

/// Cluster configuration for the cost model.
#[derive(Debug, Clone, Copy)]
pub struct ClusterModel {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Concurrent map slots per node (Hadoop 0.20 default: 2).
    pub map_slots_per_node: usize,
    /// Concurrent reduce slots per node.
    pub reduce_slots_per_node: usize,
    /// Sequential disk bandwidth per node, MB/s.
    pub disk_mbps: f64,
    /// Network bandwidth per node, MB/s.
    pub net_mbps: f64,
    /// Fixed job submission + scheduling overhead, seconds (Hadoop JVM spin-up).
    pub job_startup_s: f64,
    /// Per-task-wave scheduling overhead, seconds.
    pub task_overhead_s: f64,
    /// CPU cost per record processed, microseconds.
    pub cpu_per_record_us: f64,
    /// Extra seconds a straggling task adds to its wave when speculation
    /// does not replace it (the slow attempt holds the job open).
    pub straggler_penalty_s: f64,
    /// HDFS replication factor applied to final job output writes.
    pub replication: f64,
    /// Scale factor mapping simulator bytes to modeled cluster bytes
    /// (our datasets are scaled down; 1.0 evaluates the simulator's bytes
    /// as-is).
    pub data_scale: f64,
}

impl ClusterModel {
    /// The 10-node cluster used for the BSBM-500K experiments (Table 3,
    /// Fig. 8a).
    pub fn nodes10() -> Self {
        ClusterModel {
            nodes: 10,
            ..Default::default()
        }
    }

    /// The 50-node cluster (BSBM-2M experiments, Fig. 8b).
    pub fn nodes50() -> Self {
        ClusterModel {
            nodes: 50,
            ..Default::default()
        }
    }

    /// The 60-node cluster (PubMed experiments, Table 4).
    pub fn nodes60() -> Self {
        ClusterModel {
            nodes: 60,
            ..Default::default()
        }
    }

    fn map_slots(&self) -> f64 {
        (self.nodes * self.map_slots_per_node) as f64
    }

    fn reduce_slots(&self) -> f64 {
        (self.nodes * self.reduce_slots_per_node) as f64
    }

    /// Simulated time of one job, in seconds.
    pub fn job_time(&self, m: &JobMetrics) -> f64 {
        let mb = |bytes: u64| (bytes as f64) * self.data_scale / (1024.0 * 1024.0);

        let map_tasks = m.map_tasks.max(1) as f64;
        let eff_m = map_tasks.min(self.map_slots());
        let map_waves = (map_tasks / self.map_slots()).ceil();

        // Map phase: read splits from disk + CPU + local spill of map output.
        let map_read = mb(m.input_bytes) / (self.disk_mbps * eff_m);
        let map_cpu =
            (m.input_records + m.map_output_records) as f64 * self.cpu_per_record_us / 1e6 / eff_m;
        let map_spill = mb(m.map_output_bytes) / (self.disk_mbps * eff_m);
        let map_time = map_waves * self.task_overhead_s + map_read + map_cpu + map_spill;

        let (shuffle_time, reduce_time) = if m.map_only {
            (0.0, 0.0)
        } else {
            let reduce_tasks = m.reduce_tasks.max(1) as f64;
            let eff_r = reduce_tasks.min(self.reduce_slots());
            let reduce_waves = (reduce_tasks / self.reduce_slots()).ceil();
            // Shuffle: network transfer, bounded by receiving reducers.
            let shuffle = mb(m.shuffle_bytes) / (self.net_mbps * eff_r);
            // Reduce: merge-sort pass over shuffled data + CPU + output write.
            let merge = mb(m.shuffle_bytes) / (self.disk_mbps * eff_r);
            let cpu = m.shuffle_records as f64 * self.cpu_per_record_us / 1e6 / eff_r;
            let write = mb(m.output_bytes) * self.replication / (self.disk_mbps * eff_r);
            (
                shuffle,
                reduce_waves * self.task_overhead_s + merge + cpu + write,
            )
        };

        // Map-only jobs still write their output (replicated).
        let map_only_write = if m.map_only {
            mb(m.output_bytes) * self.replication / (self.disk_mbps * self.map_slots().min(m.map_tasks.max(1) as f64))
        } else {
            0.0
        };

        self.job_startup_s
            + map_time
            + shuffle_time
            + reduce_time
            + map_only_write
            + self.fault_overhead(m)
    }

    /// An admissible lower bound on [`ClusterModel::job_time`] known before
    /// the job runs: startup plus one scheduling wave per phase (map waves
    /// and reduce waves are ≥ 1, every other term is ≥ 0). The additions
    /// follow `job_time`'s order, so the bound also holds under f64
    /// rounding, which is monotone. The plan enumerator prunes dry runs on
    /// it.
    pub fn job_time_floor(&self, map_only: bool) -> f64 {
        let reduce_wave = if map_only { 0.0 } else { self.task_overhead_s };
        self.job_startup_s + self.task_overhead_s + reduce_wave
    }

    /// Extra simulated seconds attributable to injected faults: retry
    /// backoff, per-attempt scheduling overhead for every attempt beyond
    /// the one-per-task minimum, redoing the work that was discarded, and
    /// the tail latency of stragglers speculation didn't cover.
    ///
    /// Every term is ≥ 0 and zero on a fault-free run, so adding this to
    /// [`ClusterModel::job_time`] can only increase a job's cost — the
    /// monotonicity the `prop_cost` properties pin down.
    pub fn fault_overhead(&self, m: &JobMetrics) -> f64 {
        let mb = |bytes: u64| (bytes as f64) * self.data_scale / (1024.0 * 1024.0);
        let extra = m.extra_attempts() as f64;
        let slots = self.map_slots();
        let redo_io = mb(m.wasted_output_bytes) / (self.disk_mbps * slots);
        let redo_cpu = m.wasted_input_records as f64 * self.cpu_per_record_us / 1e6 / slots;
        let unspeculated = m.straggler_tasks.saturating_sub(m.speculative_attempts) as f64;
        // Integrity re-reads: every quarantined block/spill is read again
        // from a replica — pure extra disk traffic.
        let reread_io = mb(m.integrity_reread_bytes) / (self.disk_mbps * slots);
        m.backoff_s
            + extra * self.task_overhead_s
            + redo_io
            + redo_cpu
            + reread_io
            + unspeculated * self.straggler_penalty_s
    }

    /// Extra simulated seconds attributable to workflow-level recovery:
    /// restart backoff, re-submitting every replayed/aborted/timed-out job
    /// (each pays job startup again), and the I/O of the recomputed, wasted,
    /// and checkpoint-read bytes. Zero on an undisturbed workflow.
    pub fn recovery_overhead(&self, r: &RecoveryLedger) -> f64 {
        let mb = |bytes: u64| (bytes as f64) * self.data_scale / (1024.0 * 1024.0);
        let slots = self.map_slots();
        let resubmits = (r.aborted_job_attempts + r.timeout_kills + r.jobs_replayed) as f64;
        let io =
            mb(r.recomputed_bytes + r.wasted_bytes + r.checkpoint_bytes_read)
                / (self.disk_mbps * slots);
        r.recovery_backoff_s + resubmits * self.job_startup_s + io
    }

    /// Simulated time of a whole workflow (jobs run sequentially, as Hadoop
    /// executes a dependent job DAG stage by stage), plus the recovery
    /// overhead of any workflow-level restarts.
    pub fn workflow_time(&self, wf: &WorkflowMetrics) -> f64 {
        wf.jobs.iter().map(|j| self.job_time(j)).sum::<f64>()
            + self.recovery_overhead(&wf.recovery)
    }
}

impl Default for ClusterModel {
    fn default() -> Self {
        ClusterModel {
            nodes: 10,
            map_slots_per_node: 2,
            reduce_slots_per_node: 2,
            disk_mbps: 80.0,
            net_mbps: 40.0,
            job_startup_s: 12.0,
            task_overhead_s: 1.5,
            cpu_per_record_us: 1.5,
            straggler_penalty_s: 8.0,
            replication: 2.0,
            data_scale: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(map_only: bool, shuffle: u64, out: u64) -> JobMetrics {
        JobMetrics {
            name: "j".into(),
            map_only,
            map_tasks: 8,
            reduce_tasks: 4,
            input_bytes: 8 << 20,
            input_records: 100_000,
            map_output_records: 100_000,
            map_output_bytes: shuffle,
            shuffle_records: 100_000,
            shuffle_bytes: shuffle,
            output_records: 10_000,
            output_bytes: out,
            ..Default::default()
        }
    }

    #[test]
    fn startup_dominates_small_jobs() {
        let model = ClusterModel::nodes10();
        let t = model.job_time(&job(false, 1024, 1024));
        assert!(t >= model.job_startup_s);
        assert!(t < model.job_startup_s + 10.0);
    }

    #[test]
    fn more_cycles_cost_more() {
        let model = ClusterModel::nodes10();
        let one = WorkflowMetrics {
            jobs: vec![job(false, 1 << 20, 1 << 20)],
            ..Default::default()
        };
        let three = WorkflowMetrics {
            jobs: vec![
                job(false, 1 << 20, 1 << 20),
                job(false, 1 << 20, 1 << 20),
                job(false, 1 << 20, 1 << 20),
            ],
            ..Default::default()
        };
        assert!(model.workflow_time(&three) > 2.5 * model.workflow_time(&one));
    }

    #[test]
    fn map_only_cheaper_than_full_cycle() {
        let model = ClusterModel::nodes10();
        let full = model.job_time(&job(false, 64 << 20, 64 << 20));
        let maponly = model.job_time(&job(true, 0, 64 << 20));
        assert!(maponly < full);
    }

    #[test]
    fn bigger_cluster_is_faster_on_big_jobs() {
        let big_job = JobMetrics {
            map_tasks: 400,
            reduce_tasks: 100,
            input_bytes: 4 << 30,
            input_records: 50_000_000,
            map_output_records: 50_000_000,
            map_output_bytes: 2 << 30,
            shuffle_records: 50_000_000,
            shuffle_bytes: 2 << 30,
            output_bytes: 1 << 30,
            ..Default::default()
        };
        let t10 = ClusterModel::nodes10().job_time(&big_job);
        let t60 = ClusterModel::nodes60().job_time(&big_job);
        assert!(t60 < t10);
    }

    #[test]
    fn shuffle_bytes_increase_time() {
        let model = ClusterModel::nodes10();
        let small = model.job_time(&job(false, 1 << 20, 1 << 20));
        let large = model.job_time(&job(false, 512 << 20, 1 << 20));
        assert!(large > small + 1.0);
    }

    #[test]
    fn fault_overhead_is_zero_without_faults_and_additive_with() {
        let model = ClusterModel::nodes10();
        let clean = job(false, 1 << 20, 1 << 20);
        assert_eq!(model.fault_overhead(&clean), 0.0);

        let mut faulty = clean.clone();
        faulty.map_attempts = faulty.map_tasks as u64 + 3;
        faulty.reduce_attempts = faulty.reduce_tasks as u64;
        faulty.failed_attempts = 3;
        faulty.wasted_input_records = 10_000;
        faulty.wasted_output_bytes = 1 << 20;
        faulty.backoff_s = 14.0;
        // Overhead covers at least the backoff plus the extra scheduling.
        assert!(
            model.job_time(&faulty)
                >= model.job_time(&clean) + faulty.backoff_s + 3.0 * model.task_overhead_s
        );
    }

    #[test]
    fn unspeculated_stragglers_pay_the_tail_penalty() {
        let model = ClusterModel::nodes10();
        let mut slow = job(false, 1 << 20, 1 << 20);
        slow.map_attempts = slow.map_tasks as u64;
        slow.reduce_attempts = slow.reduce_tasks as u64;
        slow.straggler_tasks = 2;
        assert_eq!(
            model.fault_overhead(&slow),
            2.0 * model.straggler_penalty_s
        );
        // With speculation covering them, the tail penalty disappears (the
        // duplicates' cost shows up as extra attempts + wasted work instead).
        slow.speculative_attempts = 2;
        slow.map_attempts += 2;
        assert_eq!(
            model.fault_overhead(&slow),
            2.0 * model.task_overhead_s
        );
    }

    #[test]
    fn integrity_rereads_and_recovery_cost_simulated_time() {
        let model = ClusterModel::nodes10();
        let clean = job(false, 1 << 20, 1 << 20);
        let mut rereads = clean.clone();
        rereads.corrupt_blocks_detected = 2;
        rereads.integrity_reread_bytes = 8 << 20;
        assert!(model.job_time(&rereads) > model.job_time(&clean));

        assert_eq!(model.recovery_overhead(&RecoveryLedger::default()), 0.0);
        let r = RecoveryLedger {
            workflow_restarts: 1,
            aborted_job_attempts: 1,
            jobs_replayed: 2,
            recomputed_bytes: 16 << 20,
            wasted_bytes: 4 << 20,
            recovery_backoff_s: 2.0,
            ..Default::default()
        };
        // At least the backoff plus three job re-submissions.
        assert!(model.recovery_overhead(&r) >= 2.0 + 3.0 * model.job_startup_s);
        let wf = WorkflowMetrics {
            jobs: vec![clean.clone()],
            recovery: r,
        };
        let undisturbed = WorkflowMetrics {
            jobs: vec![clean],
            ..Default::default()
        };
        assert!(model.workflow_time(&wf) > model.workflow_time(&undisturbed));
    }

    #[test]
    fn data_scale_amplifies() {
        let mut model = ClusterModel::nodes10();
        let base = model.job_time(&job(false, 64 << 20, 64 << 20));
        model.data_scale = 10.0;
        let scaled = model.job_time(&job(false, 64 << 20, 64 << 20));
        assert!(scaled > base);
    }
}
