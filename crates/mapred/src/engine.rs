//! The MapReduce execution engine: work-stealing parallel map over splits,
//! arena-backed emit-order spills, a radix-merge shuffle, shard-parallel
//! grouped reduce — a faithful in-process model of the Hadoop execution
//! cycle, with real serialization at every boundary.
//!
//! Data path (see DESIGN.md "Zero-copy shuffle data path"): map tasks emit
//! into one contiguous [`KvBuffer`] arena per task, which is spilled, in
//! emit order, into compact per-`(task, partition)` arenas; a combiner, if
//! set, first groups the task's output through the reduce side's merge. The
//! reduce side gathers those runs — each read front to back — orders the
//! gathered entries with the crate's one radix kernel and hands key groups
//! straight to the reducer: each pair is ordered once. No materialized `Vec`
//! of pairs, no per-record heap allocation.
//!
//! Parallel structure (see DESIGN.md §2e): both phases run through the
//! work-stealing [`pool`], and both are *flattened* into pool units by one
//! serial attempt script per map task and per reduce partition
//! (`attempt_script`): one unit per doomed or superseded fault attempt —
//! a map unit over (a prefix of) its split, a reduce unit over (a prefix
//! of) the partition's serial merge, so the waste ledger is
//! worker-count-independent — plus the committed attempt. The committed
//! reduce merge is cut into key-range shards ([`crate::merge::plan_shards`],
//! routed by [`crate::merge::Route`] in a pool pass of their own) whenever
//! the reducer declares itself key-local; shard outputs concatenate in range
//! order into the exact byte stream of the serial merge.

use crate::bytes::Bytes;
use crate::cache::ScanCache;
use crate::codec::{BlockBuilder, KvBuffer, RecBuffer, RecordIter};
use crate::dfs::{Dataset, SimDfs};
use crate::fault::{FaultPlan, Outcome, TaskKind};
use crate::integrity;
use crate::job::{InputSrc, Job, MapOutput, ReduceOutput};
use crate::merge::{merge_key_groups, plan_shards, Route, Run};
use crate::metrics::{JobMetrics, RecoveryLedger, WorkflowMetrics};
use crate::pool;
use crate::resilience::{self, ResiliencePolicy, WorkflowError};
use std::time::Instant;

/// The reducer a key is routed to: FNV-1a ([`integrity::fnv1a`], the same
/// hash the spill checksums use) modulo the reducer count.
///
/// This is *the* shuffle contract — it depends only on the key bytes and the
/// partition count, never on worker threads or split layout, which is what
/// makes reruns of a workflow bit-for-bit reproducible.
#[inline]
pub fn shuffle_partition(key: &[u8], num_partitions: usize) -> usize {
    (integrity::fnv1a(key) % num_partitions.max(1) as u64) as usize
}

/// Execution engine bound to a [`SimDfs`].
#[derive(Clone)]
pub struct Engine {
    /// The simulated DFS jobs read from and write to.
    pub dfs: SimDfs,
    /// Worker thread count for map and reduce phases.
    pub workers: usize,
    /// Optional fault-injection plan; `None` runs the cluster perfectly.
    pub faults: Option<FaultPlan>,
    /// Resilience policy: checksums, checkpointing, retry budgets,
    /// deadlines. Defaults keep every protection on.
    pub resilience: ResiliencePolicy,
    /// Optional cross-query scan cache. When set, jobs carrying a
    /// [`Job::cache_key`] are served from the cache on hit (the job body
    /// never runs) and inserted on miss. `None` (the default) leaves the
    /// execution path untouched.
    pub scan_cache: Option<ScanCache>,
}

/// Spill a map task's output: one exact-size arena per reduce partition,
/// its pairs in emit order. The counting pass, which reads every key anyway,
/// also records the prefix each arena's keys share for the merge's entries.
#[doc(hidden)]
pub fn spill(kvs: &KvBuffer, num_partitions: usize) -> Vec<KvBuffer> {
    let mut pidx: Vec<u32> = Vec::with_capacity(kvs.len());
    // Per partition: pairs, payload bytes, first key, shared prefix.
    let mut counts = vec![(0usize, 0usize, &[][..], 0usize); num_partitions];
    for kv in kvs.iter() {
        let p = shuffle_partition(kv.key, num_partitions);
        pidx.push(p as u32);
        let (n, bytes, first, shared) = &mut counts[p];
        if *n == 0 {
            (*first, *shared) = (kv.key, kv.key.len());
        }
        *shared = crate::radix::extend_shared_prefix(first, *shared, kv.key);
        (*n, *bytes) = (*n + 1, *bytes + kv.key.len() + kv.value.len());
    }
    let mut parts: Vec<KvBuffer> =
        (counts.iter()).map(|&(n, bytes, ..)| KvBuffer::with_capacity(n, bytes)).collect();
    for (kv, &p) in kvs.iter().zip(&pidx) {
        parts[p as usize].push(kv.key, kv.value);
    }
    for (part, &(.., shared)) in parts.iter_mut().zip(&counts) {
        part.record_shared_prefix(shared);
    }
    parts
}

/// Frame a committed attempt's output records into block bytes. Runs inside
/// the pool task, so the serial commit only moves already-framed bytes.
fn frame(recs: &RecBuffer) -> BlockBuilder {
    let mut bb = BlockBuilder::new();
    for rec in recs.iter() {
        bb.push(rec);
    }
    bb
}

/// The output dataset of a job: one block per non-empty framed output.
fn commit(framed: impl IntoIterator<Item = BlockBuilder>) -> Dataset {
    let mut ds = Dataset::default();
    for bb in framed.into_iter().filter(|bb| !bb.is_empty()) {
        ds.records += bb.records();
        ds.block_records.push(bb.records());
        ds.blocks.push(Bytes::from(bb.finish()));
    }
    ds
}

/// How many key-range shards to cut one committed reduce merge into: about
/// two pool units per worker spread across the non-empty partitions, capped
/// so no shard shrinks below a useful grain. Only key-local reducers may be
/// sharded at all; everything else merges serially on one unit. The choice
/// never affects output bytes or the simulated cost — only how evenly the
/// pool can balance the merge.
fn shard_count(workers: usize, key_local: bool, partitions: usize, part_records: usize) -> usize {
    const MIN_SHARD_RECORDS: usize = 2048;
    if !key_local || workers <= 1 || part_records < 2 * MIN_SHARD_RECORDS {
        return 1;
    }
    (workers * 2)
        .div_ceil(partitions.max(1))
        .min(part_records / MIN_SHARD_RECORDS)
        .min(workers * 4)
        .max(1)
}

/// One flattened pool unit: a single attempt of a map task or of a reduce
/// partition (see module docs).
#[derive(Clone, Copy, PartialEq)]
enum UnitKind {
    /// A fault-doomed attempt: read the first `limit` records (map) or
    /// pairs of the serial merge (reduce), skip cleanup, keep nothing.
    Doomed { limit: usize },
    /// A straggler attempt superseded by its speculative duplicate: a full
    /// pass, output discarded as waste.
    WastedFull,
    /// The committed attempt (reduce: one key-range shard of the partition).
    Committed,
}

impl UnitKind {
    /// The kill point: how much input a doomed attempt reads.
    fn limit(self) -> Option<usize> {
        match self {
            UnitKind::Doomed { limit } => Some(limit),
            _ => None,
        }
    }

    /// What a lost attempt threw away after reading `read` records or pairs
    /// into `kvs` and `records`: its input (a doomed attempt's kill point)
    /// and every byte it produced. Arena payload lengths carry no framing,
    /// so these are sums of key + value + record lengths.
    fn waste(self, read: usize, kvs: &KvBuffer, records: &RecBuffer) -> (u64, u64) {
        let read = self.limit().unwrap_or(read);
        (read as u64, kvs.payload_bytes() + records.payload_bytes())
    }
}

/// The attempt script of map task or reduce partition `idx` of `job`: turns
/// the plan's pure [`FaultPlan::decide`] outcomes into the task's units, in
/// order — a [`UnitKind::Doomed`] per failed attempt, a
/// [`UnitKind::WastedFull`] for a straggler its speculative duplicate
/// supersedes, then the one [`UnitKind::Committed`] attempt — and writes
/// the serial half of the attempt ledger (attempts, failures, node loss,
/// stragglers, speculation, backoff) into `m`. Wasted records and bytes are
/// the measured half: the lost units report them as they run.
///
/// `total` is the task's input size (records of the split, pairs of the
/// partition), asked only when an attempt fails. Without a plan the script
/// is the single committed attempt and allocates nothing.
fn attempt_script(
    plan: Option<&FaultPlan>,
    job: &Job,
    kind: TaskKind,
    idx: usize,
    total: impl Fn() -> usize,
    m: &mut JobMetrics,
) -> impl Iterator<Item = UnitKind> {
    let mut lost = Vec::new();
    if let Some(plan) = plan {
        // Per-task backoff subtotal, folded in task order: the ledger's
        // float sum never depends on how tasks were scheduled.
        let mut backoff_s = 0.0;
        let mut retry = 0;
        loop {
            match plan.decide(&job.name, kind, idx, retry) {
                Outcome::Fail {
                    fraction,
                    node_loss,
                } => {
                    let total = total();
                    m.failed_attempts += 1;
                    m.lost_node_tasks += u64::from(node_loss);
                    backoff_s += resilience::backoff_s(retry);
                    lost.push(UnitKind::Doomed {
                        limit: ((fraction * total as f64) as usize).min(total),
                    });
                    retry += 1;
                }
                Outcome::Straggle => {
                    m.straggler_tasks += 1;
                    if plan.speculation {
                        // The speculative duplicate commits; the slow
                        // original's full output is discarded.
                        m.speculative_attempts += 1;
                        lost.push(UnitKind::WastedFull);
                    }
                    break;
                }
                Outcome::Success => break,
            }
        }
        m.backoff_s += backoff_s;
    }
    let attempts = lost.len() as u64 + 1;
    match kind {
        TaskKind::Map => m.map_attempts += attempts,
        TaskKind::Reduce => m.reduce_attempts += attempts,
    }
    lost.into_iter().chain([UnitKind::Committed])
}

impl Engine {
    /// Create an engine with sensible defaults (all cores, no fault plan,
    /// every protection on, no scan cache).
    pub fn new(dfs: SimDfs) -> Self {
        Engine {
            dfs,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            faults: None,
            resilience: ResiliencePolicy::default(),
            scan_cache: None,
        }
    }

    /// Create an engine with an explicitly pinned worker count — what tests
    /// use so metrics never depend on the host machine's parallelism.
    pub fn with_workers(dfs: SimDfs, workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            ..Engine::new(dfs)
        }
    }

    /// The test-pinned engine: [`rapida_testkit::PINNED_WORKERS`] workers,
    /// so metrics never depend on the host machine's parallelism and every
    /// test suite inherits worker-count changes from one place. (The
    /// constant lives in `testkit` — this crate already depends on it for
    /// the fault plan's RNG, so the helper resides here rather than there.)
    pub fn pinned(dfs: SimDfs) -> Self {
        Engine::with_workers(dfs, rapida_testkit::PINNED_WORKERS)
    }

    /// Attach a fault-injection plan (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach a resilience policy (builder style).
    pub fn with_resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Attach a cross-query scan cache (builder style).
    pub fn with_scan_cache(mut self, cache: ScanCache) -> Self {
        self.scan_cache = Some(cache);
        self
    }

    /// Run a sequence of jobs with workflow-level recovery.
    ///
    /// Every committed job's output dataset is a durable checkpoint. When a
    /// job attempt is lost — a fault-plan abort ([`FaultPlan::abort_job`] /
    /// `job_abort_p`) or a simulated deadline kill
    /// ([`crate::resilience::JobDeadline`]) — the workflow restarts: with
    /// [`ResiliencePolicy::checkpointing`] on, it first re-verifies the
    /// checksums of every checkpoint before the lost job and resumes from
    /// the first job whose checkpoint is missing or unverifiable (normally
    /// the lost job itself); with checkpointing off it replays the whole
    /// DAG from job 0. Either way the recomputation is tallied in a
    /// deterministic [`RecoveryLedger`] and the final output bytes are
    /// identical to an undisturbed run.
    ///
    /// Each recovery consumes one unit of the workflow retry budget
    /// ([`ResiliencePolicy::workflow_attempts`]) and one deterministic
    /// backoff delay; an exhausted budget degrades gracefully to a typed
    /// [`WorkflowError`] carrying the partial metrics instead of panicking.
    ///
    /// A job about to read a dataset that an earlier job wrote, and that the
    /// DFS no longer holds, stops the workflow with
    /// [`WorkflowError::MissingIntermediate`]; a missing base table reads
    /// as empty.
    pub fn try_run_workflow(&self, jobs: &[Job]) -> Result<WorkflowMetrics, WorkflowError> {
        self.try_run_workflow_after(&[], jobs, WorkflowMetrics::default())
    }

    /// [`Self::try_run_workflow`] for jobs that continue a workflow whose
    /// `earlier` jobs already ran, metering `done`: the datasets those wrote
    /// count as the workflow's own (a missing one is a
    /// [`WorkflowError::MissingIntermediate`] here too), an error's job index
    /// counts them, and the result or an error's partial metrics extend
    /// `done`'s jobs and ledger. The fault plan sees each job at its
    /// position in `jobs`, and recovery here has a retry budget of its own.
    pub fn try_run_workflow_after(
        &self,
        earlier: &[Job],
        jobs: &[Job],
        done: WorkflowMetrics,
    ) -> Result<WorkflowMetrics, WorkflowError> {
        let pol = &self.resilience;
        let budget = pol.workflow_attempts.max(1);
        let WorkflowMetrics { jobs: mut done, mut recovery } = done;
        let mut committed: Vec<Option<JobMetrics>> = (0..jobs.len()).map(|_| None).collect();
        let mut ran_before = vec![false; jobs.len()];
        let mut deadline_limit: Vec<f64> = match &pol.deadline {
            Some(dl) => vec![dl.limit_s; jobs.len()],
            None => vec![f64::INFINITY; jobs.len()],
        };
        // Recovery rounds consumed so far — the workflow retry budget.
        let mut spent = 0usize;
        // Where the last loss happened; checkpoint resume target.
        let mut resume_at = 0usize;
        let mut first_round = true;

        let partial = |committed: &[Option<JobMetrics>], recovery: &RecoveryLedger| {
            let jobs = done.iter().chain(committed.iter().flatten()).cloned().collect();
            Box::new(WorkflowMetrics { jobs, recovery: recovery.clone() })
        };

        loop {
            // Resume point: re-verify checkpoints up to the loss and resume
            // from the first one that fails verification (graceful
            // degradation — a damaged checkpoint chain replays more jobs,
            // never produces wrong bytes).
            let from = if pol.checkpointing && !first_round {
                let mut ok = 0usize;
                for job in jobs.iter().take(resume_at) {
                    match self.dfs.verify(&job.output) {
                        Some(bytes) => {
                            ok += 1;
                            recovery.checkpoint_jobs_skipped += 1;
                            recovery.checkpoint_bytes_read += bytes;
                        }
                        None => break,
                    }
                }
                ok
            } else {
                0
            };
            first_round = false;

            let mut restart: Option<usize> = None;
            for (i, job) in jobs.iter().enumerate().skip(from) {
                let at = earlier.len() + i;
                let writers = || earlier.iter().chain(&jobs[..i]);
                let lost = |name: &String| writers().any(|w| &w.output == name) && !self.dfs.contains(name);
                let missing = job
                    .inputs
                    .iter()
                    .find(|name| lost(name))
                    .cloned()
                    .or_else(|| job.mapper.side_inputs().into_iter().find(|name| lost(name)));
                if let Some(dataset) = missing {
                    return Err(WorkflowError::MissingIntermediate {
                        job: job.name.clone(),
                        job_index: at,
                        dataset,
                        partial: partial(&committed, &recovery),
                    });
                }
                let m = self.run_job_cached(job);
                if ran_before[i] {
                    recovery.jobs_replayed += 1;
                    recovery.recomputed_bytes += m.input_bytes + m.output_bytes;
                }
                ran_before[i] = true;

                // Deadline gate: the job ran, but its simulated cluster time
                // blew the per-job limit — kill it, escalate the limit for
                // the retry (deadlines model capacity guesses, not
                // correctness), and charge the workflow budget.
                let deadline_blown = pol
                    .deadline
                    .as_ref()
                    .is_some_and(|dl| dl.model.job_time(&m) > deadline_limit[i]);
                // Abort gate: the fault plan killed this job attempt
                // (node-loss at workflow granularity).
                let aborted = !deadline_blown
                    && self.faults.as_ref().is_some_and(|plan| {
                        plan.decide_job_abort(&job.name, i, spent, spent + 1 >= budget)
                    });
                if deadline_blown || aborted {
                    if deadline_blown {
                        recovery.timeout_kills += 1;
                        recovery.deadline_escalations += 1;
                        let esc = pol.deadline.as_ref().map_or(1.0, |dl| dl.escalation);
                        deadline_limit[i] *= esc.max(1.0);
                    } else {
                        recovery.aborted_job_attempts += 1;
                    }
                    recovery.wasted_bytes += m.input_bytes + m.output_bytes;
                    recovery.wasted_task_attempts += m.task_attempts();
                    spent += 1;
                    if spent >= budget {
                        let partial = partial(&committed, &recovery);
                        return Err(if deadline_blown {
                            WorkflowError::DeadlineExhausted {
                                job: job.name.clone(),
                                job_index: at,
                                limit_s: deadline_limit[i],
                                partial,
                            }
                        } else {
                            WorkflowError::RetryBudgetExhausted {
                                job: job.name.clone(),
                                job_index: at,
                                attempts: spent,
                                partial,
                            }
                        });
                    }
                    recovery.recovery_backoff_s += resilience::backoff_s(spent - 1);
                    restart = Some(i);
                    break;
                }
                committed[i] = Some(m);
            }
            match restart {
                Some(i) => {
                    recovery.workflow_restarts += 1;
                    resume_at = i;
                }
                None => break,
            }
        }
        done.extend(committed.into_iter().flatten());
        Ok(WorkflowMetrics { jobs: done, recovery })
    }

    /// Run one job through the scan cache when both the engine carries a
    /// cache and the job carries a key; otherwise run it directly.
    ///
    /// On a hit the job body never executes: the cached
    /// [`Sealed`](crate::dfs::Sealed) dataset is republished under the job's
    /// output name with [`SimDfs::put_sealed`] — carrying the block checksums
    /// sealed when it was first written, so checkpoint verification still
    /// works and no byte is hashed again — and the committed metrics are an
    /// empty map-only record with `scan_cache_hits = 1`: the cost model
    /// charges it roughly a job startup, nothing more. On a miss the job runs
    /// normally, the sealed output its own `put` just stored is offered to
    /// the cache, and the evictions that admission caused are charged to this
    /// job's metrics.
    fn run_job_cached(&self, job: &Job) -> JobMetrics {
        let (Some(cache), Some(key)) = (&self.scan_cache, &job.cache_key) else {
            return self.run_job(job);
        };
        if let Some(sealed) = cache.get(key) {
            self.dfs.put_sealed(&job.output, sealed);
            return JobMetrics {
                name: job.name.clone(),
                map_only: true,
                scan_cache_hits: 1,
                ..Default::default()
            };
        }
        let mut m = self.run_job(job);
        if let Some(out) = self.dfs.peek_sealed(&job.output) {
            m.scan_cache_evictions = cache.insert(key, out);
        }
        m.scan_cache_misses = 1;
        m
    }

    /// Run one job to completion, returning its metrics.
    pub fn run_job(&self, job: &Job) -> JobMetrics {
        let start = Instant::now();
        let mut metrics = JobMetrics {
            name: job.name.clone(),
            map_only: job.is_map_only(),
            ..Default::default()
        };
        let plan = self.faults.as_ref();

        // Gather input splits and run each one's attempt script into map
        // units: (dataset index, block, attempt). The integrity read path
        // ([`SimDfs::fetch`]) verifies each block's checksum against the
        // fault plan's injected read corruption and re-reads from replicas;
        // with checksums disabled a corrupted copy flows through silently —
        // the detection being load-bearing is what the divergence tests
        // demonstrate.
        let mut units: Vec<(usize, Bytes, UnitKind)> = Vec::new();
        for (di, name) in job.inputs.iter().enumerate() {
            if let Some((ds, integ)) = self.dfs.fetch(name, plan, self.resilience.checksums) {
                metrics.corrupt_blocks_detected += integ.corrupt_blocks;
                metrics.integrity_reread_bytes += integ.reread_bytes;
                metrics.silent_corruptions += integ.silent;
                metrics.input_bytes += ds.total_bytes() as u64;
                metrics.input_records += ds.records as u64;
                let counts_known = ds.block_records.len() == ds.blocks.len();
                for (bi, block) in ds.blocks.iter().enumerate() {
                    // The split's record count is tracked by the dataset
                    // writer; only hand-assembled datasets without counts
                    // pay a decode pass, and only when an attempt fails.
                    let n = counts_known.then(|| ds.block_records[bi]);
                    let total = || n.unwrap_or_else(|| RecordIter::new(block).count());
                    let task = metrics.map_tasks;
                    metrics.map_tasks += 1;
                    let script =
                        attempt_script(plan, job, TaskKind::Map, task, total, &mut metrics);
                    units.extend(script.map(|kind| (di, block.clone(), kind)));
                }
            }
        }

        let num_partitions = job.num_reducers.max(1);
        // Per-map-task results, merged after the parallel section.
        // `parts[p]` is the task's compact, emit-order spill arena for
        // reduce partition `p` — one run per (task, partition), ready for
        // the reduce-side merge to gather sequentially.
        struct MapResult {
            parts: Vec<KvBuffer>,
            /// FNV-1a checksum of each spill in `parts`, recorded at spill
            /// time — the reference the verify-on-commit gate compares
            /// against. Empty when no spill integrity is needed.
            spill_sums: Vec<u64>,
            /// The task's direct output, already framed (map-only jobs).
            block: BlockBuilder,
            raw_kv_records: u64,
            raw_kv_bytes: u64,
            segments_skipped: u64,
            input_bytes_pruned: u64,
            corrupt_records: u64,
        }

        // Record spill checksums only when the plan can corrupt spills and
        // the policy verifies them — the bytes to compare against.
        let spill_guard =
            self.resilience.checksums && plan.is_some_and(|plan| plan.spill_corrupt_p > 0.0);

        let workers = self.workers.max(1);

        // Map phase through the work-stealing pool: one unit per attempt.
        // Results come back in unit order — committed attempts in task
        // order, the canonical order downstream block layout and equal-key
        // value order depend on — regardless of worker count, steal
        // interleaving, or faults. Only the committed attempt combines and
        // spills; a lost one reports its waste.
        let (map_outs, map_pool) = pool::run_tasks(workers, units, |_, (di, block, kind)| {
            let mut task = job.mapper.create(&self.dfs);
            let mut out = MapOutput::default();
            let mut read = 0;
            for rec in RecordIter::new(&block).take(kind.limit().unwrap_or(usize::MAX)) {
                task.map(InputSrc { dataset: di }, rec, &mut out);
                read += 1;
            }
            // A doomed attempt died mid-task: no cleanup.
            if !matches!(kind, UnitKind::Doomed { .. }) {
                task.cleanup(&mut out);
            }
            if kind != UnitKind::Committed {
                return Err(kind.waste(read, &out.kvs, &out.records));
            }

            let raw_kv_records = out.kvs.len() as u64;
            let raw_kv_bytes = out.kvs.payload_bytes();
            let mut corrupt_records = out.corrupt_records;

            let mut kvs = std::mem::take(&mut out.kvs);
            let mut parts: Vec<KvBuffer> = Vec::new();
            if !job.is_map_only() {
                // Map-side combiner over the task's key groups, values in
                // emit order; its output is spilled as it was emitted.
                if let Some(comb) = job.combiner.as_ref().filter(|_| !kvs.is_empty()) {
                    let mut ctask = comb.create();
                    let mut cout = ReduceOutput::default();
                    merge_key_groups(&[Run::new(&kvs)], None, |k, v| ctask.reduce(k, v, &mut cout));
                    ctask.cleanup(&mut cout);
                    corrupt_records += cout.corrupt_records;
                    kvs = cout.kvs;
                }
                parts = spill(&kvs, num_partitions);
            }
            let spill_sums = if spill_guard {
                parts.iter().map(integrity::kv_checksum).collect()
            } else {
                Vec::new()
            };
            Ok(MapResult {
                parts,
                spill_sums,
                block: if job.is_map_only() {
                    frame(&out.records)
                } else {
                    BlockBuilder::new()
                },
                raw_kv_records,
                raw_kv_bytes,
                segments_skipped: out.segments_skipped,
                input_bytes_pruned: out.input_bytes_pruned,
                corrupt_records,
            })
        });
        metrics.map_busy_max_ns = map_pool.makespan_ns();
        metrics.map_busy_total_ns = map_pool.total_busy_ns();
        metrics.steals = map_pool.steals;
        let mut map_results: Vec<MapResult> = Vec::with_capacity(metrics.map_tasks);
        for r in map_outs {
            match r {
                Ok(r) => {
                    metrics.map_output_records += r.raw_kv_records;
                    metrics.map_output_bytes += r.raw_kv_bytes;
                    metrics.segments_skipped += r.segments_skipped;
                    metrics.input_bytes_pruned += r.input_bytes_pruned;
                    metrics.corrupt_records_skipped += r.corrupt_records;
                    map_results.push(r);
                }
                Err((records, bytes)) => {
                    metrics.wasted_input_records += records;
                    metrics.wasted_output_bytes += bytes;
                }
            }
        }

        // Verify-on-commit gate for shuffle spills. Spill corruption is a
        // pure function of (seed, job, task, partition), decided here in the
        // serial section — the ledger never depends on worker count. With
        // checksums on, the corrupted copy is checked against the sum
        // recorded at spill time, quarantined, and the clean spill re-read
        // (in the simulator: simply kept) — so a corrupt run never reaches
        // a reducer. With checksums off, the flip lands in place and flows
        // downstream silently.
        if let Some(plan) = plan.filter(|p| p.spill_corrupt_p > 0.0) {
            for (t, r) in map_results.iter_mut().enumerate() {
                for p in 0..r.parts.len() {
                    if r.parts[p].is_empty() {
                        continue;
                    }
                    let Some(h) = plan.corrupt_spill(&job.name, t, p) else {
                        continue;
                    };
                    if self.resilience.checksums {
                        let mut bad = r.parts[p].clone();
                        if integrity::corrupt_kv(&mut bad, h) {
                            if integrity::kv_checksum(&bad) != r.spill_sums[p] {
                                metrics.corrupt_spills_detected += 1;
                                metrics.integrity_reread_bytes += r.parts[p].payload_bytes();
                            } else {
                                // A flip the checksum missed (FNV-1a makes
                                // this unconstructable, but account honestly
                                // rather than assume).
                                metrics.silent_corruptions += 1;
                                r.parts[p] = bad;
                            }
                        }
                    } else if integrity::corrupt_kv(&mut r.parts[p], h) {
                        metrics.silent_corruptions += 1;
                    }
                }
            }
        }

        let output_ds = if job.is_map_only() {
            // Map-only: one output block per non-empty map task.
            commit(map_results.iter_mut().map(|r| std::mem::take(&mut r.block)))
        } else {
            // Shuffle: hand each partition its spills in map-task order,
            // accounting shuffle volume off the offset tables in the same
            // pass — nothing is concatenated or copied.
            let mut part_spills: Vec<Vec<&KvBuffer>> = vec![Vec::new(); num_partitions];
            for r in &map_results {
                for (p, part) in r.parts.iter().enumerate().filter(|(_, part)| !part.is_empty()) {
                    metrics.shuffle_records += part.len() as u64;
                    metrics.shuffle_bytes += part.payload_bytes();
                    part_spills[p].push(part);
                }
            }
            let pairs = |ss: &[&KvBuffer]| ss.iter().map(|b| b.len()).sum::<usize>();
            metrics.reduce_tasks = part_spills.iter().filter(|ss| !ss.is_empty()).count();

            // A committed merge of a key-local reducer is cut into key-range
            // shards: cut keys from a sample, serially, then one pool pass
            // routes each spill, so a shard unit gathers only its own pairs.
            let reducer = job.reducer.as_ref().expect("checked map_only");
            let (key_local, nonempty) = (reducer.key_local(), metrics.reduce_tasks);
            let cuts: Vec<Vec<&[u8]>> = (part_spills.iter())
                .map(|ss| plan_shards(ss, shard_count(workers, key_local, nonempty, pairs(ss))))
                .collect();
            let to_route: Vec<(&KvBuffer, &[&[u8]])> = (part_spills.iter().zip(&cuts))
                .flat_map(|(ss, cuts)| ss.iter().map(move |&b| (b, cuts.as_slice())))
                .filter(|(_, cuts)| !cuts.is_empty())
                .collect();
            let (routes, route_pool) =
                pool::run_tasks(workers, to_route, |_, (buf, cuts)| Route::new(buf, cuts));
            let mut routes = routes.iter();

            // Reduce phase: flatten every partition into pool units by its
            // attempt script, computed here, serially, before any unit runs.
            // Doomed and superseded attempts merge the whole partition on one
            // unit: their kill points are defined against the serial merge.
            let mut units: Vec<(usize, Vec<Run<'_>>, UnitKind)> = Vec::new();
            let parts = part_spills.iter().zip(&cuts).enumerate();
            for (p_idx, (ss, cuts)) in parts.filter(|(_, (ss, _))| !ss.is_empty()) {
                let routed = if cuts.is_empty() { 0 } else { ss.len() };
                let rts: Vec<&Route<'_>> = routes.by_ref().take(routed).collect();
                let n = || pairs(ss);
                for kind in attempt_script(plan, job, TaskKind::Reduce, p_idx, n, &mut metrics) {
                    match kind {
                        UnitKind::Committed if routed > 0 => units.extend((0..=cuts.len())
                            .map(|s| (p_idx, rts.iter().map(|r| r.shard(s)).collect(), kind))),
                        _ => units.push((p_idx, ss.iter().copied().map(Run::new).collect(), kind)),
                    }
                }
            }
            metrics.merge_shards = units.iter().filter(|u| u.2 == UnitKind::Committed).count();

            // Execute the units through the pool. Every unit's work is a
            // pure function of its (partition, runs, kind) — results carry
            // (partition, committed block or measured waste) and arrive in
            // unit order, which is partition order with committed shards in
            // key-range order, so concatenation below reproduces the serial
            // merge byte for byte at any worker count.
            let (unit_results, reduce_pool) =
                pool::run_tasks(workers, units, |_, (p_idx, runs, kind)| {
                    let mut task = reducer.create();
                    let mut out = ReduceOutput::default();
                    let read = merge_key_groups(&runs, kind.limit(), |key, values| {
                        task.reduce(key, values, &mut out);
                    });
                    if !matches!(kind, UnitKind::Doomed { .. }) {
                        task.cleanup(&mut out);
                    }
                    if kind != UnitKind::Committed {
                        return (p_idx, Err(kind.waste(read, &out.kvs, &out.records)));
                    }
                    (p_idx, Ok((frame(&out.records), out.corrupt_records)))
                });
            // The routing pass runs before the units: its busy time adds on.
            metrics.reduce_busy_max_ns = route_pool.makespan_ns() + reduce_pool.makespan_ns();
            metrics.reduce_busy_total_ns = route_pool.total_busy_ns() + reduce_pool.total_busy_ns();
            metrics.steals += route_pool.steals + reduce_pool.steals;

            // Stitch committed shard outputs — framed inside their units —
            // back into one block per partition (unit order is already
            // canonical — see above), and fold measured waste into the
            // ledger.
            let mut per_part: Vec<(usize, BlockBuilder)> = Vec::new();
            for (p_idx, r) in unit_results {
                match r {
                    Ok((block, corrupt)) => {
                        metrics.corrupt_records_skipped += corrupt;
                        match per_part.last_mut() {
                            Some((last, acc)) if *last == p_idx => acc.append(&block),
                            _ => per_part.push((p_idx, block)),
                        }
                    }
                    Err((records, bytes)) => {
                        metrics.wasted_input_records += records;
                        metrics.wasted_output_bytes += bytes;
                    }
                }
            }
            commit(per_part.into_iter().map(|(_, block)| block))
        };

        if metrics.map_only {
            metrics.shuffle_records = 0;
            metrics.shuffle_bytes = 0;
        }
        metrics.output_records = output_ds.records as u64;
        metrics.output_bytes = output_ds.total_bytes() as u64;
        self.dfs.put(&job.output, output_ds);
        metrics.wall = start.elapsed();
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DatasetWriter;
    use crate::job::*;
    use std::sync::Arc;

    /// Classic word count over single-word records.
    struct WcMap;
    impl MapTask for WcMap {
        fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
            out.emit(record, &[1]);
        }
    }

    struct WcReduce {
        as_output: bool,
    }
    impl ReduceTask for WcReduce {
        fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
            let total: u64 = values.iter().map(|v| v[0] as u64).sum();
            if self.as_output {
                let mut rec = key.to_vec();
                rec.push(b'=');
                rec.extend_from_slice(total.to_string().as_bytes());
                out.write(&rec);
            } else {
                // Combiner path: cap each count byte at 255 (test data is
                // small).
                out.emit(key, &[total as u8]);
            }
        }
    }

    fn word_dataset(words: &[&str]) -> Dataset {
        let mut w = DatasetWriter::new(8);
        for word in words {
            w.push(word.as_bytes());
        }
        w.finish()
    }

    fn run_wordcount(with_combiner: bool) -> (Vec<String>, JobMetrics) {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&wordcount_job(with_combiner));
        let out = dfs.peek("out").unwrap();
        let mut lines: Vec<String> = out
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        lines.sort();
        (lines, m)
    }

    #[test]
    fn wordcount_correct() {
        let (lines, m) = run_wordcount(false);
        assert_eq!(lines, vec!["a=5", "b=3", "c=4"]);
        assert!(m.map_tasks > 1, "multiple splits expected");
        assert_eq!(m.input_records, 12);
        assert_eq!(m.shuffle_records, 12);
        assert_eq!(m.output_records, 3);
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        let (lines, m) = run_wordcount(true);
        assert_eq!(lines, vec!["a=5", "b=3", "c=4"]);
        assert!(
            m.shuffle_records < m.map_output_records,
            "combiner must shrink the shuffle: {} vs {}",
            m.shuffle_records,
            m.map_output_records
        );
    }

    /// Identity map-only job.
    struct IdMap;
    impl MapTask for IdMap {
        fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
            out.write(record);
        }
    }

    #[test]
    fn map_only_job_passes_records_through() {
        let dfs = SimDfs::new();
        dfs.put("in", word_dataset(&["x", "y", "z"]));
        let job = JobBuilder::new("identity")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&job);
        assert!(m.map_only);
        assert_eq!(m.shuffle_bytes, 0);
        assert_eq!(m.output_records, 3);
        assert_eq!(dfs.peek("out").unwrap().records, 3);
    }

    /// Mapper that tags records by input source — exercises multi-input jobs.
    struct TagMap;
    impl MapTask for TagMap {
        fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
            let mut rec = vec![b'0' + src.dataset as u8, b':'];
            rec.extend_from_slice(record);
            out.write(&rec);
        }
    }

    #[test]
    fn multi_input_sources_are_tagged() {
        let dfs = SimDfs::new();
        dfs.put("left", word_dataset(&["l"]));
        dfs.put("right", word_dataset(&["r"]));
        let job = JobBuilder::new("tag")
            .input("left")
            .input("right")
            .mapper(Arc::new(FnMapFactory(|| TagMap)))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        engine.run_job(&job);
        let mut recs: Vec<String> = dfs
            .peek("out")
            .unwrap()
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        recs.sort();
        assert_eq!(recs, vec!["0:l", "1:r"]);
    }

    /// Map task with per-task state + cleanup — the Algorithm 3 pattern.
    struct CountingMap {
        seen: u64,
    }
    impl MapTask for CountingMap {
        fn map(&mut self, _src: InputSrc, _record: &[u8], _out: &mut MapOutput) {
            self.seen += 1;
        }
        fn cleanup(&mut self, out: &mut MapOutput) {
            out.emit(b"count", &self.seen.to_le_bytes());
        }
    }

    struct SumReduce;
    impl ReduceTask for SumReduce {
        fn reduce(&mut self, _key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
            let total: u64 = values
                .iter()
                .map(|v| {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(v);
                    u64::from_le_bytes(b)
                })
                .sum();
            out.write(total.to_string().as_bytes());
        }
    }

    #[test]
    fn cleanup_hook_supports_per_task_aggregation() {
        let dfs = SimDfs::new();
        dfs.put("in", word_dataset(&["a"; 20]));
        let job = JobBuilder::new("count")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| CountingMap { seen: 0 })))
            .reducer(Arc::new(FnReduceFactory(|| SumReduce)))
            .output("out")
            .num_reducers(1)
            .build();
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&job);
        let recs: Vec<String> = dfs
            .peek("out")
            .unwrap()
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        assert_eq!(recs, vec!["20"]);
        // One emit per map task, not per record.
        assert_eq!(m.shuffle_records as usize, m.map_tasks);
    }

    #[test]
    fn workflow_chains_jobs() {
        let dfs = SimDfs::new();
        dfs.put("in", word_dataset(&["a", "b", "a"]));
        let j1 = JobBuilder::new("j1")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("mid")
            .build();
        let j2 = JobBuilder::new("j2")
            .input("mid")
            .mapper(Arc::new(FnMapFactory(|| WcMap)))
            .reducer(Arc::new(FnReduceFactory(|| WcReduce { as_output: true })))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        let wf = engine.try_run_workflow(&[j1, j2]).expect("no faults, no recovery");
        assert_eq!(wf.cycles(), 2);
        assert_eq!(wf.full_cycles(), 1);
        assert_eq!(wf.map_only_cycles(), 1);
        assert_eq!(dfs.peek("out").unwrap().records, 2);
    }

    #[test]
    fn keyed_job_is_served_from_the_scan_cache() {
        let cache = ScanCache::new(1 << 20);
        let run = |dfs: &SimDfs| {
            dfs.put("in", word_dataset(&["a", "b", "a"]));
            // A mapper that rewrites every record, so `out`'s bytes (and
            // sums) differ from `in`'s.
            let job = JobBuilder::new("scan")
                .input("in")
                .mapper(Arc::new(FnMapFactory(|| TagMap)))
                .output("out")
                .cache_key("k:scan")
                .build();
            let engine = Engine::pinned(dfs.clone()).with_scan_cache(cache.clone());
            (engine.try_run_workflow(&[job]).expect("no faults, no recovery"), dfs.peek("out").unwrap())
        };
        let dfs1 = SimDfs::new();
        let (wf1, out1) = run(&dfs1);
        assert_eq!(wf1.total(|j| j.scan_cache_misses), 1);
        assert_eq!(wf1.total(|j| j.scan_cache_hits), 0);

        // Second workflow, fresh DFS namespace: the keyed job never runs.
        let dfs2 = SimDfs::new();
        let (wf2, out2) = run(&dfs2);
        assert_eq!(wf2.total(|j| j.scan_cache_hits), 1);
        assert_eq!(wf2.jobs[0].input_records, 0, "hit skips the job body");
        let bytes = |d: &Dataset| {
            d.blocks.iter().map(|b| b.as_ref().to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(bytes(&out1), bytes(&out2), "hit republishes identical bytes");
        // ...with the sums sealed when the miss first wrote them.
        assert_eq!(dfs2.block_sums("out"), dfs1.block_sums("out"));
        assert_eq!(dfs2.verify("out"), Some(out2.total_bytes() as u64));
        // Unkeyed jobs never touch the cache.
        let stats_before = cache.stats();
        let dfs3 = SimDfs::new();
        dfs3.put("in", word_dataset(&["a"]));
        let plain = JobBuilder::new("plain")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("out")
            .build();
        Engine::pinned(dfs3.clone())
            .with_scan_cache(cache.clone())
            .try_run_workflow(&[plain])
            .expect("no faults, no recovery");
        assert_eq!(cache.stats(), stats_before);
    }

    fn wordcount_job(with_combiner: bool) -> Job {
        let mut builder = JobBuilder::new("wordcount")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| WcMap)))
            .reducer(Arc::new(FnReduceFactory(|| WcReduce { as_output: true })))
            .output("out")
            .num_reducers(3);
        if with_combiner {
            builder =
                builder.combiner(Arc::new(FnReduceFactory(|| WcReduce { as_output: false })));
        }
        builder.build()
    }

    fn wc_input() -> Dataset {
        word_dataset(&["a", "b", "a", "c", "a", "b", "a", "b", "c", "c", "c", "a"])
    }

    #[test]
    fn fault_free_run_counts_one_attempt_per_task() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&wordcount_job(false));
        assert_eq!(m.map_attempts, m.map_tasks as u64);
        assert_eq!(m.reduce_attempts, m.reduce_tasks as u64);
        assert_eq!(m.extra_attempts(), 0);
        assert_eq!(m.failed_attempts, 0);
        assert_eq!(m.wasted_input_records, 0);
        assert_eq!(m.backoff_s, 0.0);
    }

    #[test]
    fn chaotic_run_recovers_to_identical_output() {
        let run = |faults: Option<FaultPlan>| {
            let dfs = SimDfs::new();
            dfs.put("in", wc_input());
            let mut engine = Engine::pinned(dfs.clone());
            engine.faults = faults;
            let m = engine.run_job(&wordcount_job(true));
            let bytes: Vec<Vec<u8>> = dfs
                .peek("out")
                .unwrap()
                .blocks
                .iter()
                .map(|b| b.as_ref().to_vec())
                .collect();
            (bytes, m)
        };
        let (golden, clean) = run(None);
        let (chaotic, m) = run(Some(FaultPlan::chaotic(1)));
        assert_eq!(golden, chaotic, "recovered run must be bit-identical");
        // Committed data-flow metrics match the fault-free run exactly.
        assert_eq!(m.shuffle_records, clean.shuffle_records);
        assert_eq!(m.shuffle_bytes, clean.shuffle_bytes);
        assert_eq!(m.output_bytes, clean.output_bytes);
        // ... while the attempt ledger shows the chaos.
        assert!(m.extra_attempts() > 0, "chaotic plan must cost attempts");
    }

    #[test]
    fn injected_failures_are_ledgered() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let engine = Engine::pinned(dfs.clone())
            .with_faults(FaultPlan::failures_only(5, 0.9));
        let m = engine.run_job(&wordcount_job(false));
        assert!(m.failed_attempts > 0);
        assert_eq!(
            m.task_attempts(),
            (m.map_tasks + m.reduce_tasks) as u64 + m.failed_attempts,
        );
        assert!(m.backoff_s > 0.0);
        assert!(m.wasted_output_bytes > 0 || m.wasted_input_records > 0);
    }

    #[test]
    fn node_loss_retries_every_task_on_the_node() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let plan = FaultPlan {
            nodes: 2,
            lost_node: Some(0),
            ..FaultPlan::new(0)
        };
        let engine = Engine::pinned(dfs.clone()).with_faults(plan.clone());
        let m = engine.run_job(&wordcount_job(false));
        let on_lost_node = (0..m.map_tasks).filter(|t| plan.node_of(*t) == 0).count()
            + (0..3).filter(|p| plan.node_of(*p) == 0).count().min(m.reduce_tasks);
        assert!(m.lost_node_tasks > 0);
        assert!(m.lost_node_tasks as usize <= on_lost_node);
        let out: Vec<String> = dfs
            .peek("out")
            .unwrap()
            .iter_records()
            .map(|r| String::from_utf8(r.to_vec()).unwrap())
            .collect();
        let mut sorted = out.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["a=5", "b=3", "c=4"]);
    }

    #[test]
    fn stragglers_without_speculation_are_counted_not_duplicated() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let plan = FaultPlan {
            straggler_p: 1.0,
            speculation: false,
            ..FaultPlan::new(2)
        };
        let engine = Engine::pinned(dfs.clone()).with_faults(plan);
        let m = engine.run_job(&wordcount_job(false));
        assert_eq!(
            m.straggler_tasks,
            (m.map_tasks + m.reduce_tasks) as u64,
            "every task straggles at p=1"
        );
        assert_eq!(m.speculative_attempts, 0);
        assert_eq!(m.extra_attempts(), 0);
    }

    #[test]
    fn speculation_duplicates_stragglers() {
        let dfs = SimDfs::new();
        dfs.put("in", wc_input());
        let plan = FaultPlan {
            straggler_p: 1.0,
            ..FaultPlan::new(2)
        };
        let engine = Engine::pinned(dfs.clone()).with_faults(plan);
        let m = engine.run_job(&wordcount_job(false));
        assert_eq!(m.speculative_attempts, (m.map_tasks + m.reduce_tasks) as u64);
        assert_eq!(m.extra_attempts(), m.speculative_attempts);
        assert!(m.wasted_input_records > 0, "superseded attempts are waste");
    }

    /// A larger keyed dataset so committed reduce merges clear the
    /// MIN_SHARD_RECORDS floor and genuinely shard.
    fn big_keyed_dataset(n: usize) -> Dataset {
        let mut w = DatasetWriter::new(64 * 1024);
        let mut x = 0x9e37_79b9_u64;
        for i in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let rec = format!("k{:05}", (x.wrapping_add(i as u64)) % 512);
            w.push(rec.as_bytes());
        }
        w.finish()
    }

    struct CountReduce;
    impl ReduceTask for CountReduce {
        fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
            let mut rec = key.to_vec();
            rec.push(b'=');
            rec.extend_from_slice(values.len().to_string().as_bytes());
            out.write(&rec);
        }
    }

    fn big_count_job(key_local: bool) -> Job {
        let reducer: Arc<dyn ReduceTaskFactory> = if key_local {
            Arc::new(KeyLocal(FnReduceFactory(|| CountReduce)))
        } else {
            Arc::new(FnReduceFactory(|| CountReduce))
        };
        JobBuilder::new("bigcount")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| WcMap)))
            .reducer(reducer)
            .output("out")
            .num_reducers(2)
            .build()
    }

    fn run_big_count(workers: usize, key_local: bool) -> (Vec<Vec<u8>>, JobMetrics) {
        let dfs = SimDfs::new();
        dfs.put("in", big_keyed_dataset(12_000));
        let engine = Engine::with_workers(dfs.clone(), workers);
        let m = engine.run_job(&big_count_job(key_local));
        let bytes: Vec<Vec<u8>> = dfs
            .peek("out")
            .unwrap()
            .blocks
            .iter()
            .map(|b| b.as_ref().to_vec())
            .collect();
        (bytes, m)
    }

    #[test]
    fn sharded_key_local_reduce_is_byte_identical_to_serial() {
        let (golden, m1) = run_big_count(1, true);
        assert_eq!(
            m1.merge_shards, m1.reduce_tasks,
            "one worker must not shard"
        );
        for workers in [2, 4, 8] {
            let (sharded, m) = run_big_count(workers, true);
            assert_eq!(
                golden, sharded,
                "sharded merge must reproduce the serial bytes at {workers} workers"
            );
            assert!(
                m.merge_shards > m.reduce_tasks,
                "key-local reduce over 12k records should shard at {workers} workers \
                 (got {} shards for {} tasks)",
                m.merge_shards,
                m.reduce_tasks
            );
            assert_eq!(m.output_bytes, m1.output_bytes);
            assert_eq!(m.reduce_attempts, m1.reduce_attempts);
        }
    }

    #[test]
    fn non_key_local_reduce_never_shards() {
        let (golden, _) = run_big_count(1, false);
        let (out, m) = run_big_count(8, false);
        assert_eq!(golden, out);
        assert_eq!(
            m.merge_shards, m.reduce_tasks,
            "a reducer that did not opt in must merge serially per partition"
        );
    }

    #[test]
    fn busy_metrics_are_populated() {
        let (_, m) = run_big_count(4, true);
        assert!(m.map_busy_max_ns > 0, "map busy makespan must be measured");
        assert!(m.reduce_busy_max_ns > 0, "reduce busy makespan must be measured");
        assert!(m.map_busy_total_ns >= m.map_busy_max_ns);
        assert!(m.reduce_busy_total_ns >= m.reduce_busy_max_ns);
        assert_eq!(m.busy_makespan_ns(), m.map_busy_max_ns + m.reduce_busy_max_ns);
    }

    #[test]
    fn sharded_reduce_survives_chaos_with_identical_bytes_and_ledger() {
        let run = |workers: usize, faults: Option<FaultPlan>| {
            let dfs = SimDfs::new();
            dfs.put("in", big_keyed_dataset(12_000));
            let mut engine = Engine::with_workers(dfs.clone(), workers);
            engine.faults = faults;
            let m = engine.run_job(&big_count_job(true));
            let bytes: Vec<Vec<u8>> = dfs
                .peek("out")
                .unwrap()
                .blocks
                .iter()
                .map(|b| b.as_ref().to_vec())
                .collect();
            (bytes, m)
        };
        let (golden, _) = run(1, None);
        let (chaos1, m1) = run(1, Some(FaultPlan::chaotic(7)));
        let (chaos8, m8) = run(8, Some(FaultPlan::chaotic(7)));
        assert_eq!(golden, chaos1);
        assert_eq!(golden, chaos8);
        // The whole fault ledger — including wasted output bytes measured
        // during execution — is worker-count-independent because doomed and
        // superseded attempts always run the serial full-partition merge.
        assert_eq!(m1.reduce_attempts, m8.reduce_attempts);
        assert_eq!(m1.failed_attempts, m8.failed_attempts);
        assert_eq!(m1.wasted_input_records, m8.wasted_input_records);
        assert_eq!(m1.wasted_output_bytes, m8.wasted_output_bytes);
        assert_eq!(m1.backoff_s, m8.backoff_s);
    }

    /// A mapper factory that passes records through, whose `create` removes
    /// a dataset, and that declares some side inputs.
    struct RemovingMap {
        removes: &'static str,
        sides: Vec<String>,
    }
    impl MapTaskFactory for RemovingMap {
        fn create(&self, dfs: &SimDfs) -> Box<dyn MapTask> {
            dfs.remove(self.removes);
            Box::new(IdMap)
        }

        fn side_inputs(&self) -> Vec<String> {
            self.sides.clone()
        }
    }

    /// `base -> a`, then a job whose tasks remove `a` (`base -> b`), then
    /// `third`.
    fn losing_workflow(third: Job) -> (SimDfs, Vec<Job>) {
        let dfs = SimDfs::new();
        dfs.put("base", word_dataset(&["x", "y"]));
        let first = JobBuilder::new("first").input("base").mapper(Arc::new(FnMapFactory(|| IdMap))).output("a").build();
        let remover = Arc::new(RemovingMap { removes: "a", sides: Vec::new() });
        let second = JobBuilder::new("second").input("base").mapper(remover).output("b").build();
        (dfs, vec![first, second, third])
    }

    #[test]
    fn a_missing_intermediate_input_is_a_typed_error() {
        let third = JobBuilder::new("third").input("a").mapper(Arc::new(FnMapFactory(|| IdMap))).output("c").build();
        let (dfs, jobs) = losing_workflow(third);
        match Engine::pinned(dfs.clone()).try_run_workflow(&jobs) {
            Err(WorkflowError::MissingIntermediate { job, job_index, dataset, partial }) => {
                assert_eq!((job.as_str(), job_index, dataset.as_str()), ("third", 2, "a"));
                assert_eq!(partial.jobs.len(), 2, "the jobs before it committed");
            }
            other => panic!("expected a missing intermediate, got {:?}", other.map(|wf| wf.jobs.len())),
        }
        assert!(!dfs.contains("c"), "the reading job never ran");
    }

    #[test]
    fn a_missing_intermediate_side_input_is_a_typed_error() {
        let reader = Arc::new(RemovingMap { removes: "", sides: vec!["a".into()] });
        let third = JobBuilder::new("third").input("base").mapper(reader).output("c").build();
        let (dfs, jobs) = losing_workflow(third);
        let err = Engine::pinned(dfs).try_run_workflow(&jobs).err().map(|e| e.to_string());
        assert!(err.as_deref().is_some_and(|e| e.contains("job 2 (third) reads a")), "{err:?}");
    }

    #[test]
    fn a_continuation_counts_the_earlier_jobs_outputs_as_intermediates() {
        let third = JobBuilder::new("third").input("a").mapper(Arc::new(FnMapFactory(|| IdMap))).output("c").build();
        let (dfs, jobs) = losing_workflow(third);
        let engine = Engine::pinned(dfs);
        let done = engine.try_run_workflow(&jobs[..2]).expect("the first two jobs run");
        // Alone, `third` reads a table no job of its workflow writes: empty.
        let alone = engine.try_run_workflow(&jobs[2..]).expect("a missing base table reads as empty");
        assert_eq!(alone.jobs[0].input_records, 0);
        match engine.try_run_workflow_after(&jobs[..2], &jobs[2..], done) {
            Err(WorkflowError::MissingIntermediate { job_index, partial, .. }) => {
                assert_eq!(job_index, 2, "the index counts the earlier jobs");
                assert_eq!(partial.jobs.len(), 2, "the earlier jobs' metrics carry over");
            }
            other => panic!("expected a missing intermediate, got {:?}", other.map(|wf| wf.jobs.len())),
        }
    }

    #[test]
    fn missing_input_dataset_is_empty() {
        let dfs = SimDfs::new();
        let job = JobBuilder::new("empty")
            .input("nope")
            .mapper(Arc::new(FnMapFactory(|| IdMap)))
            .output("out")
            .build();
        let engine = Engine::pinned(dfs.clone());
        let m = engine.run_job(&job);
        assert_eq!(m.input_records, 0);
        assert_eq!(m.output_records, 0);
        assert!(dfs.contains("out"));
    }
}
