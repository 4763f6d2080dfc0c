//! Query plans: the uniform output of every engine's compiler — a job
//! sequence, driver-side fixups, an optional final map-only join, and the
//! output assembly into a [`Relation`].

use crate::aquery::{AnalyticalQuery, ColRef};
use crate::enumerate::coster::CardTag;
use crate::relops::{MapJoinCfg, MapJoinFactory, MapJoinSmall, ScanKind};
use crate::rows::RVal;
use rapida_mapred::codec::BlockBuilder;
use rapida_mapred::{
    CopyId, Dataset, Engine, Job, JobMetrics, Sealed, SimDfs, WorkflowError, WorkflowMetrics,
};
use rapida_ntga::{AggOp, AggRec};
use rapida_rdf::{Dictionary, TermId};
use rapida_sparql::ast::AggFunc;
use rapida_sparql::{Cell, Relation};
use std::fmt;
use std::sync::Arc;

/// A driver-side fixup: if a GROUP-BY-ALL block produced no groups, SPARQL
/// still defines one group (COUNT = 0, numeric aggregates unbound). Applied
/// between the block jobs and the final join without an extra MR cycle —
/// the Hive-driver analog of a short-circuit task.
#[derive(Debug, Clone)]
pub struct AllGroupFixup {
    /// The block's result dataset.
    pub dataset: String,
    /// The block id stamped on the synthesized record.
    pub block_id: u8,
    /// The block's aggregate ops (COUNT synthesizes 0, others unbound).
    pub aggs: Vec<AggOp>,
}

impl AllGroupFixup {
    /// Apply: append the synthesized record if the dataset holds no record
    /// stamped with this block's id (the dataset may be shared between
    /// blocks). A record that does not decode stamps no block. Only the ids
    /// are read: the cells decode to `()`, so the scan allocates nothing.
    pub fn apply(&self, dfs: &SimDfs) {
        let existing = dfs.peek(&self.dataset).unwrap_or_default();
        let has_block = existing.iter_records().any(|rec| {
            let id = AggRec::decode_into(rec, &mut Vec::new(), |_| (), |_| ());
            id.is_some_and(|(id, _)| id == self.block_id)
        });
        if has_block {
            return;
        }
        let rec = AggRec {
            id: self.block_id,
            key: Vec::new(),
            values: self
                .aggs
                .iter()
                .map(|op| match op {
                    AggOp::Count => Some(0.0),
                    _ => None,
                })
                .collect(),
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let mut bb = BlockBuilder::new();
        bb.push(&buf);
        let mut blocks = existing.blocks.clone();
        blocks.push(rapida_mapred::Bytes::from(bb.finish()));
        // Extend per-block record counts only when the existing dataset
        // tracks them for every block; otherwise leave them unknown.
        let mut block_records = existing.block_records.clone();
        if block_records.len() + 1 == blocks.len() {
            block_records.push(1);
        } else {
            block_records = Vec::new();
        }
        dfs.put(
            &self.dataset,
            Dataset {
                records: existing.records + 1,
                blocks,
                block_records,
            },
        );
    }
}

/// How the plan's output dataset is decoded: the scan that turns its
/// records into rows, and per projected variable the row column holding its
/// cell. A multi-block plan's output is the final join's rows, already in
/// projection order; a single-block plan's is block 0's [`AggRec`]s.
#[derive(Debug, Clone)]
pub struct OutputKind {
    /// The output dataset's scan: `Rows` or block 0's `AggRecs`.
    pub scan: ScanKind,
    /// Per projected variable, its column in the scanned row.
    pub cols: Vec<usize>,
}

/// The answer of an enumerator's dry run, kept for the chosen plan's own
/// execution to replay ([`QueryPlan::try_execute`]).
pub(crate) struct Replay {
    /// Every stored table the plan reads ([`QueryPlan::base_copies`]), with
    /// the copy the dry run read.
    inputs: Vec<(String, CopyId)>,
    /// The output dataset as the dry run left it.
    output: Sealed,
    /// The dry run's metrics, clocks zeroed: no task runs in a replay.
    metrics: WorkflowMetrics,
}

impl Replay {
    /// What a successful run `metrics` of a plan left: the copies of its
    /// stored tables taken before the run, and its output. `None` when a
    /// table or the output was missing.
    pub(crate) fn new(
        inputs: Option<Vec<(String, CopyId)>>,
        output: Option<Sealed>,
        mut metrics: WorkflowMetrics,
    ) -> Option<Replay> {
        for m in &mut metrics.jobs {
            *m = JobMetrics {
                wall: Default::default(),
                map_busy_max_ns: 0,
                map_busy_total_ns: 0,
                reduce_busy_max_ns: 0,
                reduce_busy_total_ns: 0,
                steals: 0,
                merge_shards: 0,
                ..std::mem::take(m)
            };
        }
        Some(Replay {
            inputs: inputs?,
            output: output?,
            metrics,
        })
    }
}

/// A compiled query plan.
pub struct QueryPlan {
    /// The compiling engine's name.
    pub engine: &'static str,
    /// The unique plan id embedded in this plan's intermediate dataset
    /// names (see [`next_plan_id`]); [`QueryPlan::dump`] normalizes it away.
    pub plan_id: String,
    /// The MR jobs, in order.
    pub jobs: Vec<Job>,
    /// Driver-side fixups applied after `jobs`.
    pub fixups: Vec<AllGroupFixup>,
    /// The final map-only join (absent for single-block plans).
    pub final_job: Option<Job>,
    /// The dataset holding the query output.
    pub output_dataset: String,
    /// Output decoding.
    pub output: OutputKind,
    /// The dry run that priced this plan, kept by the enumerator that chose
    /// it: equal [`Self::fingerprint`]s write the same bytes and meter the
    /// same counters, so it may be the run of a plan equal to this one.
    pub(crate) replay: Option<Replay>,
}

impl QueryPlan {
    /// Total MR cycles (the paper's plan-quality headline number).
    pub fn cycles(&self) -> usize {
        self.jobs.len() + usize::from(self.final_job.is_some())
    }

    /// Full (shuffling) cycles.
    pub fn full_cycles(&self) -> usize {
        self.jobs
            .iter()
            .chain(self.final_job.iter())
            .filter(|j| !j.is_map_only())
            .count()
    }

    /// Map-only cycles.
    pub fn map_only_cycles(&self) -> usize {
        self.cycles() - self.full_cycles()
    }

    /// A human-readable plan explanation (the `EXPLAIN` of this system):
    /// one line per MR cycle with job names, plus fixups and output shape.
    pub fn explain(&self) -> String {
        let mut s = format!(
            "{} plan: {} MR cycles ({} full, {} map-only)\n",
            self.engine,
            self.cycles(),
            self.full_cycles(),
            self.map_only_cycles()
        );
        for (i, job) in self.jobs.iter().enumerate() {
            s.push_str(&format!(
                "  MR{} [{}] {} <- {}\n",
                i + 1,
                if job.is_map_only() { "map-only" } else { "map-reduce" },
                job.name,
                render_inputs(job)
            ));
        }
        for f in &self.fixups {
            s.push_str(&format!(
                "  driver: synthesize empty-ALL group for block {} in {}\n",
                f.block_id, f.dataset
            ));
        }
        if let Some(job) = &self.final_job {
            s.push_str(&format!(
                "  MR{} [map-only] {} <- {}\n",
                self.jobs.len() + 1,
                job.name,
                render_inputs(job)
            ));
        }
        s.push_str(&format!("  output: {}\n", self.output_dataset));
        s
    }

    /// A compact, *stable* textual plan dump: like [`QueryPlan::explain`]
    /// but with the per-compilation plan id replaced by `«P»`, so two
    /// compilations of the same plan produce byte-identical dumps. This is
    /// the representation the golden plan snapshots and the enumerator's
    /// determinism test pin.
    pub fn dump(&self) -> String {
        let mut s = format!(
            "{}: {} cycles ({} full, {} map-only)\n",
            self.engine,
            self.cycles(),
            self.full_cycles(),
            self.map_only_cycles()
        );
        for (i, job) in self.jobs.iter().chain(self.final_job.iter()).enumerate() {
            s.push_str(&format!(
                "MR{} {} {}",
                i + 1,
                if job.is_map_only() { "map-only " } else { "map-reduce" },
                job.name,
            ));
            if !job.tag.is_empty() {
                s.push_str(&format!("  [{}]", job.tag));
            }
            s.push_str(&format!(
                "\n     <- {}\n     -> {}\n",
                render_inputs(job),
                job.output
            ));
        }
        for f in &self.fixups {
            s.push_str(&format!(
                "driver: empty-ALL fixup block {} in {}\n",
                f.block_id, f.dataset
            ));
        }
        s.push_str(&format!(
            "output: {} ({})\n",
            self.output_dataset,
            match &self.output.scan {
                ScanKind::Rows(_) => "rows",
                _ => "agg-recs",
            }
        ));
        without_plan_id(&s, &self.plan_id)
    }

    /// What this plan does, as text: every job's operator fingerprint
    /// ([`Job::sig`]) with its inputs, output, reducer count,
    /// combiner/reducer presence and cost tag, then the fixups and the
    /// output decoding, with the per-compilation plan id replaced by `«P»`
    /// as in [`QueryPlan::dump`]. `None` when a job carries no `sig`.
    ///
    /// Two plans compiled over one catalog with equal fingerprints run the
    /// same operators over the same datasets: on an engine without a fault
    /// plan they write the same bytes and meter the same counters, so the
    /// enumerator prices them with one execution.
    pub fn fingerprint(&self) -> Option<String> {
        use fmt::Write;
        let mut s = String::new();
        for job in self.jobs.iter().chain(self.final_job.iter()) {
            if job.sig.is_empty() {
                return None;
            }
            let _ = writeln!(
                s,
                "{} <- {:?} -> {} r{} c{} red{} [{}]",
                job.sig,
                job.inputs,
                job.output,
                job.num_reducers,
                job.combiner.is_some(),
                job.reducer.is_some(),
                job.tag
            );
        }
        let _ = write!(
            s,
            "{:?} {} {:?}",
            self.fixups, self.output_dataset, self.output
        );
        Some(without_plan_id(&s, &self.plan_id))
    }

    /// Execute against an MR engine with workflow-level checkpoint/recovery:
    /// lost jobs resume from the last committed checkpoint, and an exhausted
    /// retry budget degrades to a typed [`WorkflowError`] carrying the
    /// partial metrics instead of panicking.
    ///
    /// A plan [`crate::enumerate_best`] chose replays the dry run that
    /// priced it instead of running again, when two things hold:
    ///
    /// - `mr` carries no fault plan, no deadline and no scan cache. It is
    ///   then the dry run's engine up to its worker count, and neither the
    ///   bytes nor the counters depend on that. Faults and deadlines change
    ///   the recovery ledger, and a scan cache changes the counters.
    /// - `mr`'s DFS still holds, under every name, the stored table the dry
    ///   run read ([`SimDfs::is_current`]): the same copy, not only the same
    ///   bytes. A table stored again, or the DFS of another catalog, runs
    ///   the plan.
    ///
    /// A replay stores the kept output under the output name with
    /// [`SimDfs::put_sealed`], as a scan-cache hit does, and returns the dry
    /// run's metrics: every counter as the dry run metered it, and the
    /// clocks (`wall`, busy times, `steals`, `merge_shards`) at 0, since no
    /// task ran. The plan's intermediate datasets are not written.
    pub fn try_execute(
        &self,
        mr: &Engine,
        aq: &AnalyticalQuery,
        _dict: &Dictionary,
    ) -> Result<(Relation, WorkflowMetrics), WorkflowError> {
        let mut wf = match self.replay(mr) {
            Some(wf) => wf,
            None => self.try_run(mr)?,
        };
        let (rel, skipped) = self.decode(&mr.dfs, aq);
        // The job that wrote the output meters the records its scan drops;
        // a driver-written output (a demuxed member) has none.
        let jobs = self.jobs.iter().chain(&self.final_job).enumerate();
        let writer = jobs.filter(|(_, j)| j.output == self.output_dataset).last();
        if let Some(m) = writer.and_then(|(i, _)| wf.jobs.get_mut(i)) {
            m.corrupt_records_skipped += skipped;
        }
        Ok((rel, wf))
    }

    /// Replay the kept dry run on `mr`, if it may (see [`Self::try_execute`]).
    fn replay(&self, mr: &Engine) -> Option<WorkflowMetrics> {
        let kept = self.replay.as_ref()?;
        let plain =
            mr.faults.is_none() && mr.resilience.deadline.is_none() && mr.scan_cache.is_none();
        let current = kept
            .inputs
            .iter()
            .all(|(name, id)| mr.dfs.is_current(name, id));
        if !(plain && current) {
            return None;
        }
        mr.dfs.put_sealed(&self.output_dataset, kept.output.clone());
        Some(kept.metrics.clone())
    }

    /// The copy of every stored table the plan reads — each job input and
    /// broadcast side that no job of the plan writes — as `dfs` holds them
    /// now. `None` when one is missing.
    pub(crate) fn base_copies(&self, dfs: &SimDfs) -> Option<Vec<(String, CopyId)>> {
        let jobs = || self.jobs.iter().chain(self.final_job.iter());
        let mut names: Vec<String> = jobs()
            .flat_map(|j| j.inputs.iter().cloned().chain(j.mapper.side_inputs()))
            .filter(|name| !jobs().any(|j| &j.output == name))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| dfs.copy_of(&name).map(|id| (name, id)))
            .collect()
    }

    /// Run the workflow — jobs, fixups, final join — and return its metrics,
    /// leaving the output dataset in the DFS undecoded. What a caller that
    /// only prices the plan needs (the enumerator's dry runs). It never
    /// replays.
    pub fn try_run(&self, mr: &Engine) -> Result<WorkflowMetrics, WorkflowError> {
        let wf = mr.try_run_workflow(&self.jobs)?;
        for f in &self.fixups {
            // A fixup reads its block's output: a lost one is no empty block.
            if self.jobs.iter().any(|j| j.output == f.dataset) && !mr.dfs.contains(&f.dataset) {
                return Err(WorkflowError::MissingIntermediate {
                    job: format!("empty-ALL fixup of block {}", f.block_id),
                    job_index: self.jobs.len(),
                    dataset: f.dataset.clone(),
                    partial: Box::new(wf),
                });
            }
            f.apply(&mr.dfs);
        }
        // The final join continues the workflow: it is job `jobs.len()`, on
        // the block jobs' metrics and recovery ledger.
        match &self.final_job {
            Some(job) => mr.try_run_workflow_after(&self.jobs, std::slice::from_ref(job), wf),
            None => Ok(wf),
        }
    }

    /// Remove the plan's intermediate datasets from the DFS (everything the
    /// jobs wrote except the final output). Call after the result has been
    /// assembled; benchmark loops use this to keep the simulated DFS from
    /// accumulating dead data.
    pub fn cleanup(&self, dfs: &SimDfs) {
        for job in self.jobs.iter().chain(self.final_job.iter()) {
            if job.output != self.output_dataset {
                dfs.remove(&job.output);
            }
        }
    }

    /// Decode the output dataset into a [`Relation`] over the outer
    /// projection.
    pub fn assemble(&self, dfs: &SimDfs, aq: &AnalyticalQuery, _dict: &Dictionary) -> Relation {
        self.decode(dfs, aq).0
    }

    /// [`Self::assemble`], and the number of records that did not decode:
    /// each is dropped from the relation.
    fn decode(&self, dfs: &SimDfs, aq: &AnalyticalQuery) -> (Relation, u64) {
        let vars = aq.projection.clone();
        let Some(ds) = dfs.peek(&self.output_dataset) else {
            return (Relation::empty(vars), 0);
        };
        let OutputKind { scan, cols } = &self.output;
        let mut rows = Vec::with_capacity(ds.records);
        let mut row_buf = Vec::new();
        let mut skipped = 0;
        for rec in ds.iter_records() {
            let decoded = scan.scan(rec, &mut row_buf, |row| {
                rows.push(cols.iter().map(|&c| rval_to_cell(&row[c])).collect());
            });
            skipped += u64::from(!decoded);
        }
        (Relation { vars, rows }, skipped)
    }
}

/// `s` with the per-compilation plan id `plan_id` replaced by `«P»`, so
/// that two compilations of one plan read the same.
fn without_plan_id(s: &str, plan_id: &str) -> String {
    if plan_id.is_empty() {
        s.to_string()
    } else {
        s.replace(plan_id, "«P»")
    }
}

/// A job's inputs as [`QueryPlan::explain`] and [`QueryPlan::dump`] show
/// them: each base table with its scan-kind annotation, keyed on the storage
/// layer's naming scheme (see [`rapida_storage::scan_class`]) — full VP
/// tables vs ExtVP semi-join reductions. Intermediate datasets
/// (plan-id-prefixed) and triplegroup partitions get no annotation.
fn render_inputs(job: &Job) -> String {
    let inputs: Vec<String> = job
        .inputs
        .iter()
        .map(
            |i| match rapida_storage::scan_class(i).and_then(|c| c.plan_label()) {
                Some(kind) => format!("{i} {kind}"),
                None => i.clone(),
            },
        )
        .collect();
    inputs.join(", ")
}

/// Attach cross-query scan-cache keys to `jobs`, compiled under plan id
/// `plan_id`.
///
/// `plan_sig` must uniquely determine the whole compilation: the caller
/// folds in whether the jobs were compiled alone (`solo|…`) or as a fusion
/// group's shared jobs (`fused|…`), the engine name, the full planner
/// configuration, and a canonical signature of every analytical query
/// compiled (see [`crate::AnalyticalQuery::signature`]). Planning is a pure
/// function of those inputs, so every job's output bytes are determined by
/// `(plan_sig, job position)` plus the base datasets — and the cache is only
/// sound while it is bound to **one** loaded catalog, which is the serving
/// layer's contract (one cache per server, one server per catalog). The
/// plan id is normalized out of names so
/// recompilations of the same query share cache entries, including the
/// scan-kind-bearing base inputs (`vp_*`, `extvp_*`, `tg_ec*`) the key
/// embeds via the normalized input list.
pub fn attach_scan_cache_keys<'j>(
    jobs: impl IntoIterator<Item = &'j mut Job>,
    plan_id: &str,
    plan_sig: &str,
) {
    for (slot, job) in jobs.into_iter().enumerate() {
        let inputs: Vec<String> = job
            .inputs
            .iter()
            .map(|i| match rapida_storage::scan_class(i) {
                Some(class) => format!("{i}#{class}"),
                None => without_plan_id(i, plan_id),
            })
            .collect();
        job.cache_key = Some(format!(
            "{plan_sig}|#{slot}|{}->{}<-[{}]",
            without_plan_id(&job.name, plan_id),
            without_plan_id(&job.output, plan_id),
            inputs.join(",")
        ));
    }
}

fn rval_to_cell(v: &RVal) -> Cell {
    match v {
        RVal::Null => Cell::Null,
        RVal::Id(i) => Cell::Term(TermId(*i)),
        RVal::Num(n) => Cell::Num(*n),
    }
}

/// Map the AST aggregate function to the operator-level op.
pub fn agg_op_of(f: AggFunc) -> AggOp {
    match f {
        AggFunc::Count => AggOp::Count,
        AggFunc::Sum => AggOp::Sum,
        AggFunc::Avg => AggOp::Avg,
        AggFunc::Min => AggOp::Min,
        AggFunc::Max => AggOp::Max,
    }
}

/// Errors from plan compilation.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// IR extraction / analysis failure.
    Extract(crate::aquery::ExtractError),
    /// The construct is outside the engine subset.
    Unsupported(String),
    /// A workflow exhausted its recovery budget: a plan's execution, or a
    /// candidate's dry run while the enumerator was pricing it.
    Workflow(String),
    /// Record `record` (0-based, in dataset order) of an intermediate
    /// dataset the plan consumes does not decode.
    CorruptRecord {
        /// The dataset holding the record.
        dataset: String,
        /// The record's index.
        record: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Extract(e) => write!(f, "{e}"),
            PlanError::Unsupported(m) => write!(f, "unsupported by this engine: {m}"),
            PlanError::Workflow(m) => write!(f, "plan workflow failed: {m}"),
            PlanError::CorruptRecord { dataset, record } => {
                write!(f, "record {record} of dataset {dataset} does not decode")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl From<crate::aquery::ExtractError> for PlanError {
    fn from(e: crate::aquery::ExtractError) -> Self {
        PlanError::Extract(e)
    }
}

impl From<WorkflowError> for PlanError {
    fn from(e: WorkflowError) -> Self {
        PlanError::Workflow(e.to_string())
    }
}

/// The engine interface: compile an analytical query over a catalog into a
/// [`QueryPlan`].
pub trait QueryEngine {
    /// Engine name (matches the paper's system names).
    fn name(&self) -> &'static str;
    /// Compile a plan.
    fn plan(
        &self,
        aq: &AnalyticalQuery,
        cat: &crate::catalog::DataCatalog,
    ) -> Result<QueryPlan, PlanError>;
}

/// The empty-ALL fixup of every GROUP-BY-ALL block of `aq`, block `i`'s
/// output being `block_datasets[i]`.
pub(crate) fn all_group_fixups(aq: &AnalyticalQuery, block_datasets: &[String]) -> Vec<AllGroupFixup> {
    aq.blocks
        .iter()
        .zip(block_datasets)
        .enumerate()
        .filter(|(_, (b, _))| b.group_by.is_empty())
        .map(|(i, (b, dataset))| AllGroupFixup {
            dataset: dataset.clone(),
            block_id: i as u8,
            aggs: b.aggregates.iter().map(|a| agg_op_of(a.func)).collect(),
        })
        .collect()
}

/// Build the standard fixups + final join for a multi-block plan, given the
/// per-block AggRec dataset names. The final join is a broadcast
/// [`MapJoinCfg`]: block 0's `AggRecs` scan is streamed, every other block
/// is a broadcast side. Single-block plans decode block 0's `AggRecs`
/// instead (no extra cycle, matching the paper's cycle counts).
pub fn finish_plan(
    engine: &'static str,
    aq: &AnalyticalQuery,
    jobs: Vec<Job>,
    block_datasets: Vec<String>,
    plan_id: &str,
) -> Result<QueryPlan, PlanError> {
    let resolved = aq.resolve_projection()?;
    let fixups = all_group_fixups(aq, &block_datasets);

    // Block b's scanned row is its keys then its aggregates; the final
    // join's accumulated row is every block's, in block order.
    let scans: Vec<ScanKind> = aq
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| ScanKind::AggRecs {
            block: i as u8,
            keys: b.group_by.len(),
            aggs: b.aggregates.len(),
        })
        .collect();
    let (mut offsets, mut at) = (Vec::with_capacity(scans.len()), 0);
    for s in &scans {
        offsets.push(at);
        at += s.width();
    }
    let col_of = |b: usize, c: &ColRef| match c {
        ColRef::Key(k) => offsets[b] + k,
        ColRef::Agg(a) => offsets[b] + aq.blocks[b].group_by.len() + a,
    };
    let projection: Vec<usize> = resolved.iter().map(|(b, c)| col_of(*b, c)).collect();
    let stream = scans[0].clone();
    if aq.blocks.len() == 1 {
        return Ok(QueryPlan {
            engine,
            plan_id: plan_id.to_string(),
            jobs,
            fixups,
            final_job: None,
            output_dataset: block_datasets[0].clone(),
            output: OutputKind {
                scan: stream,
                cols: projection,
            },
            replay: None,
        });
    }

    // Multi-block: final map-only join. Block j joins the accumulated
    // blocks on its grouping keys shared with any earlier block: the first
    // shared key is the broadcast key, the rest are equality checks. No
    // shared key is a cross join (GROUP BY ALL blocks).
    let mut smalls = Vec::with_capacity(aq.blocks.len() - 1);
    let mut eq_checks = Vec::new();
    for (j, scan) in scans.into_iter().enumerate().skip(1) {
        // Per shared key: (its first earlier block's column, its own key).
        let mut pairs = aq.blocks[j].group_by.iter().enumerate().filter_map(|(kj, v)| {
            (0..j).find_map(|b| {
                let kb = aq.blocks[b].group_by.iter().position(|g| g == v)?;
                Some((offsets[b] + kb, kj))
            })
        });
        let key = pairs.next().map(|(probe, own)| (own, probe));
        eq_checks.extend(pairs.map(|(probe, own)| (probe, offsets[j] + own)));
        smalls.push(MapJoinSmall {
            dataset: block_datasets[j].clone(),
            scan,
            key,
            optional: false,
            scan_preds: Vec::new(),
        });
    }
    let out_name = format!("{plan_id}_final");
    let cols: Vec<usize> = (0..projection.len()).collect();
    let cfg = Arc::new(MapJoinCfg {
        stream,
        stream_preds: Vec::new(),
        smalls,
        output_cols: projection,
        eq_checks,
        dict: Arc::default(),
    });
    let final_job = rapida_mapred::JobBuilder::new(format!("{engine}:final-join"))
        .input(block_datasets[0].clone())
        .sig_of(&cfg)
        .mapper(Arc::new(MapJoinFactory::new(cfg)))
        .output(out_name.clone())
        .tag(CardTag::Final)
        .build();
    Ok(QueryPlan {
        engine,
        plan_id: plan_id.to_string(),
        jobs,
        fixups,
        final_job: Some(final_job),
        output_dataset: out_name,
        output: OutputKind {
            scan: ScanKind::Rows(cols.len()),
            cols,
        },
        replay: None,
    })
}

/// Monotonic plan-id generator: keeps dataset names unique within a shared
/// DFS across engines and queries.
pub fn next_plan_id(prefix: &str) -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}{}", COUNTER.fetch_add(1, Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixup_synthesizes_single_all_group() {
        let dfs = SimDfs::new();
        let f = AllGroupFixup {
            dataset: "blk".into(),
            block_id: 1,
            aggs: vec![AggOp::Count, AggOp::Sum],
        };
        f.apply(&dfs);
        let ds = dfs.peek("blk").unwrap();
        assert_eq!(ds.records, 1);
        let rec = AggRec::decode(ds.iter_records().next().unwrap()).unwrap();
        assert_eq!(rec.values, vec![Some(0.0), None]);
        // Re-applying over a non-empty dataset is a no-op.
        f.apply(&dfs);
        assert_eq!(dfs.peek("blk").unwrap().records, 1);
    }

    #[test]
    fn plan_ids_are_unique() {
        let a = next_plan_id("x");
        let b = next_plan_id("x");
        assert_ne!(a, b);
    }

    #[test]
    fn agg_op_mapping() {
        assert_eq!(agg_op_of(AggFunc::Count), AggOp::Count);
        assert_eq!(agg_op_of(AggFunc::Avg), AggOp::Avg);
    }
}
