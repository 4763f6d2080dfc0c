//! Physical-plan pricing: synthesize estimated [`JobMetrics`] for every job
//! of a compiled [`QueryPlan`] from the statistics-derived cardinality
//! context, and sum [`ClusterModel::job_time`] over them.
//!
//! The estimator never executes anything. Base-table input sizes are exact
//! (the VP / triplegroup datasets exist in the DFS at plan time);
//! intermediate sizes come from the producing job's tag — `"star u0 s1"`,
//! `"join u0 k2"`, `"agg b0"`, … — resolved against the [`CardCtx`] built
//! from the same statistics the memo search uses. The estimate is therefore
//! a pure function of (query, statistics, model): good enough to pick the
//! plans worth a dry run, cheap enough to price dozens of candidates. It is
//! blind to ExtVP reductions — a substituted scan's rows are the unreduced
//! star's — which is why the enumerator also dry-runs the other ExtVP arm.

use crate::catalog::DataCatalog;
use crate::plan::QueryPlan;
use rapida_mapred::{ClusterModel, Job, JobMetrics};
use std::collections::BTreeMap;

/// Bytes per encoded intermediate record when the input gives no signal.
const DEFAULT_REC_BYTES: f64 = 24.0;
/// Split size used to estimate map-task counts over intermediates.
const SPLIT_BYTES: f64 = 256.0 * 1024.0;

/// Cardinality context of one candidate plan: what each tagged job is
/// expected to emit.
#[derive(Debug, Clone, Default)]
pub struct CardCtx {
    /// `star_rows[u][s]` — rows of star `s` of planning unit `u`.
    pub star_rows: Vec<Vec<f64>>,
    /// `join_rows[u][k]` — rows after the `k`-th join cycle of unit `u`,
    /// following the candidate's effective edge order.
    pub join_rows: Vec<Vec<f64>>,
    /// Per block: rows feeding that block's aggregation.
    pub block_rows: Vec<f64>,
    /// Per block: estimated group count (NDV product capped by input rows).
    pub agg_rows: Vec<f64>,
}

impl CardCtx {
    fn star(&self, u: usize, s: usize) -> Option<f64> {
        self.star_rows.get(u)?.get(s).copied()
    }

    fn join(&self, u: usize, k: usize) -> Option<f64> {
        self.join_rows.get(u)?.get(k).copied()
    }

    /// Expected output rows of a job given its tag; `None` for untagged or
    /// unrecognized jobs (treated as pass-through).
    pub fn rows_for_tag(&self, tag: &str) -> Option<f64> {
        let mut parts = tag.split(' ');
        match parts.next()? {
            "star" => {
                let u = parse_idx(parts.next()?, 'u')?;
                let s = parse_idx(parts.next()?, 's')?;
                self.star(u, s)
            }
            "join" => {
                let u = parse_idx(parts.next()?, 'u')?;
                let k = parse_idx(parts.next()?, 'k')?;
                self.join(u, k)
            }
            "agg" => {
                let b = parse_idx(parts.next()?, 'b')?;
                self.agg_rows.get(b).copied()
            }
            "agg-par" | "agg-shared" => Some(self.agg_rows.iter().sum()),
            "extract" => {
                let b = parse_idx(parts.next()?, 'b')?;
                self.block_rows.get(b).copied()
            }
            "final" => Some(self.agg_rows.iter().cloned().fold(0.0, f64::max)),
            _ => None,
        }
    }
}

fn parse_idx(token: &str, prefix: char) -> Option<usize> {
    token.strip_prefix(prefix)?.parse().ok()
}

/// Estimated simulated cost of a plan, in model seconds.
pub fn estimate_plan(
    model: &ClusterModel,
    cat: &DataCatalog,
    plan: &QueryPlan,
    ctx: &CardCtx,
) -> f64 {
    // Intermediate sizes recorded as jobs are walked: name -> (rows, bytes).
    let mut inter: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut total = 0.0;
    for job in plan.jobs.iter().chain(plan.final_job.iter()) {
        let m = estimate_job(cat, job, ctx, &inter);
        total += model.job_time(&m);
        inter.insert(
            job.output.as_str(),
            (m.output_records as f64, m.output_bytes as f64),
        );
    }
    total
}

fn estimate_job(
    cat: &DataCatalog,
    job: &Job,
    ctx: &CardCtx,
    inter: &BTreeMap<&str, (f64, f64)>,
) -> JobMetrics {
    let mut input_rows = 0.0;
    let mut input_bytes = 0.0;
    let mut splits = 0usize;
    for name in &job.inputs {
        if let Some((rows, bytes)) = inter.get(name.as_str()) {
            input_rows += rows;
            input_bytes += bytes;
            splits += (bytes / SPLIT_BYTES).ceil().max(1.0) as usize;
        } else if let Some(ds) = cat.dfs.peek(name) {
            input_rows += ds.records as f64;
            input_bytes += ds.total_bytes() as f64;
            splits += ds.blocks.len().max(1);
        }
    }
    let rec_bytes = if input_rows > 0.0 {
        (input_bytes / input_rows).clamp(8.0, 64.0)
    } else {
        DEFAULT_REC_BYTES
    };
    let out_rows = ctx.rows_for_tag(&job.tag).unwrap_or(input_rows).max(0.0);
    let out_bytes = out_rows * rec_bytes;

    let mut m = JobMetrics {
        name: job.name.clone(),
        map_only: job.is_map_only(),
        map_tasks: splits.max(1),
        input_bytes: input_bytes as u64,
        input_records: input_rows as u64,
        output_records: out_rows as u64,
        output_bytes: out_bytes as u64,
        ..Default::default()
    };
    if !m.map_only {
        // One map-output kv per input record; aggregation tags assume the
        // map-side combiner caps each mapper's emission at the group count.
        let emitted = input_rows;
        let shuffled = if job.tag.starts_with("agg") {
            emitted.min(out_rows * m.map_tasks as f64)
        } else {
            emitted
        };
        m.map_output_records = emitted as u64;
        m.map_output_bytes = (emitted * rec_bytes) as u64;
        m.shuffle_records = shuffled as u64;
        m.shuffle_bytes = (shuffled * rec_bytes) as u64;
        m.reduce_tasks = (shuffled as usize).clamp(1, job.num_reducers.max(1));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_resolve_against_the_context() {
        let ctx = CardCtx {
            star_rows: vec![vec![100.0, 50.0], vec![7.0]],
            join_rows: vec![vec![80.0, 20.0]],
            block_rows: vec![80.0, 7.0],
            agg_rows: vec![10.0, 3.0],
        };
        assert_eq!(ctx.rows_for_tag("star u0 s1"), Some(50.0));
        assert_eq!(ctx.rows_for_tag("star u1 s0"), Some(7.0));
        assert_eq!(ctx.rows_for_tag("join u0 k1"), Some(20.0));
        assert_eq!(ctx.rows_for_tag("agg b1"), Some(3.0));
        assert_eq!(ctx.rows_for_tag("agg-par"), Some(13.0));
        assert_eq!(ctx.rows_for_tag("extract b0"), Some(80.0));
        assert_eq!(ctx.rows_for_tag("final"), Some(10.0));
        assert_eq!(ctx.rows_for_tag(""), None);
        assert_eq!(ctx.rows_for_tag("join u9 k0"), None);
    }
}
