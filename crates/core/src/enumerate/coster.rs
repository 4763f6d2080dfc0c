//! Physical-plan pricing: synthesize estimated [`JobMetrics`] for every job
//! of a compiled [`QueryPlan`] from the statistics-derived cardinality
//! context, and sum [`ClusterModel::job_time`] over them.
//!
//! The estimator never executes anything. Base-table input sizes are exact
//! (the VP / triplegroup datasets exist in the DFS at plan time);
//! intermediate sizes come from the producing job's [`CardTag`] — `"star u0
//! s1"`, `"join u0 k2"`, `"agg b0"`, … — resolved against the [`CardCtx`] built
//! from the same statistics the memo search uses. The estimate is therefore
//! a pure function of (query, statistics, model): good enough to pick the
//! plans worth a dry run, cheap enough to price dozens of candidates. A star
//! job that reads ExtVP reductions emits its star's rows scaled by their
//! selectivities, the factor S2RDF keeps per ExtVP table (`extvp_cuts`), so
//! the joins after it shrink too.

use crate::catalog::DataCatalog;
use crate::plan::QueryPlan;
use rapida_mapred::{ClusterModel, Job, JobMetrics};
use rapida_storage::ExtVpKind;
use std::collections::BTreeMap;
use std::fmt;

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
    /// Expected output rows of a job tagged `tag`; `None` when the tag
    /// names a unit, star, cycle or block this context does not have.
    pub fn rows(&self, tag: CardTag) -> Option<f64> {
        match tag {
            CardTag::Star { unit, star } => self.star_rows.get(unit)?.get(star).copied(),
            CardTag::Join { unit, cycle } => self.join_rows.get(unit)?.get(cycle).copied(),
            CardTag::Agg { block } => self.agg_rows.get(block).copied(),
            CardTag::AggPar | CardTag::AggShared => Some(self.agg_rows.iter().sum()),
            CardTag::Extract { block } => self.block_rows.get(block).copied(),
            CardTag::Final => Some(self.agg_rows.iter().cloned().fold(0.0, f64::max)),
        }
    }
}

/// The cost-tag vocabulary: what a planned job emits, in [`CardCtx`]'s
/// terms. Planners print it onto [`Job::tag`]; the coster parses it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardTag {
    /// Star `star` of planning unit `unit` (`star u0 s1`).
    Star {
        /// Planning unit.
        unit: usize,
        /// Star within the unit.
        star: usize,
    },
    /// Join cycle `cycle` (0-based) of planning unit `unit` (`join u0 k1`).
    Join {
        /// Planning unit.
        unit: usize,
        /// Join cycle within the unit, in the plan's edge order.
        cycle: usize,
    },
    /// Block `block`'s aggregation (`agg b0`).
    Agg {
        /// Grouping block.
        block: usize,
    },
    /// Every block aggregated in one parallel Agg-Join (`agg-par`).
    AggPar,
    /// Every block aggregated over one shared scan (`agg-shared`).
    AggShared,
    /// Block `block`'s extraction from the composite (`extract b0`).
    Extract {
        /// Grouping block.
        block: usize,
    },
    /// The final join of the block results (`final`).
    Final,
}

impl CardTag {
    /// The tag printed on a job, or `None` when `tag` is not one this
    /// vocabulary prints (an untagged job's tag is empty).
    pub fn parse(tag: &str) -> Option<CardTag> {
        let mut words = tag.split(' ');
        let head = words.next()?;
        let mut idx =
            |prefix: char| -> Option<usize> { words.next()?.strip_prefix(prefix)?.parse().ok() };
        let parsed = match head {
            "star" => CardTag::Star {
                unit: idx('u')?,
                star: idx('s')?,
            },
            "join" => CardTag::Join {
                unit: idx('u')?,
                cycle: idx('k')?,
            },
            "agg" => CardTag::Agg { block: idx('b')? },
            "agg-par" => CardTag::AggPar,
            "agg-shared" => CardTag::AggShared,
            "extract" => CardTag::Extract { block: idx('b')? },
            "final" => CardTag::Final,
            _ => return None,
        };
        words.next().is_none().then_some(parsed)
    }
}

impl fmt::Display for CardTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CardTag::Star { unit, star } => write!(f, "star u{unit} s{star}"),
            CardTag::Join { unit, cycle } => write!(f, "join u{unit} k{cycle}"),
            CardTag::Agg { block } => write!(f, "agg b{block}"),
            CardTag::AggPar => f.write_str("agg-par"),
            CardTag::AggShared => f.write_str("agg-shared"),
            CardTag::Extract { block } => write!(f, "extract b{block}"),
            CardTag::Final => f.write_str("final"),
        }
    }
}

impl From<CardTag> for String {
    fn from(tag: CardTag) -> String {
        tag.to_string()
    }
}

/// Per star job of `plan` — `(unit, star, factor)` — the share of its
/// star's rows left by the OS/SO ExtVP reductions the job reads, as job
/// inputs or as broadcast sides: the product of their selectivities. An OS
/// or SO reduction keeps the rows whose join key the star's neighbour has,
/// which the unreduced star statistics cannot see. An SS reduction's
/// partner is a pattern of the same star, whose join already drops those
/// rows, so it cuts nothing.
pub(crate) fn extvp_cuts(cat: &DataCatalog, plan: &QueryPlan) -> Vec<(usize, usize, f64)> {
    let selectivity = |name: &str| {
        if !name.starts_with("extvp_") {
            return None;
        }
        let e = cat.vp.ext_tables().iter().find(|e| e.dataset == name)?;
        (e.kind != ExtVpKind::SS).then_some(e.selectivity)
    };
    plan.jobs
        .iter()
        .filter_map(|job| match CardTag::parse(&job.tag)? {
            CardTag::Star { unit, star } => {
                let sides = job.mapper.side_inputs();
                let cut: f64 = job
                    .inputs
                    .iter()
                    .chain(&sides)
                    .filter_map(|name| selectivity(name))
                    .product();
                (cut < 1.0).then_some((unit, star, cut))
            }
            _ => None,
        })
        .collect()
}

/// Estimated simulated cost of a plan, in model seconds.
pub fn estimate_plan(
    model: &ClusterModel,
    cat: &DataCatalog,
    plan: &QueryPlan,
    ctx: &CardCtx,
) -> f64 {
    let mut total = 0.0;
    for m in estimate_jobs(cat, plan, ctx) {
        total += model.job_time(&m);
    }
    total
}

/// The estimated metrics of every job of `plan`, final join last.
pub(crate) fn estimate_jobs(cat: &DataCatalog, plan: &QueryPlan, ctx: &CardCtx) -> Vec<JobMetrics> {
    // Intermediate sizes recorded as jobs are walked: name -> (rows, bytes).
    let mut inter: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut out = Vec::with_capacity(plan.cycles());
    for job in plan.jobs.iter().chain(plan.final_job.iter()) {
        let m = estimate_job(cat, job, ctx, &inter);
        inter.insert(
            job.output.as_str(),
            (m.output_records as f64, m.output_bytes as f64),
        );
        out.push(m);
    }
    out
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
    let tag = CardTag::parse(&job.tag);
    let out_rows = tag.and_then(|t| ctx.rows(t)).unwrap_or(input_rows).max(0.0);
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
        // One map-output kv per input record; an aggregation's map-side
        // combiner caps each mapper's emission at the group count.
        let emitted = input_rows;
        let aggregates = matches!(
            tag,
            Some(CardTag::Agg { .. } | CardTag::AggPar | CardTag::AggShared)
        );
        let shuffled = if aggregates {
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
        let rows = |tag: &str| CardTag::parse(tag).and_then(|t| ctx.rows(t));
        assert_eq!(rows("star u0 s1"), Some(50.0));
        assert_eq!(rows("star u1 s0"), Some(7.0));
        assert_eq!(rows("join u0 k1"), Some(20.0));
        assert_eq!(rows("agg b1"), Some(3.0));
        assert_eq!(rows("agg-par"), Some(13.0));
        assert_eq!(rows("extract b0"), Some(80.0));
        assert_eq!(rows("final"), Some(10.0));
        assert_eq!(rows(""), None);
        assert_eq!(rows("join u9 k0"), None);
    }

    /// Print → parse → print is the identity on every tag, and nothing
    /// else a planner could write parses.
    #[test]
    fn every_tag_round_trips_through_its_text() {
        for i in 0..=64 {
            for j in 0..=64 {
                let tags = [
                    CardTag::Star { unit: i, star: j },
                    CardTag::Join { unit: i, cycle: j },
                    CardTag::Agg { block: i },
                    CardTag::AggPar,
                    CardTag::AggShared,
                    CardTag::Extract { block: i },
                    CardTag::Final,
                ];
                for tag in tags {
                    let text = tag.to_string();
                    assert_eq!(CardTag::parse(&text), Some(tag), "{text}");
                    assert_eq!(String::from(tag), text);
                }
            }
        }
        for bad in [
            "",
            "star u0",
            "star s0 u1",
            "join u0 k1 x",
            "agg",
            "agg bx",
            "final b0",
        ] {
            assert_eq!(CardTag::parse(bad), None, "{bad:?}");
        }
    }
}
