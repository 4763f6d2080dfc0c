//! Cost-based plan enumeration: a mini-Volcano optimizer over the engines'
//! physical plan families.
//!
//! The enumerator explores a deterministic candidate space per family —
//! star-grouping alternatives (naive vs composite/MQO shapes), α-join
//! placement and parallel-vs-sequential aggregation for the NTGA engines,
//! map-join vs shuffle-join thresholds and aggregation placement for the
//! Hive engines, plus memo-searched star-join orders ([`memo`]) — compiles
//! each alternative to an ordinary [`QueryPlan`] through the *fixed*
//! engines, and prices it in two phases:
//!
//! 1. **Estimate** ([`coster`]): synthesize [`JobMetrics`] for every job
//!    from per-predicate statistics and price them with
//!    [`ClusterModel::job_time`]. Pure function of (query, stats, model).
//! 2. **Dry-run**: the shortlist of cheapest estimates plus the family's
//!    fixed incumbent plans is executed on the deterministic simulator —
//!    one pool task per candidate, each running its whole workflow on a
//!    1-worker engine — and re-priced from *measured* metrics via
//!    [`ClusterModel::workflow_time`]. The measured-cheapest plan wins.
//!
//! Shortlisted plans that are the same plan — equal
//! [`QueryPlan::fingerprint`]s, which happens whenever a knob is vacuous on
//! this query — are executed once: the first of them runs and its twins are
//! reported at its measured cost.
//!
//! A shortlisted plan is not executed when its cost floor (Σ
//! [`ClusterModel::job_time_floor`] over its jobs, known from the compiled
//! plan alone) already exceeds the best measured cost: its measured cost
//! could only be higher still, so it cannot win or even tie. Plans whose
//! floor exceeds the shortlist's cheapest *estimate* wait for the first
//! wave's measurements and then run only if that test lets them. The chosen
//! plan's measured cost is therefore never worse than any fixed plan's —
//! by measurement for the incumbents that ran, by the bound for those that
//! did not — the invariant `tests/prop_plan_choice.rs` pins. Candidate
//! order, the memo and the simulator are deterministic, measured metrics do
//! not depend on worker counts or on which candidates run side by side, and
//! results come back in candidate order, so the choice is a pure function
//! of (query, statistics, cluster model).

pub mod coster;
pub mod memo;

use crate::aquery::{resolve_block_var, AnalyticalQuery, BlockVarBinding};
use crate::catalog::DataCatalog;
use crate::composite::CompositeOutcome;
use crate::engines::hive::{is_permutation, HiveConfig, HiveMqo, HiveNaive};
use crate::engines::rapid::{RapidAnalytics, RapidPlus};
use crate::plan::{PlanError, QueryEngine, QueryPlan};
use coster::CardCtx;
use memo::UnitGraph;
use rapida_mapred::{pool, ClusterModel, Engine};
use rapida_rdf::TermId;
use rapida_sparql::analysis::StarDecomposition;
use rapida_sparql::ast::Var;

/// How many non-incumbent candidates advance from the estimate phase to the
/// measured dry-run.
const SHORTLIST: usize = 4;

/// The two physical plan families (matching the paper's system pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Relational VP plans: Hive (Naive) and Hive (MQO) shapes.
    Hive,
    /// NTGA triplegroup plans: RAPID+ and RAPIDAnalytics shapes.
    Rapid,
}

/// One explored alternative, reported for experiments and tests.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// Stable candidate label (shape + knobs).
    pub name: String,
    /// Is this one of the family's fixed default plans?
    pub incumbent: bool,
    /// MR cycles of the compiled plan.
    pub cycles: usize,
    /// Phase-1 estimated cost, model seconds.
    pub estimated_s: f64,
    /// Phase-2 measured cost (dry run on the simulator) — this candidate's
    /// own run, or that of an earlier shortlisted candidate that compiled to
    /// the same plan ([`QueryPlan::fingerprint`]); the two are the same
    /// number to the bit. `None` when the candidate did not make the
    /// shortlist, or made it and was pruned by its cost floor — in which
    /// case its measured cost would have been strictly above the chosen
    /// plan's.
    pub measured_s: Option<f64>,
}

/// The enumerator's outcome: the winning plan plus the full exploration
/// record.
pub struct Enumerated {
    /// The chosen plan, freshly compiled (never executed).
    pub plan: QueryPlan,
    /// Label of the winning candidate.
    pub choice: String,
    /// The winner's phase-1 estimate, model seconds.
    pub estimated_s: f64,
    /// The winner's measured dry-run cost, model seconds.
    pub measured_s: f64,
    /// Every explored candidate, in exploration order.
    pub candidates: Vec<CandidateReport>,
}

/// A candidate's compilation recipe: a fixed-engine configuration.
#[derive(Debug, Clone)]
enum Spec {
    HiveNaive(HiveConfig),
    HiveMqo(HiveConfig),
    RapidPlus(RapidPlus),
    Rapida(RapidAnalytics),
}

#[derive(Debug, Clone)]
struct Candidate {
    name: String,
    incumbent: bool,
    spec: Spec,
}

impl Candidate {
    fn compile(&self, aq: &AnalyticalQuery, cat: &DataCatalog) -> Result<QueryPlan, PlanError> {
        match &self.spec {
            Spec::HiveNaive(cfg) => HiveNaive {
                config: cfg.clone(),
                cost_model: None,
            }
            .plan(aq, cat),
            Spec::HiveMqo(cfg) => HiveMqo {
                config: cfg.clone(),
                cost_model: None,
            }
            .plan(aq, cat),
            Spec::RapidPlus(e) => e.plan(aq, cat),
            Spec::Rapida(e) => e.plan(aq, cat),
        }
    }

    /// The candidate's cardinality context (depends on its plan shape and
    /// its effective join orders).
    fn ctx(&self, aq: &AnalyticalQuery, cat: &DataCatalog) -> Result<CardCtx, PlanError> {
        match &self.spec {
            Spec::HiveNaive(cfg) => ctx_per_block(cat, aq, &cfg.join_orders),
            Spec::RapidPlus(e) => ctx_per_block(cat, aq, &e.join_orders),
            Spec::HiveMqo(cfg) => match composite_of(aq)? {
                Some(c) => {
                    let dec0 = aq.blocks[0].decomposition()?;
                    let unit = UnitGraph::from_dec(cat, &dec0);
                    ctx_composite(cat, aq, &c, unit, cfg.join_orders.first())
                }
                None => ctx_per_block(cat, aq, &cfg.join_orders),
            },
            Spec::Rapida(e) => match composite_of(aq)? {
                Some(c) => {
                    let unit = memo::unit_from_composite(cat, &c);
                    ctx_composite(cat, aq, &c, unit, e.join_orders.first())
                }
                None => ctx_per_block(cat, aq, &e.join_orders),
            },
        }
    }
}

fn composite_of(
    aq: &AnalyticalQuery,
) -> Result<Option<crate::composite::CompositePattern>, PlanError> {
    if aq.blocks.len() < 2 {
        return Ok(None);
    }
    match crate::composite::build_composite(&aq.blocks)? {
        CompositeOutcome::Composite(c) => Ok(Some(c)),
        CompositeOutcome::NotOverlapping(_) => Ok(None),
    }
}

/// Effective edge order of one unit: the configured permutation when valid,
/// the planner's greedy default otherwise.
fn effective_order(unit: &UnitGraph, cfg: Option<&Vec<usize>>) -> Vec<usize> {
    match cfg {
        Some(ord) if is_permutation(ord, unit.edges.len()) => ord.clone(),
        _ => unit.greedy_order(),
    }
}

/// NDV of a grouping variable within one unit graph. `remap` translates the
/// block-local star index into the unit's star index.
fn group_ndv(
    cat: &DataCatalog,
    dec: &StarDecomposition,
    unit: &UnitGraph,
    remap: &dyn Fn(usize) -> usize,
    v: &Var,
) -> f64 {
    match resolve_block_var(dec, v) {
        Ok(BlockVarBinding::Subject { star }) => unit
            .stars
            .get(remap(star))
            .map(|s| s.subjects)
            .unwrap_or(1.0),
        Ok(BlockVarBinding::ObjectOf { prop, .. }) => {
            let pid = cat.id_of(&prop.prop);
            cat.pstats
                .pred(TermId(pid))
                .map(|p| p.ndv_objects as f64)
                .unwrap_or(1.0)
        }
        Err(_) => 1.0,
    }
}

/// Context for per-block plan shapes (Hive Naive, RAPID+): one planning
/// unit per grouping block.
fn ctx_per_block(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    orders: &[Vec<usize>],
) -> Result<CardCtx, PlanError> {
    let mut ctx = CardCtx::default();
    for (b, block) in aq.blocks.iter().enumerate() {
        let dec = block.decomposition()?;
        let unit = UnitGraph::from_dec(cat, &dec);
        let order = effective_order(&unit, orders.get(b));
        let prefix = unit.prefix_rows(&order);
        let rows = prefix
            .last()
            .copied()
            .unwrap_or_else(|| unit.stars.first().map(|s| s.rows).unwrap_or(0.0));
        let identity = |s: usize| s;
        let groups = if block.group_by.is_empty() {
            1.0
        } else {
            block
                .group_by
                .iter()
                .map(|v| group_ndv(cat, &dec, &unit, &identity, v))
                .product::<f64>()
                .min(rows.max(1.0))
        };
        ctx.star_rows.push(unit.stars.iter().map(|s| s.rows).collect());
        ctx.join_rows.push(prefix);
        ctx.block_rows.push(rows);
        ctx.agg_rows.push(groups);
    }
    Ok(ctx)
}

/// Context for composite plan shapes (Hive MQO, RAPIDAnalytics): one shared
/// planning unit; every block reads the composite intermediate.
fn ctx_composite(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    c: &crate::composite::CompositePattern,
    unit: UnitGraph,
    order_cfg: Option<&Vec<usize>>,
) -> Result<CardCtx, PlanError> {
    let order = effective_order(&unit, order_cfg);
    let prefix = unit.prefix_rows(&order);
    let rows = prefix
        .last()
        .copied()
        .unwrap_or_else(|| unit.stars.first().map(|s| s.rows).unwrap_or(0.0));
    let mut ctx = CardCtx {
        star_rows: vec![unit.stars.iter().map(|s| s.rows).collect()],
        join_rows: vec![prefix],
        ..CardCtx::default()
    };
    for (b, block) in aq.blocks.iter().enumerate() {
        let dec = block.decomposition()?;
        let map = &c.star_map[b];
        let remap = |s: usize| map.get(s).copied().unwrap_or(s);
        let groups = if block.group_by.is_empty() {
            1.0
        } else {
            block
                .group_by
                .iter()
                .map(|v| group_ndv(cat, &dec, &unit, &remap, v))
                .product::<f64>()
                .min(rows.max(1.0))
        };
        ctx.block_rows.push(rows);
        ctx.agg_rows.push(groups);
    }
    Ok(ctx)
}

fn fmt_order(orders: &[Vec<usize>]) -> String {
    if orders.iter().all(|o| o.is_empty()) {
        "default".into()
    } else {
        let per: Vec<String> = orders
            .iter()
            .map(|o| {
                o.iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join("·")
            })
            .collect();
        per.join("/")
    }
}

/// Memo-searched edge orders for the per-block units. Empty entries mean
/// "keep the default"; `None` when no unit has a reorderable join tree.
fn memo_orders_per_block(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
) -> Result<Option<Vec<Vec<usize>>>, PlanError> {
    let mut orders = Vec::with_capacity(aq.blocks.len());
    let mut any = false;
    for block in &aq.blocks {
        let dec = block.decomposition()?;
        let unit = UnitGraph::from_dec(cat, &dec);
        match unit.best_order() {
            Some(ord) if ord != unit.greedy_order() => {
                orders.push(ord);
                any = true;
            }
            _ => orders.push(Vec::new()),
        }
    }
    Ok(if any { Some(orders) } else { None })
}

fn hive_candidates(
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<Vec<Candidate>, PlanError> {
    let multi = aq.blocks.len() >= 2;
    let mut cands = Vec::new();
    // Incumbents: the fixed default shapes, always shortlisted.
    cands.push(Candidate {
        name: "hive-naive (fixed)".into(),
        incumbent: true,
        spec: Spec::HiveNaive(HiveConfig::default()),
    });
    if multi {
        cands.push(Candidate {
            name: "hive-mqo (fixed)".into(),
            incumbent: true,
            spec: Spec::HiveMqo(HiveConfig::default()),
        });
    }

    let naive_memo = memo_orders_per_block(cat, aq)?;
    let mqo_memo: Option<Vec<Vec<usize>>> = match composite_of(aq)? {
        Some(_) => {
            let dec0 = aq.blocks[0].decomposition()?;
            let unit = UnitGraph::from_dec(cat, &dec0);
            match unit.best_order() {
                Some(ord) if ord != unit.greedy_order() => Some(vec![ord]),
                _ => None,
            }
        }
        None => None,
    };

    let default = HiveConfig::default();
    for mqo in [false, true] {
        if mqo && !multi {
            continue;
        }
        let memo_orders = if mqo { &mqo_memo } else { &naive_memo };
        let mut ord_variants: Vec<Option<&Vec<Vec<usize>>>> = vec![None];
        if memo_orders.is_some() {
            ord_variants.push(memo_orders.as_ref());
        }
        for &thr in &[0usize, default.map_join_threshold, 1 << 20] {
            for &msa in &[true, false] {
                for &extvp in &[true, false] {
                    for &ord in &ord_variants {
                        if thr == default.map_join_threshold && msa && extvp && ord.is_none() {
                            continue; // that's the incumbent
                        }
                        let cfg = HiveConfig {
                            map_join_threshold: thr,
                            map_side_agg: msa,
                            use_extvp: extvp,
                            join_orders: ord.cloned().unwrap_or_default(),
                        };
                        let name = format!(
                            "hive-{} mj={thr} msa={} extvp={} ord={}",
                            if mqo { "mqo" } else { "naive" },
                            if msa { "on" } else { "off" },
                            if extvp { "on" } else { "off" },
                            fmt_order(&cfg.join_orders),
                        );
                        cands.push(Candidate {
                            name,
                            incumbent: false,
                            spec: if mqo {
                                Spec::HiveMqo(cfg)
                            } else {
                                Spec::HiveNaive(cfg)
                            },
                        });
                    }
                }
            }
        }
    }
    Ok(cands)
}

fn rapid_candidates(
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<Vec<Candidate>, PlanError> {
    let mut cands = Vec::new();
    cands.push(Candidate {
        name: "rapid-plus (fixed)".into(),
        incumbent: true,
        spec: Spec::RapidPlus(RapidPlus::default()),
    });
    cands.push(Candidate {
        name: "rapida (fixed)".into(),
        incumbent: true,
        spec: Spec::Rapida(RapidAnalytics::default()),
    });

    // Aggregation-placement and α-join ablations of the analytics shape.
    for (alpha, par, msc) in [
        (true, false, true),
        (false, true, true),
        (false, false, true),
        (true, true, false),
    ] {
        cands.push(Candidate {
            name: format!(
                "rapida alpha={} par={} msc={}",
                if alpha { "on" } else { "off" },
                if par { "on" } else { "off" },
                if msc { "on" } else { "off" }
            ),
            incumbent: false,
            spec: Spec::Rapida(RapidAnalytics {
                map_side_combine: msc,
                alpha_pruning: alpha,
                parallel_agg: par,
                ..Default::default()
            }),
        });
    }
    cands.push(Candidate {
        name: "rapid-plus msc=off".into(),
        incumbent: false,
        spec: Spec::RapidPlus(RapidPlus {
            map_side_combine: false,
            ..Default::default()
        }),
    });

    // ExtVP subject-gate ablations: the gates trade plan-time set loads for
    // map-side group drops, so the enumerator prices both sides.
    cands.push(Candidate {
        name: "rapid-plus extvp=off".into(),
        incumbent: false,
        spec: Spec::RapidPlus(RapidPlus {
            use_extvp: false,
            ..Default::default()
        }),
    });
    cands.push(Candidate {
        name: "rapida extvp=off".into(),
        incumbent: false,
        spec: Spec::Rapida(RapidAnalytics {
            use_extvp: false,
            ..Default::default()
        }),
    });

    // Memo-searched join orders.
    if let Some(orders) = memo_orders_per_block(cat, aq)? {
        cands.push(Candidate {
            name: format!("rapid-plus ord={}", fmt_order(&orders)),
            incumbent: false,
            spec: Spec::RapidPlus(RapidPlus {
                join_orders: orders,
                ..Default::default()
            }),
        });
    }
    if let Some(c) = composite_of(aq)? {
        let unit = memo::unit_from_composite(cat, &c);
        if let Some(ord) = unit.best_order() {
            if ord != unit.greedy_order() {
                let orders = vec![ord];
                cands.push(Candidate {
                    name: format!("rapida ord={}", fmt_order(&orders)),
                    incumbent: false,
                    spec: Spec::Rapida(RapidAnalytics {
                        join_orders: orders,
                        ..Default::default()
                    }),
                });
            }
        }
    }
    Ok(cands)
}

/// A lower bound on the plan's measured cost, from its job list alone.
/// Summed in [`ClusterModel::workflow_time`]'s order, so it also holds under
/// rounding.
fn plan_floor(model: &ClusterModel, plan: &QueryPlan) -> f64 {
    plan.jobs
        .iter()
        .chain(plan.final_job.iter())
        .map(|j| model.job_time_floor(j.is_map_only()))
        .sum()
}

/// Per plan fingerprint, the position of the first one equal to it. `None`
/// — a plan with an unsigned job — equals nothing, itself included.
fn class_reps(prints: &[Option<String>]) -> Vec<usize> {
    prints
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let first = p.as_ref().and_then(|_| prints.iter().position(|q| q == p));
            first.unwrap_or(k)
        })
        .collect()
}

/// Execute `plan` on `mr`, price the measured metrics and drop everything
/// the run wrote — on the error path too.
fn dry_run(plan: &QueryPlan, mr: &Engine, model: &ClusterModel) -> Result<f64, PlanError> {
    let run = plan.try_run(mr);
    plan.cleanup(&mr.dfs);
    mr.dfs.remove(&plan.output_dataset);
    Ok(model.workflow_time(&run?))
}

/// Enumerate, price, dry-run and choose the cheapest plan of `family` for
/// this query under `model`. See the module docs for the two-phase scheme
/// and the determinism / never-worse guarantees.
pub fn enumerate_best(
    family: Family,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
) -> Result<Enumerated, PlanError> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    enumerate_at_width(family, aq, cat, model, cores)
}

/// [`enumerate_best`] with at most `width` candidates dry-run side by side.
/// The outcome does not depend on `width`.
fn enumerate_at_width(
    family: Family,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
    width: usize,
) -> Result<Enumerated, PlanError> {
    let cands = match family {
        Family::Hive => hive_candidates(aq, cat)?,
        Family::Rapid => rapid_candidates(aq, cat)?,
    };

    // Phase 1: compile + estimate every candidate. Incumbent compilation
    // failures are real errors; exotic knob combinations that fail to
    // compile are silently dropped.
    struct Scored {
        idx: usize,
        est: f64,
        plan: QueryPlan,
    }
    let mut scored: Vec<Scored> = Vec::with_capacity(cands.len());
    for (idx, cand) in cands.iter().enumerate() {
        let plan = match cand.compile(aq, cat) {
            Ok(p) => p,
            Err(e) if cand.incumbent => return Err(e),
            Err(_) => continue,
        };
        let ctx = cand.ctx(aq, cat)?;
        let est = coster::estimate_plan(model, cat, &plan, &ctx);
        scored.push(Scored { idx, est, plan });
    }

    // Shortlist: the SHORTLIST cheapest estimates plus every incumbent.
    let mut by_est: Vec<usize> = (0..scored.len()).collect();
    by_est.sort_by(|&a, &b| {
        scored[a]
            .est
            .total_cmp(&scored[b].est)
            .then(scored[a].idx.cmp(&scored[b].idx))
    });
    let mut shortlist: Vec<usize> = by_est.into_iter().take(SHORTLIST).collect();
    for (i, s) in scored.iter().enumerate() {
        if cands[s.idx].incumbent && !shortlist.contains(&i) {
            shortlist.push(i);
        }
    }
    shortlist.sort_unstable(); // dry-run in exploration order

    // Phase 2: measured dry runs. Parallelism is across candidates: each
    // one's jobs are too small to fill a worker pool, so every workflow
    // runs inline on a 1-worker engine and the pool spans the shortlist.
    // Plan ids keep the candidates' dataset names apart in the shared DFS.
    let mr = Engine::with_workers(cat.dfs.clone(), 1);
    let dry_run_wave = |wave: Vec<usize>| -> Result<Vec<(usize, f64)>, PlanError> {
        let (costs, _) = pool::run_tasks(width.min(wave.len()), wave, |_, i| {
            dry_run(&scored[i].plan, &mr, model).map(|t| (i, t))
        });
        costs.into_iter().collect()
    };
    // One execution per distinct plan: shortlisted plans with equal
    // fingerprints are the same operators over the same datasets, so only
    // the first of them (exploration order) goes through the waves and its
    // twins take its outcome — the cost they would have measured themselves,
    // or the same pruning, since equal plans have equal floors. A plan
    // without a fingerprint equals nothing and always stands for itself.
    let prints: Vec<Option<String>> = shortlist
        .iter()
        .map(|&i| scored[i].plan.fingerprint())
        .collect();
    let rep_of: Vec<usize> = class_reps(&prints).iter().map(|&k| shortlist[k]).collect();
    let reps = shortlist.iter().zip(&rep_of).filter(|(i, r)| i == r);
    // Wave 1: every plan that could still beat the cheapest estimate. An
    // estimate is never below its own plan's floor, so the cheapest
    // estimate's plan is always among them.
    let min_est = shortlist
        .iter()
        .map(|&i| scored[i].est)
        .fold(f64::INFINITY, f64::min);
    let floor = |i: usize| plan_floor(model, &scored[i].plan);
    let (wave1, deferred): (Vec<usize>, Vec<usize>) =
        reps.map(|(&i, _)| i).partition(|&i| floor(i) <= min_est);
    let mut measured = dry_run_wave(wave1)?;
    // Wave 2: a deferred plan runs only if its floor does not already
    // exceed the best measured cost. `<=` keeps every plan that could tie,
    // so the incumbent tie-break below sees the same ties as before.
    let best = measured
        .iter()
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    let wave2 = deferred.into_iter().filter(|&i| floor(i) <= best).collect();
    measured.extend(dry_run_wave(wave2)?);
    for (&i, &r) in shortlist.iter().zip(&rep_of).filter(|(i, r)| i != r) {
        let twin = measured.iter().find(|(j, _)| *j == r).map(|&(_, t)| (i, t));
        measured.extend(twin);
    }

    // Choose: minimum measured cost; ties prefer incumbents, then
    // exploration order.
    let &(win, win_t) = measured
        .iter()
        .min_by(|(a, ta), (b, tb)| {
            ta.total_cmp(tb)
                .then_with(|| {
                    let ia = cands[scored[*a].idx].incumbent;
                    let ib = cands[scored[*b].idx].incumbent;
                    ib.cmp(&ia) // incumbent first
                })
                .then(scored[*a].idx.cmp(&scored[*b].idx))
        })
        .ok_or_else(|| {
            PlanError::Unsupported("plan enumeration produced no candidates".into())
        })?;

    let reports: Vec<CandidateReport> = scored
        .iter()
        .enumerate()
        .map(|(i, s)| CandidateReport {
            name: cands[s.idx].name.clone(),
            incumbent: cands[s.idx].incumbent,
            cycles: s.plan.cycles(),
            estimated_s: s.est,
            measured_s: measured.iter().find(|(j, _)| *j == i).map(|(_, t)| *t),
        })
        .collect();

    // Re-compile the winner fresh (its dry-run plan already executed once;
    // factories may hold caches) and stamp the cost-based engine name.
    let mut plan = cands[scored[win].idx].compile(aq, cat)?;
    plan.engine = match family {
        Family::Hive => "Hive (cost-based)",
        Family::Rapid => "RAPID (cost-based)",
    };
    Ok(Enumerated {
        plan,
        choice: cands[scored[win].idx].name.clone(),
        estimated_s: scored[win].est,
        measured_s: win_t,
        candidates: reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapida_datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};

    fn aq_of(sparql: &str) -> AnalyticalQuery {
        crate::extract(&rapida_sparql::parse_query(sparql).unwrap()).unwrap()
    }

    /// A two-star, two-block query (Table 2 row 4: `abc:de` vs `ab:def`) in
    /// which each block owns one secondary property, over a graph where
    /// every combination of the two occurs: the α disjunction `c≠∅ ∨ f≠∅`
    /// has no empty conjunction and really drops joined pairs.
    fn alpha_case() -> (DataCatalog, AnalyticalQuery) {
        let mut g = rapida_rdf::Graph::new();
        let iri = |s: String| rapida_rdf::Term::iri(format!("http://x/{s}"));
        for i in 0..24 {
            let (s, t) = (iri(format!("s{i}")), iri(format!("t{i}")));
            let star_s = if i % 2 == 0 { "abc" } else { "ab" };
            let star_t = if i % 3 == 0 { "def" } else { "de" };
            for (subj, props) in [(&s, star_s), (&t, star_t)] {
                for p in props.chars() {
                    g.insert_terms(subj, &iri(p.to_string()), &iri(format!("{p}{}", i % 5)));
                }
            }
            g.insert_terms(&t, &iri("j".into()), &s);
        }
        let aq = aq_of(
            "PREFIX ex: <http://x/>
             SELECT ?n1 ?n2 {
               { SELECT (COUNT(?s1) AS ?n1) {
                   ?s1 ex:a ?a1 ; ex:b ?b1 ; ex:c ?c1 . ?t1 ex:d ?d1 ; ex:e ?e1 . ?t1 ex:j ?s1 . } }
               { SELECT (COUNT(?s2) AS ?n2) {
                   ?s2 ex:a ?a2 ; ex:b ?b2 . ?t2 ex:d ?d2 ; ex:e ?e2 ; ex:f ?f2 . ?t2 ex:j ?s2 . } }
             }",
        );
        (DataCatalog::load(&g), aq)
    }

    /// Dry-run every candidate of both families, group by fingerprint, and
    /// hold every class to one measured cost (bit-equal) and one set of
    /// written datasets (byte-equal, intermediates included). Returns the
    /// labels of the candidates that joined an earlier candidate's class.
    fn twins_of_sound_classes(cat: &DataCatalog, aq: &AnalyticalQuery) -> Vec<String> {
        let model = ClusterModel::nodes10();
        let mr = Engine::with_workers(cat.dfs.clone(), 1);
        let mut twins = Vec::new();
        for cands in [
            hive_candidates(aq, cat).unwrap(),
            rapid_candidates(aq, cat).unwrap(),
        ] {
            // Per class: fingerprint, first member, cost bits, bytes written.
            let mut classes: Vec<(String, String, u64, Vec<Vec<u8>>)> = Vec::new();
            for cand in &cands {
                let Ok(plan) = cand.compile(aq, cat) else {
                    continue;
                };
                let print = plan
                    .fingerprint()
                    .unwrap_or_else(|| panic!("{}: a job without a sig", cand.name));
                let wf = plan.try_run(&mr).unwrap();
                let cost = model.workflow_time(&wf).to_bits();
                let written: Vec<Vec<u8>> = plan
                    .jobs
                    .iter()
                    .chain(plan.final_job.iter())
                    .filter_map(|j| cat.dfs.peek(&j.output))
                    .flat_map(|ds| {
                        ds.blocks
                            .iter()
                            .map(|b| b.as_ref().to_vec())
                            .collect::<Vec<_>>()
                    })
                    .collect();
                plan.cleanup(&cat.dfs);
                cat.dfs.remove(&plan.output_dataset);
                match classes.iter().find(|c| c.0 == print) {
                    Some((_, first, first_cost, first_written)) => {
                        assert_eq!(cost, *first_cost, "{} vs {first}: cost", cand.name);
                        assert!(written == *first_written, "{} vs {first}: bytes", cand.name);
                        twins.push(cand.name.clone());
                    }
                    None => classes.push((print, cand.name.clone(), cost, written)),
                }
            }
        }
        twins
    }

    /// Fingerprint soundness where the enumerator relies on it — tiny BSBM
    /// MG1–MG4 — on a chem query whose Hive plans map-join and substitute
    /// ExtVP scans, and on a query whose α-join prunes.
    #[test]
    fn equal_fingerprints_price_and_write_identically() {
        let bsbm = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        for id in ["MG1", "MG2", "MG3", "MG4"] {
            let twins = twins_of_sound_classes(&bsbm, &aq_of(&query(id).sparql));
            // No gate is installed and every block lacks a positive α term,
            // so both knobs are vacuous here.
            for vacuous in ["rapida alpha=off par=on msc=on", "rapida extvp=off"] {
                assert!(
                    twins.iter().any(|t| t == vacuous),
                    "{id}: {vacuous} is no twin"
                );
            }
        }

        let chem = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
        let aq = aq_of(&query("MG6").sparql);
        let fixed = HiveNaive::default().plan(&aq, &chem).unwrap().dump();
        assert!(
            fixed.contains("[map-join]") && fixed.contains("extvp_"),
            "{fixed}"
        );
        twins_of_sound_classes(&chem, &aq);

        let (cat, aq) = alpha_case();
        let twins = twins_of_sound_classes(&cat, &aq);
        assert!(
            !twins.iter().any(|t| t.starts_with("rapida alpha=off")),
            "{twins:?}"
        );
    }

    /// Every knob that changes what a plan does changes its fingerprint —
    /// each checked on a query where it is live — and a plan with one
    /// unsigned job has none. (The ExtVP subject gate is checked where the
    /// gate is: `extvp_subject_gate_prunes_shuffle_but_not_output`.)
    #[test]
    fn live_knobs_move_the_fingerprint() {
        let print = |e: &dyn QueryEngine, aq: &AnalyticalQuery, cat: &DataCatalog| {
            e.plan(aq, cat).unwrap().fingerprint().expect("signed")
        };
        let bsbm = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        let mg1 = aq_of(&query("MG1").sparql);
        let mg3 = aq_of(&query("MG3").sparql);

        let hive = |config: HiveConfig| HiveNaive {
            config,
            cost_model: None,
        };
        let fixed = print(&HiveNaive::default(), &mg1, &bsbm);
        assert_eq!(
            fixed,
            print(&HiveNaive::default(), &mg1, &bsbm),
            "plan ids leak"
        );
        assert!(fixed.contains("map-join"), "{fixed}");
        for (knob, config) in [
            (
                "map_side_agg",
                HiveConfig {
                    map_side_agg: false,
                    ..Default::default()
                },
            ),
            (
                "a threshold that flips a join",
                HiveConfig {
                    map_join_threshold: 0,
                    ..Default::default()
                },
            ),
        ] {
            assert_ne!(fixed, print(&hive(config), &mg1, &bsbm), "{knob}");
        }

        let ra = RapidAnalytics::default();
        for (knob, e) in [
            (
                "map_side_combine",
                RapidAnalytics {
                    map_side_combine: false,
                    ..Default::default()
                },
            ),
            (
                "parallel_agg",
                RapidAnalytics {
                    parallel_agg: false,
                    ..Default::default()
                },
            ),
        ] {
            assert_ne!(print(&ra, &mg1, &bsbm), print(&e, &mg1, &bsbm), "{knob}");
        }
        let rp_combine_off = RapidPlus {
            map_side_combine: false,
            ..Default::default()
        };
        assert_ne!(
            print(&RapidPlus::default(), &mg1, &bsbm),
            print(&rp_combine_off, &mg1, &bsbm)
        );

        // A join order other than the default one, on three-star blocks.
        let reordered = RapidPlus {
            join_orders: vec![vec![1, 0], vec![1, 0]],
            ..Default::default()
        };
        assert_ne!(
            print(&RapidPlus::default(), &mg3, &bsbm),
            print(&reordered, &mg3, &bsbm)
        );

        // α pruning: vacuous on MG1 (block 1 has no positive term), live
        // where every block has one — there it drops joined pairs.
        let no_alpha = RapidAnalytics {
            alpha_pruning: false,
            ..Default::default()
        };
        assert_eq!(print(&ra, &mg1, &bsbm), print(&no_alpha, &mg1, &bsbm));
        let (cat, aq) = alpha_case();
        assert_ne!(print(&ra, &aq, &cat), print(&no_alpha, &aq, &cat));
        let joined_records = |e: &RapidAnalytics| {
            let plan = e.plan(&aq, &cat).unwrap();
            let wf = plan.try_run(&Engine::pinned(cat.dfs.clone())).unwrap();
            plan.cleanup(&cat.dfs);
            cat.dfs.remove(&plan.output_dataset);
            wf.jobs[0].output_records
        };
        assert!(joined_records(&ra) < joined_records(&no_alpha));

        // ExtVP scan substitution, on a query that has one.
        let chem = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
        let mg6 = aq_of(&query("MG6").sparql);
        let no_extvp = hive(HiveConfig {
            use_extvp: false,
            ..Default::default()
        });
        assert_ne!(
            print(&HiveNaive::default(), &mg6, &chem),
            print(&no_extvp, &mg6, &chem)
        );

        let mut plan = ra.plan(&mg1, &bsbm).unwrap();
        plan.jobs[0].sig.clear();
        assert_eq!(plan.fingerprint(), None);
    }

    #[test]
    fn an_unsigned_plan_is_in_no_class() {
        let p = |s: &str| Some(s.to_string());
        assert_eq!(
            class_reps(&[p("a"), None, p("b"), p("a"), None, p("b")]),
            vec![0, 1, 2, 0, 4, 2]
        );
    }

    /// How many candidates are dry-run side by side never shows in the
    /// outcome: same choice, same costs to the bit, same reports.
    #[test]
    fn enumeration_is_width_independent() {
        let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        let model = ClusterModel::nodes10();
        for id in ["MG1", "MG2", "MG3", "MG4"] {
            let aq = crate::extract(&rapida_sparql::parse_query(&query(id).sparql).unwrap())
                .unwrap();
            for family in [Family::Hive, Family::Rapid] {
                let a = enumerate_at_width(family, &aq, &cat, &model, 1).unwrap();
                let b = enumerate_at_width(family, &aq, &cat, &model, 4).unwrap();
                assert_eq!(a.choice, b.choice, "{id} {family:?}");
                assert_eq!(a.measured_s.to_bits(), b.measured_s.to_bits());
                assert_eq!(a.plan.dump(), b.plan.dump());
                let key = |e: &Enumerated| -> Vec<_> {
                    e.candidates
                        .iter()
                        .map(|c| {
                            (
                                c.name.clone(),
                                c.estimated_s.to_bits(),
                                c.measured_s.map(f64::to_bits),
                            )
                        })
                        .collect()
                };
                assert_eq!(key(&a), key(&b), "{id} {family:?}");
            }
        }
    }
}
