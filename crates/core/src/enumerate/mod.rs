//! Cost-based plan enumeration: a mini-Volcano optimizer over the engines'
//! physical plan families.
//!
//! The enumerator explores a deterministic candidate space per family —
//! star-grouping alternatives (naive vs composite/MQO shapes), α-join
//! placement and parallel-vs-sequential aggregation for the NTGA engines,
//! map-join vs shuffle-join thresholds and aggregation placement for the
//! Hive engines, plus memo-searched star-join orders ([`memo`]) — compiles
//! each alternative — a [`PlanRules`] value — to an ordinary [`QueryPlan`]
//! through the one compiler, and prices it in two phases:
//!
//! 1. **Estimate** ([`coster`]): synthesize [`JobMetrics`] for every job
//!    from per-predicate statistics, and the selectivities of the ExtVP
//!    reductions the plan reads, and price them with
//!    [`ClusterModel::job_time`]. Pure function of (query, stats, model).
//! 2. **Dry-run** the plans that can win — the cheapest estimate and the
//!    family's fixed incumbent plans — on the deterministic simulator, and
//!    re-price them from *measured* metrics via
//!    [`ClusterModel::workflow_time`]. The measured-cheapest plan wins.
//!    A wave of dry runs spreads the cores over its candidates: one pool
//!    task per candidate, each running its whole workflow on an engine of
//!    `width / lanes` workers, so a lone dry run gets every core.
//!    The winner's dry run is kept: its output, its metrics and the copy of
//!    every stored table it read. The winner is returned as compiled, and
//!    executing it on a plain engine over the same, unchanged tables replays
//!    that run instead of repeating it ([`QueryPlan::try_execute`]). Every
//!    dry run still runs, so the enumerator is charged as before, and every
//!    dry run still drops what it wrote.
//!
//! Candidates that are the same plan — equal [`QueryPlan::fingerprint`]s,
//! which happens whenever a knob is vacuous on this query — are executed
//! once: the first of them runs, and every compiled candidate with that
//! fingerprint is reported at its measured cost.
//!
//! A plan that can win is not executed when its cost floor (Σ
//! [`ClusterModel::job_time_floor`] over its jobs, known from the compiled
//! plan alone) already exceeds the best measured cost: its measured cost
//! could only be higher still, so it cannot win or even tie. Plans whose
//! floor exceeds the cheapest *estimate* wait for the first wave's
//! measurements and then run only if that test lets them. The chosen
//! plan's measured cost is therefore never worse than any fixed plan's —
//! by measurement for the incumbents that ran, by the bound for those that
//! did not — the invariant `tests/prop_plan_choice.rs` pins. Candidate
//! order, the memo and the simulator are deterministic, measured metrics do
//! not depend on worker counts or on which candidates run side by side, and
//! results come back in candidate order, so the choice is a pure function
//! of (query, statistics, cluster model).

pub mod coster;
pub mod memo;

pub use crate::rules::Family;

use crate::aquery::{resolve_block_var, AnalyticalQuery, BlockVarBinding, GroupingBlock};
use crate::catalog::DataCatalog;
use crate::composite::CompositePattern;
use crate::engines::{compile_shaped, resolve_shape, Shape};
use crate::plan::{PlanError, QueryPlan, Replay};
use crate::rules::PlanRules;
use coster::CardCtx;
use memo::UnitGraph;
use rapida_mapred::{pool, ClusterModel, Engine};
use rapida_rdf::TermId;
use rapida_sparql::analysis::StarDecomposition;
use rapida_sparql::ast::Var;

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
    /// own run, or that of a candidate that compiled to the same plan
    /// ([`QueryPlan::fingerprint`]); the two are the same number to the bit.
    /// `None` when the candidate's plan is not among the plans that can win,
    /// or is and was pruned by its cost floor — in which case its measured
    /// cost would have been strictly above the chosen plan's.
    pub measured_s: Option<f64>,
}

/// The enumerator's outcome: the winning plan plus the full exploration
/// record.
pub struct Enumerated {
    /// The chosen plan, as compiled for its dry run. It carries that run's
    /// answer: executed on an engine without a fault plan, deadline or scan
    /// cache, over the tables the run read, it replays the run
    /// ([`QueryPlan::try_execute`]).
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

#[derive(Debug, Clone)]
struct Candidate {
    name: String,
    incumbent: bool,
    rules: PlanRules,
}

impl Candidate {
    fn new(name: impl Into<String>, incumbent: bool, rules: PlanRules) -> Self {
        Candidate {
            name: name.into(),
            incumbent,
            rules,
        }
    }

    /// The shape this candidate compiles to, given what the family's
    /// composite rules resolved to on this query.
    fn shape<'s>(&self, composite: &'s Shape) -> &'s Shape {
        if self.rules.composite {
            composite
        } else {
            &Shape::PerBlock
        }
    }

    /// The candidate's cardinality context: it depends on its plan shape,
    /// its join orders and the ExtVP reductions its compiled `plan` reads.
    fn ctx(
        &self,
        shape: &Shape,
        aq: &AnalyticalQuery,
        cat: &DataCatalog,
        plan: &QueryPlan,
    ) -> Result<CardCtx, PlanError> {
        let cuts = coster::extvp_cuts(cat, plan);
        match composite_unit(self.rules.family, shape, aq, cat)? {
            Some((c, unit)) => ctx_composite(cat, aq, c, unit, self.rules.join_order(0), &cuts),
            None => ctx_per_block(cat, aq, &self.rules, &cuts),
        }
    }
}

/// The pattern and join graph of the one planning unit a composite-shaped
/// plan of `family` has. A one-block composite is its block — the NTGA
/// compiler plans it through the composite path, but it is priced (and its
/// join order searched) as the block it is, whose own decomposition still
/// knows constant objects.
fn composite_unit<'s>(
    family: Family,
    shape: &'s Shape,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<Option<(&'s CompositePattern, UnitGraph)>, PlanError> {
    let Shape::Composite(c) = shape else {
        return Ok(None);
    };
    if aq.blocks.len() < 2 {
        return Ok(None);
    }
    let unit = match family {
        // MQO joins block 0's stars; the other blocks only add optional
        // columns to them.
        Family::Hive => UnitGraph::from_dec(cat, &aq.blocks[0].decomposition()?),
        Family::Rapid => memo::unit_from_composite(cat, c),
    };
    Ok(Some((c, unit)))
}

/// Estimated group count of `block` aggregating `rows` rows of `unit`: the
/// NDV product of its grouping variables, capped by the input. `remap`
/// translates the block-local star index into the unit's star index.
fn group_count(
    cat: &DataCatalog,
    block: &GroupingBlock,
    dec: &StarDecomposition,
    unit: &UnitGraph,
    remap: &dyn Fn(usize) -> usize,
    rows: f64,
) -> f64 {
    if block.group_by.is_empty() {
        return 1.0;
    }
    let ndv = |v: &Var| match resolve_block_var(dec, v) {
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
    };
    block
        .group_by
        .iter()
        .map(ndv)
        .product::<f64>()
        .min(rows.max(1.0))
}

/// Record the next planning unit walked in `order` — its stars' rows, less
/// what the ExtVP reductions its star jobs read cut ([`coster::extvp_cuts`]),
/// and the rows after each join cycle — and return the rows it ends with.
fn push_unit(
    ctx: &mut CardCtx,
    unit: &mut UnitGraph,
    order: &[usize],
    cuts: &[(usize, usize, f64)],
) -> Result<f64, PlanError> {
    let u = ctx.star_rows.len();
    for &(_, s, cut) in cuts.iter().filter(|c| c.0 == u) {
        if let Some(star) = unit.stars.get_mut(s) {
            star.rows *= cut;
        }
    }
    let prefix = unit.prefix_rows(order)?;
    let rows = prefix
        .last()
        .copied()
        .unwrap_or_else(|| unit.stars.first().map(|s| s.rows).unwrap_or(0.0));
    let star_rows = unit.stars.iter().map(|s| s.rows).collect();
    ctx.star_rows.push(star_rows);
    ctx.join_rows.push(prefix);
    Ok(rows)
}

/// Context for per-block plan shapes (Hive Naive, RAPID+): one planning
/// unit per grouping block.
fn ctx_per_block(
    cat: &DataCatalog,
    aq: &AnalyticalQuery,
    rules: &PlanRules,
    cuts: &[(usize, usize, f64)],
) -> Result<CardCtx, PlanError> {
    let mut ctx = CardCtx::default();
    for (b, block) in aq.blocks.iter().enumerate() {
        let dec = block.decomposition()?;
        let mut unit = UnitGraph::from_dec(cat, &dec);
        let rows = push_unit(&mut ctx, &mut unit, rules.join_order(b), cuts)?;
        let groups = group_count(cat, block, &dec, &unit, &|s| s, rows);
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
    c: &CompositePattern,
    mut unit: UnitGraph,
    order: &[usize],
    cuts: &[(usize, usize, f64)],
) -> Result<CardCtx, PlanError> {
    let mut ctx = CardCtx::default();
    let rows = push_unit(&mut ctx, &mut unit, order, cuts)?;
    for (block, map) in aq.blocks.iter().zip(&c.star_map) {
        let dec = block.decomposition()?;
        let remap = |s: usize| map.get(s).copied().unwrap_or(s);
        let groups = group_count(cat, block, &dec, &unit, &remap, rows);
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
        let order = UnitGraph::from_dec(cat, &dec).reorder();
        any |= order.is_some();
        orders.push(order.unwrap_or_default());
    }
    Ok(any.then_some(orders))
}

/// The family's candidates, and what its composite rules come to on this
/// query — resolved once; every candidate is either that shape or per-block
/// ([`Candidate::shape`]).
fn candidates(
    family: Family,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<(Vec<Candidate>, Shape), PlanError> {
    let composite = resolve_shape(&PlanRules::preset(family, true), aq)?;
    let per_block_orders = memo_orders_per_block(cat, aq)?;
    let composite_orders = composite_unit(family, &composite, aq, cat)?
        .and_then(|(_, unit)| unit.reorder())
        .map(|order| vec![order]);
    let cands = match family {
        Family::Hive => hive_candidates(aq.blocks.len() >= 2, per_block_orders, composite_orders),
        Family::Rapid => rapid_candidates(per_block_orders, composite_orders),
    };
    Ok((cands, composite))
}

fn on_off(on: bool) -> &'static str {
    if on {
        "on"
    } else {
        "off"
    }
}

fn hive_candidates(
    multi: bool,
    naive_memo: Option<Vec<Vec<usize>>>,
    mqo_memo: Option<Vec<Vec<usize>>>,
) -> Vec<Candidate> {
    // Incumbents: the fixed default shapes, always among the plans that can
    // win.
    let naive = Candidate::new("hive-naive (fixed)", true, PlanRules::hive_naive());
    let mut cands = vec![naive];
    if multi {
        let mqo = Candidate::new("hive-mqo (fixed)", true, PlanRules::hive_mqo());
        cands.push(mqo);
    }
    for (preset, memo_orders) in [
        (PlanRules::hive_naive(), naive_memo),
        (PlanRules::hive_mqo(), mqo_memo),
    ] {
        if preset.composite && !multi {
            continue;
        }
        let ord_variants = std::iter::once(Vec::new()).chain(memo_orders);
        for thr in [0usize, preset.map_join_threshold, 1 << 20] {
            for msa in [true, false] {
                for extvp in [true, false] {
                    for ord in ord_variants.clone() {
                        let rules = PlanRules {
                            map_join_threshold: thr,
                            map_side_agg: msa,
                            use_extvp: extvp,
                            join_orders: ord,
                            ..preset.clone()
                        };
                        if rules == preset {
                            continue; // that's the incumbent
                        }
                        let name = format!(
                            "hive-{} mj={thr} msa={} extvp={} ord={}",
                            if preset.composite { "mqo" } else { "naive" },
                            on_off(msa),
                            on_off(extvp),
                            fmt_order(&rules.join_orders),
                        );
                        cands.push(Candidate::new(name, false, rules));
                    }
                }
            }
        }
    }
    cands
}

fn rapid_candidates(
    plus_memo: Option<Vec<Vec<usize>>>,
    rapida_memo: Option<Vec<Vec<usize>>>,
) -> Vec<Candidate> {
    let (plus, rapida) = (PlanRules::rapid_plus(), PlanRules::rapida());
    let mut cands = vec![
        Candidate::new("rapid-plus (fixed)", true, plus.clone()),
        Candidate::new("rapida (fixed)", true, rapida.clone()),
    ];
    let mut variant =
        |name: String, rules: PlanRules| cands.push(Candidate::new(name, false, rules));

    // Aggregation-placement and α-join ablations of the analytics shape.
    for (alpha, par, msc) in [
        (true, false, true),
        (false, true, true),
        (false, false, true),
        (true, true, false),
    ] {
        variant(
            format!(
                "rapida alpha={} par={} msc={}",
                on_off(alpha),
                on_off(par),
                on_off(msc)
            ),
            PlanRules {
                map_side_agg: msc,
                alpha_pruning: alpha,
                parallel_agg: par,
                ..rapida.clone()
            },
        );
    }
    variant(
        "rapid-plus msc=off".into(),
        PlanRules {
            map_side_agg: false,
            ..plus.clone()
        },
    );

    // ExtVP subject-gate ablations: the gates trade plan-time set loads for
    // map-side group drops, so the enumerator prices both sides.
    for (label, preset) in [("rapid-plus", &plus), ("rapida", &rapida)] {
        variant(
            format!("{label} extvp=off"),
            PlanRules {
                use_extvp: false,
                ..preset.clone()
            },
        );
    }

    // Memo-searched join orders.
    for (label, preset, memo_orders) in [
        ("rapid-plus", &plus, plus_memo),
        ("rapida", &rapida, rapida_memo),
    ] {
        if let Some(join_orders) = memo_orders {
            variant(
                format!("{label} ord={}", fmt_order(&join_orders)),
                PlanRules {
                    join_orders,
                    ..preset.clone()
                },
            );
        }
    }
    cands
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
/// the run wrote — on the error path too. Returns the cost and what the
/// plan's own execution may replay: the copies of the stored tables the run
/// read, the output it wrote and its metrics.
fn dry_run(
    plan: &QueryPlan,
    mr: &Engine,
    model: &ClusterModel,
) -> Result<(f64, Option<Replay>), PlanError> {
    let inputs = plan.base_copies(&mr.dfs);
    let run = plan.try_run(mr);
    let output = mr.dfs.peek_sealed(&plan.output_dataset);
    plan.cleanup(&mr.dfs);
    mr.dfs.remove(&plan.output_dataset);
    let wf = run?;
    Ok((model.workflow_time(&wf), Replay::new(inputs, output, wf)))
}

/// A compiled candidate and its phase-1 estimate.
struct Scored {
    /// Position in the family's candidate list.
    idx: usize,
    est: f64,
    plan: QueryPlan,
}

/// Phase 1: the family's candidates, each compiled and estimated.
/// Incumbent compilation failures are real errors; exotic knob combinations
/// that fail to compile are silently dropped.
fn score(
    family: Family,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
) -> Result<(Vec<Candidate>, Vec<Scored>), PlanError> {
    let (cands, composite) = candidates(family, aq, cat)?;
    let mut scored = Vec::with_capacity(cands.len());
    for (idx, cand) in cands.iter().enumerate() {
        let shape = cand.shape(&composite);
        let plan = match compile_shaped(&cand.rules, shape, aq, cat) {
            Ok(p) => p,
            Err(e) if cand.incumbent => return Err(e),
            Err(_) => continue,
        };
        let ctx = cand.ctx(shape, aq, cat, &plan)?;
        let est = coster::estimate_plan(model, cat, &plan, &ctx);
        scored.push(Scored { idx, est, plan });
    }
    Ok((cands, scored))
}

/// Positions in `scored` of the plans that can win, in exploration order:
/// the cheapest estimate and every incumbent. Equal estimates go to the
/// earlier candidate.
fn can_win(cands: &[Candidate], scored: &[Scored]) -> Vec<usize> {
    let first = (0..scored.len()).min_by(|&a, &b| scored[a].est.total_cmp(&scored[b].est));
    (0..scored.len())
        .filter(|&i| Some(i) == first || cands[scored[i].idx].incumbent)
        .collect()
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

/// [`enumerate_best`] with `width` cores for the dry runs. The outcome does
/// not depend on `width`.
fn enumerate_at_width(
    family: Family,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
    width: usize,
) -> Result<Enumerated, PlanError> {
    let (cands, mut scored) = score(family, aq, cat, model)?;
    let contenders = can_win(&cands, &scored);

    // Phase 2: measured dry runs. A dry-run job on plan-time data has 1–2
    // splits, so parallelism is first across candidates: a wave runs as one
    // pool task per candidate, at most `width` side by side, and the cores
    // those lanes leave idle go to the candidates' engines — `width / lanes`
    // workers each, so a lone dry run gets every core. Plan ids keep the
    // candidates' dataset names apart in the shared DFS.
    type Measured = (usize, f64, Option<Replay>);
    let dry_run_wave = |wave: Vec<usize>| -> Result<Vec<Measured>, PlanError> {
        if wave.is_empty() {
            return Ok(Vec::new());
        }
        let lanes = width.min(wave.len());
        let mr = Engine::with_workers(cat.dfs.clone(), width / lanes);
        let (runs, _) = pool::run_tasks(lanes, wave, |_, i| {
            dry_run(&scored[i].plan, &mr, model).map(|(t, replay)| (i, t, replay))
        });
        runs.into_iter().collect()
    };
    // One execution per distinct plan: candidates with equal fingerprints
    // are the same operators over the same datasets, so only the first of a
    // class (exploration order) goes through the waves, and every compiled
    // candidate of the class takes its outcome — the cost it would have
    // measured itself, or the same pruning, since equal plans have equal
    // floors. A plan without a fingerprint equals nothing and always stands
    // for itself.
    let prints: Vec<Option<String>> = scored.iter().map(|s| s.plan.fingerprint()).collect();
    let rep = class_reps(&prints);
    let mut reps: Vec<usize> = contenders.iter().map(|&i| rep[i]).collect();
    reps.sort_unstable();
    reps.dedup();
    // Wave 1: every plan that could still beat the cheapest estimate. An
    // estimate is never below its own plan's floor, so the cheapest
    // estimate's plan is always among them.
    let min_est = contenders
        .iter()
        .map(|&i| scored[i].est)
        .fold(f64::INFINITY, f64::min);
    let floor = |i: usize| plan_floor(model, &scored[i].plan);
    let (wave1, deferred): (Vec<usize>, Vec<usize>) =
        reps.into_iter().partition(|&i| floor(i) <= min_est);
    let mut measured = dry_run_wave(wave1)?;
    // Wave 2: a deferred plan runs only if its floor does not already
    // exceed the best measured cost. `<=` keeps every plan that could tie,
    // so the incumbent tie-break below sees every tie.
    let best = measured
        .iter()
        .map(|&(_, t, _)| t)
        .fold(f64::INFINITY, f64::min);
    let wave2 = deferred.into_iter().filter(|&i| floor(i) <= best).collect();
    measured.extend(dry_run_wave(wave2)?);
    let cost = |i: usize| {
        measured
            .iter()
            .find(|&&(r, ..)| r == rep[i])
            .map(|&(_, t, _)| t)
    };

    // Choose: minimum measured cost; ties prefer incumbents, then
    // exploration order.
    let (win, win_t) = (0..scored.len())
        .filter_map(|i| cost(i).map(|t| (i, t)))
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
            measured_s: cost(i),
        })
        .collect();

    // The winner is returned as compiled, under the cost-based engine name,
    // with its class's dry run kept for its execution to replay.
    let Scored { idx, est, mut plan } = scored.swap_remove(win);
    plan.replay = measured
        .into_iter()
        .find(|m| m.0 == rep[win])
        .and_then(|m| m.2);
    plan.engine = match family {
        Family::Hive => "Hive (cost-based)",
        Family::Rapid => "RAPID (cost-based)",
    };
    Ok(Enumerated {
        plan,
        choice: cands[idx].name.clone(),
        estimated_s: est,
        measured_s: win_t,
        candidates: reports,
    })
}

/// One compiled candidate, estimated and dry-run.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct CandidateRun {
    pub name: String,
    pub incumbent: bool,
    /// Phase-1 estimate, model seconds.
    pub estimated_s: f64,
    /// Σ [`ClusterModel::job_time_floor`] over the plan's jobs.
    pub floor_s: f64,
    /// Measured cost of its own dry run, model seconds.
    pub measured_s: f64,
    pub fingerprint: Option<String>,
}

/// Every compiled candidate of `family` in exploration order — the space
/// [`enumerate_best`] chooses from — each estimated *and* dry-run, nothing
/// pruned. What experiments and tests hold the enumerator's choice against.
#[doc(hidden)]
pub fn dry_run_every_candidate(
    family: Family,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    model: &ClusterModel,
) -> Result<Vec<CandidateRun>, PlanError> {
    let (cands, scored) = score(family, aq, cat, model)?;
    let mr = Engine::new(cat.dfs.clone());
    scored
        .iter()
        .map(|s| {
            let cand = &cands[s.idx];
            Ok(CandidateRun {
                name: cand.name.clone(),
                incumbent: cand.incumbent,
                estimated_s: s.est,
                floor_s: plan_floor(model, &s.plan),
                measured_s: dry_run(&s.plan, &mr, model)?.0,
                fingerprint: s.plan.fingerprint(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QueryEngine;
    use coster::CardTag;
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
        for family in [Family::Hive, Family::Rapid] {
            let (cands, composite) = candidates(family, aq, cat).unwrap();
            // Per class: fingerprint, first member, cost bits, bytes written.
            let mut classes: Vec<(String, String, u64, Vec<Vec<u8>>)> = Vec::new();
            for cand in &cands {
                let shape = cand.shape(&composite);
                let Ok(plan) = compile_shaped(&cand.rules, shape, aq, cat) else {
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
        let fixed = PlanRules::hive_naive().plan(&aq, &chem).unwrap().dump();
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
        let print = |e: &PlanRules, aq: &AnalyticalQuery, cat: &DataCatalog| {
            e.plan(aq, cat).unwrap().fingerprint().expect("signed")
        };
        let bsbm = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        let mg1 = aq_of(&query("MG1").sparql);
        let mg3 = aq_of(&query("MG3").sparql);
        let (hn, rp, ra) = (
            PlanRules::hive_naive(),
            PlanRules::rapid_plus(),
            PlanRules::rapida(),
        );

        let fixed = print(&hn, &mg1, &bsbm);
        assert_eq!(fixed, print(&hn, &mg1, &bsbm), "plan ids leak");
        assert!(fixed.contains("MapJoinCfg"), "{fixed}");
        fn swapped() -> Vec<Vec<usize>> {
            vec![vec![1, 0]; 2]
        }
        type Knob = (&'static str, fn(&mut PlanRules));
        let live: [(Knob, &PlanRules, &AnalyticalQuery); 6] = [
            (("map_side_agg", |r| r.map_side_agg = false), &hn, &mg1),
            (("a flipped join", |r| r.map_join_threshold = 0), &hn, &mg1),
            (("map_side_agg", |r| r.map_side_agg = false), &ra, &mg1),
            (("parallel_agg", |r| r.parallel_agg = false), &ra, &mg1),
            (("map_side_agg", |r| r.map_side_agg = false), &rp, &mg1),
            // A join order other than the default one, on three-star blocks.
            (("join_orders", |r| r.join_orders = swapped()), &rp, &mg3),
        ];
        for ((knob, set), preset, aq) in live {
            let mut rules = preset.clone();
            set(&mut rules);
            let (fixed, moved) = (print(preset, aq, &bsbm), print(&rules, aq, &bsbm));
            assert_ne!(fixed, moved, "{} {knob}", preset.name());
        }

        // α pruning: vacuous on MG1 (block 1 has no positive term), live
        // where every block has one — there it drops joined pairs.
        let no_alpha = PlanRules {
            alpha_pruning: false,
            ..ra.clone()
        };
        assert_eq!(print(&ra, &mg1, &bsbm), print(&no_alpha, &mg1, &bsbm));
        let (cat, aq) = alpha_case();
        assert_ne!(print(&ra, &aq, &cat), print(&no_alpha, &aq, &cat));
        let joined_records = |e: &PlanRules| {
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
        let no_extvp = PlanRules {
            use_extvp: false,
            ..hn.clone()
        };
        assert_ne!(print(&hn, &mg6, &chem), print(&no_extvp, &mg6, &chem));

        let mut plan = ra.plan(&mg1, &bsbm).unwrap();
        plan.jobs[0].sig.clear();
        assert_eq!(plan.fingerprint(), None);
    }

    /// The contract between the planners' job tags and the coster: every
    /// tag of every candidate's plan resolves in that candidate's context,
    /// and the context prices exactly the join cycles the plan runs.
    #[test]
    fn every_job_tag_resolves_in_its_candidates_context() {
        let bsbm = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        let chem = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
        for (id, cat) in [
            ("MG1", &bsbm),
            ("MG2", &bsbm),
            ("MG3", &bsbm),
            ("MG4", &bsbm),
            ("MG6", &chem),
        ] {
            let aq = aq_of(&query(id).sparql);
            for family in [Family::Hive, Family::Rapid] {
                let (cands, composite) = candidates(family, &aq, cat).unwrap();
                for cand in &cands {
                    let shape = cand.shape(&composite);
                    let plan = compile_shaped(&cand.rules, shape, &aq, cat).unwrap();
                    let ctx = cand.ctx(shape, &aq, cat, &plan).unwrap();
                    let tags: Vec<CardTag> = plan
                        .jobs
                        .iter()
                        .chain(plan.final_job.iter())
                        .map(|j| {
                            let tag = CardTag::parse(&j.tag);
                            let rows = tag.and_then(|t| ctx.rows(t));
                            assert!(rows.is_some(), "{id} {}: tag {:?}", cand.name, j.tag);
                            tag.expect("resolved")
                        })
                        .collect();
                    for (u, rows) in ctx.join_rows.iter().enumerate() {
                        let cycles = tags
                            .iter()
                            .filter(|t| matches!(t, CardTag::Join { unit, .. } if *unit == u))
                            .count();
                        assert_eq!(rows.len(), cycles, "{id} {}: unit {u}", cand.name);
                    }
                }
            }
        }
    }

    /// Which compiled candidates are the same plan: per enumeration, every
    /// candidate's name, grouped by fingerprint class (compile and estimate
    /// only, no dry runs). The classes, not the fingerprints' text, are what
    /// the enumerator's one-execution-per-class relies on. Chem G6/G7 put
    /// ExtVP reductions and subject gates into the plans.
    #[test]
    fn fingerprint_classes_match_the_golden() {
        use std::fmt::Write;
        let model = ClusterModel::nodes10();
        let bsbm = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        let chem = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
        let mut got = String::new();
        for (cat, ids) in [
            (&bsbm, &["MG1", "MG2", "MG3", "MG4"][..]),
            (&chem, &["G6", "G7"][..]),
        ] {
            for id in ids {
                let aq = aq_of(&query(id).sparql);
                for family in [Family::Hive, Family::Rapid] {
                    let (cands, scored) = score(family, &aq, cat, &model).unwrap();
                    let prints: Vec<Option<String>> =
                        scored.iter().map(|s| s.plan.fingerprint()).collect();
                    let rep = class_reps(&prints);
                    let _ = writeln!(got, "{id} {family:?}");
                    for k in (0..rep.len()).filter(|&k| rep[k] == k) {
                        let names: Vec<&str> = (0..rep.len())
                            .filter(|&i| rep[i] == k)
                            .map(|i| cands[scored[i].idx].name.as_str())
                            .collect();
                        let unsigned = if prints[k].is_none() { "unsigned " } else { "" };
                        let _ = writeln!(got, "  {unsigned}{}", names.join(" = "));
                    }
                }
            }
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/snapshots/fingerprint_classes.txt");
        if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
            std::fs::write(&path, &got).unwrap();
        }
        let want = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(
            want == got,
            "fingerprint classes drifted; new classes:\n{got}"
        );
    }

    #[test]
    fn an_unsigned_plan_is_in_no_class() {
        let p = |s: &str| Some(s.to_string());
        assert_eq!(
            class_reps(&[p("a"), None, p("b"), p("a"), None, p("b")]),
            vec![0, 1, 2, 0, 4, 2]
        );
    }

    /// How many cores the dry runs get — and so how a wave splits them
    /// between candidates and their engines' workers — never shows in the
    /// outcome: same choice, same costs to the bit, same reports.
    #[test]
    fn enumeration_is_width_independent() {
        let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        let model = ClusterModel::nodes10();
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
        for id in ["MG1", "MG2", "MG3", "MG4"] {
            let aq = aq_of(&query(id).sparql);
            for family in [Family::Hive, Family::Rapid] {
                let a = enumerate_at_width(family, &aq, &cat, &model, 1).unwrap();
                for width in [2, 3, 4] {
                    let b = enumerate_at_width(family, &aq, &cat, &model, width).unwrap();
                    assert_eq!(a.choice, b.choice, "{id} {family:?} width {width}");
                    assert_eq!(a.measured_s.to_bits(), b.measured_s.to_bits());
                    assert_eq!(a.plan.dump(), b.plan.dump());
                    assert_eq!(key(&a), key(&b), "{id} {family:?} width {width}");
                }
            }
        }
    }

    /// The dry-run contract, held against every compiled candidate's own
    /// dry run, for both families: the choice costs no more than any
    /// incumbent; a reported cost is that candidate's own; a candidate
    /// reported without one costs strictly more than the choice; and the
    /// executed plans are, up to fingerprint class, the plans that can win —
    /// the cheapest estimate and every incumbent — less those their cost
    /// floor pruned.
    fn assert_dry_run_contract(
        cat: &DataCatalog,
        aq: &AnalyticalQuery,
        model: &ClusterModel,
    ) -> Vec<(Enumerated, Vec<CandidateRun>)> {
        let mut out = Vec::new();
        for family in [Family::Hive, Family::Rapid] {
            let all = dry_run_every_candidate(family, aq, cat, model).unwrap();
            let e = enumerate_best(family, aq, cat, model).unwrap();
            let chosen = e.measured_s;
            assert_eq!(e.candidates.len(), all.len(), "{family:?}: candidate space");
            for (c, run) in e.candidates.iter().zip(&all) {
                assert_eq!(c.name, run.name);
                if run.incumbent {
                    assert!(chosen <= run.measured_s, "{family:?}: {} beats the choice", c.name);
                }
                match c.measured_s {
                    Some(m) => assert_eq!(m.to_bits(), run.measured_s.to_bits(), "{}", c.name),
                    None => assert!(run.measured_s > chosen, "{family:?}: {} unpriced", c.name),
                }
            }

            let same_class = |i: usize, j: usize| {
                i == j || all[i].fingerprint.is_some() && all[i].fingerprint == all[j].fingerprint
            };
            let first = (0..all.len())
                .min_by(|&a, &b| all[a].estimated_s.total_cmp(&all[b].estimated_s))
                .unwrap();
            let can_win: Vec<usize> = (0..all.len())
                .filter(|&i| i == first || all[i].incumbent)
                .collect();
            let priced = |i: usize| e.candidates[i].measured_s.is_some();
            assert!(priced(first), "{family:?}: the cheapest estimate was not run");
            for &m in &can_win {
                if !priced(m) {
                    assert!(all[m].floor_s > chosen, "{family:?}: {} skipped", all[m].name);
                }
            }
            for (i, run) in all.iter().enumerate() {
                let runs_with = can_win.iter().any(|&m| priced(m) && same_class(i, m));
                assert_eq!(priced(i), runs_with, "{family:?}: {}", run.name);
            }
            out.push((e, all));
        }
        out
    }

    #[test]
    fn dry_runs_cover_exactly_the_plans_that_can_win() {
        let model = ClusterModel::nodes10();
        let bsbm = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
        for id in ["MG1", "MG2", "MG3", "MG4"] {
            assert_dry_run_contract(&bsbm, &aq_of(&query(id).sparql), &model);
        }
        let chem = DataCatalog::load(&generate_chem(&ChemConfig::tiny()));
        assert_dry_run_contract(&chem, &aq_of(&query("MG6").sparql), &model);
        let (cat, aq) = alpha_case();
        assert_dry_run_contract(&cat, &aq, &model);
    }

    /// On bsbm-8k MG2 the `extvp=on` Hive plans read `?off2`'s product
    /// pattern through an OS reduction that keeps 2 % of its rows. The
    /// coster scales the star by that selectivity, so the estimate alone
    /// ranks the reduced plan first, and it is also the measured best.
    #[test]
    fn the_estimate_alone_picks_the_extvp_arm() {
        let model = ClusterModel::nodes10();
        let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::large()));
        let aq = aq_of(&query("MG2").sparql);
        let (e, all) = assert_dry_run_contract(&cat, &aq, &model).remove(0);
        let by_estimate = all
            .iter()
            .min_by(|a, b| a.estimated_s.total_cmp(&b.estimated_s))
            .unwrap();
        assert_eq!(
            by_estimate.name,
            "hive-mqo mj=1048576 msa=on extvp=on ord=default"
        );
        assert_eq!(e.choice, by_estimate.name);
        assert_eq!(format!("{:.3}", e.measured_s), "115.506");
    }

    /// max(e/a, a/e) over estimated and measured rows, each plus one.
    fn q_error(estimated: u64, measured: u64) -> f64 {
        let (e, a) = (estimated as f64 + 1.0, measured as f64 + 1.0);
        (e / a).max(a / e)
    }

    /// The coster sees ExtVP reductions: on bsbm-8k MG2 and MG4 the Hive
    /// plan `enumerate_best` chooses reads ExtVP tables, and every job that
    /// reads one, and every job that reads such a job's output, is estimated
    /// within a smoothed q-error of 2 of the rows it measures. Before the
    /// coster scaled a star by its reductions' selectivities, MG2's
    /// `composite-star ?off2` was estimated at 15 847 rows where 317
    /// survive, and the join after it at 39 011 where 706 do.
    #[test]
    fn extvp_jobs_and_the_joins_after_them_are_estimated_within_2x() {
        let model = ClusterModel::nodes10();
        let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::large()));
        for id in ["MG2", "MG4"] {
            let aq = aq_of(&query(id).sparql);
            let choice = enumerate_best(Family::Hive, &aq, &cat, &model)
                .unwrap()
                .choice;
            let (cands, composite) = candidates(Family::Hive, &aq, &cat).unwrap();
            let cand = cands.iter().find(|c| c.name == choice).unwrap();
            let shape = cand.shape(&composite);
            let plan = compile_shaped(&cand.rules, shape, &aq, &cat).unwrap();
            let ctx = cand.ctx(shape, &aq, &cat, &plan).unwrap();
            let estimated = coster::estimate_jobs(&cat, &plan, &ctx);
            let wf = plan.try_run(&Engine::pinned(cat.dfs.clone())).unwrap();
            plan.cleanup(&cat.dfs);
            cat.dfs.remove(&plan.output_dataset);

            let jobs: Vec<_> = plan.jobs.iter().chain(plan.final_job.iter()).collect();
            assert_eq!((estimated.len(), wf.jobs.len()), (jobs.len(), jobs.len()));
            let reads_extvp = |k: usize| {
                let sides = jobs[k].mapper.side_inputs();
                let mut inputs = jobs[k].inputs.iter().chain(&sides);
                inputs.any(|name| name.starts_with("extvp_"))
            };
            let extvp_jobs: Vec<usize> = (0..jobs.len()).filter(|&k| reads_extvp(k)).collect();
            assert!(
                !extvp_jobs.is_empty(),
                "{id} {choice}: no job reads an ExtVP table"
            );
            let mut pinned = extvp_jobs.clone();
            for &k in &extvp_jobs {
                let out = &jobs[k].output;
                pinned.extend((0..jobs.len()).filter(|&n| jobs[n].inputs.contains(out)));
            }
            pinned.sort_unstable();
            pinned.dedup();
            assert!(
                pinned.len() > extvp_jobs.len(),
                "{id} {choice}: no job follows"
            );
            for k in pinned {
                let (e, m) = (estimated[k].output_records, wf.jobs[k].output_records);
                assert!(
                    q_error(e, m) <= 2.0,
                    "{id} {choice}: {} estimated {e} rows, measured {m}",
                    jobs[k].name
                );
            }
        }
    }
}
