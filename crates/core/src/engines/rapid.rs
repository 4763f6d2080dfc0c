//! The NTGA-based engines: **RAPID+** (sequential per-pattern evaluation,
//! the paper's baseline \[25,33\]) and **RAPIDAnalytics** (this paper's
//! contribution: composite graph patterns with shared scans, α-join pruning,
//! and parallel Agg-Join evaluation).

use crate::aquery::{resolve_block_var, AnalyticalQuery, BlockVarBinding, GroupingBlock};
use crate::catalog::DataCatalog;
use crate::composite::{joins_of, CompositeJoin, CompositePattern, EdgeKey};
use crate::engines::NUM_REDUCERS;
use crate::enumerate::coster::CardTag;
use crate::filters::{compile_block_filters, StarFilter, ValuePred};
use crate::plan::{agg_op_of, finish_plan, next_plan_id, PlanError, QueryPlan};
use crate::rules::{left_deep_walk, Attach, PlanRules};
use rapida_mapred::{FnMapFactory, FnReduceFactory, Job, JobBuilder, KeyLocal};
use rapida_ntga::{
    AggJoinConfig, AggJoinMapper, AggJoinReducer, AggJoinSpec, AggSpec, AlphaCond,
    AlphaJoinReducer, AlphaTerm, AnnRoute, IdPred, InputRoutes, JoinKey, PropReq, Side,
    StarRoute, StarSpec, TgJoinMapConfig, TgJoinMapper, ValueFilter, VarRef,
};
use rapida_rdf::TermId;
use rapida_sparql::analysis::{PropKey, StarDecomposition};
use rapida_storage::{read_dataset_rows, ExtVpKind, ExtVpMeta};
use rapida_sparql::ast::{PatternTerm, TriplePattern, Var};
use std::sync::Arc;

/// RAPID+: every block's pattern joined and aggregated on its own.
pub(super) fn plan_per_block(
    rules: &PlanRules,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<QueryPlan, PlanError> {
    let pid = next_plan_id("rp");
    let mut jobs = Vec::new();
    let mut block_datasets = Vec::new();
    for (b, block) in aq.blocks.iter().enumerate() {
        let dec = block.decomposition()?;
        let (prefix, order) = (format!("{pid}_b{b}"), rules.join_order(b));
        let planner =
            TgJoinPlanner::for_block(cat, block, &dec, prefix, b, order, rules.use_extvp)?;
        let (mut join_jobs, joined) = planner.build_join_jobs()?;
        jobs.append(&mut join_jobs);

        // Agg-Join cycle for this block.
        let spec = block_agg_spec(cat, block, &dec, b as u8, None, AlphaCond::default())?;
        let out = format!("{pid}_b{b}_agg");
        jobs.push(agg_join_job(
            cat,
            &format!("RAPID+:agg-join b{b}"),
            CardTag::Agg { block: b },
            vec![spec],
            planner.agg_inputs(joined),
            rules.map_side_agg,
            &out,
        ));
        block_datasets.push(out);
    }
    finish_plan("RAPID+ (Naive)", aq, jobs, block_datasets, &pid)
}

/// RAPIDAnalytics: the composite pattern joined once (α-join pruning),
/// then every block aggregated over it by the generalized Agg-Join.
pub(super) fn plan_composite(
    rules: &PlanRules,
    aq: &AnalyticalQuery,
    composite: &CompositePattern,
    cat: &DataCatalog,
) -> Result<QueryPlan, PlanError> {
    let pid = next_plan_id("ra");
    let decs: Vec<StarDecomposition> = aq
        .blocks
        .iter()
        .map(|b| b.decomposition())
        .collect::<Result<_, _>>()?;

    let specs = composite_star_specs(cat, composite, &decs)?;
    let mut filters = star_filters(cat, &composite.filters, composite.stars.len());
    if rules.use_extvp {
        let primary: Vec<Vec<PropKey>> = composite
            .stars
            .iter()
            .map(|s| s.primary.clone())
            .collect();
        compose_extvp_gates(cat, &mut filters, &primary, &subject_gates(&composite.joins));
    }
    let edges = compile_edges(cat, &composite.joins);
    // Join-time pruning: the disjunction of every block's positive α.
    // A block without a positive term contributes the empty conjunction,
    // which accepts every combination — the whole disjunction is then
    // `true`, written as the empty list the α-join treats as accept-all.
    let mut conds: Vec<AlphaCond> = if rules.alpha_pruning {
        (0..aq.blocks.len())
            .map(|b| alpha_cond_of(cat, composite, b))
            .collect()
    } else {
        Vec::new()
    };
    if conds.iter().any(|c| c.terms.is_empty()) {
        conds.clear();
    }
    let planner = TgJoinPlanner {
        cat,
        prefix: pid.clone(),
        unit: 0,
        edge_order: rules.join_order(0),
        specs,
        filters,
        edges,
        conds: Arc::new(conds),
    };
    let (mut jobs, joined) = planner.build_join_jobs()?;

    // Agg-Join specs, one per block, over the composite layout.
    let mut agg_specs = Vec::with_capacity(aq.blocks.len());
    for (b, block) in aq.blocks.iter().enumerate() {
        let alpha = alpha_cond_of(cat, composite, b);
        agg_specs.push(block_agg_spec(
            cat,
            block,
            &decs[b],
            b as u8,
            Some(&composite.star_map[b]),
            alpha,
        )?);
    }

    let mut block_datasets;
    if rules.parallel_agg {
        // One generalized Agg-Join cycle (Fig. 6(b)).
        let out = format!("{pid}_aggs");
        jobs.push(agg_join_job(
            cat,
            "RAPIDAnalytics:parallel-agg-join",
            CardTag::AggPar,
            agg_specs,
            planner.agg_inputs(joined),
            rules.map_side_agg,
            &out,
        ));
        block_datasets = vec![out; aq.blocks.len()];
    } else {
        // Sequential Agg-Joins (Fig. 6(a) ablation).
        block_datasets = Vec::with_capacity(aq.blocks.len());
        for (b, spec) in agg_specs.into_iter().enumerate() {
            let out = format!("{pid}_agg_b{b}");
            jobs.push(agg_join_job(
                cat,
                &format!("RAPIDAnalytics:agg-join b{b}"),
                CardTag::Agg { block: b },
                vec![spec],
                planner.agg_inputs(joined.clone()),
                rules.map_side_agg,
                &out,
            ));
            block_datasets.push(out);
        }
    }
    finish_plan("RAPIDAnalytics", aq, jobs, block_datasets, &pid)
}

/// The §2.2 shared scan over non-overlapping single-star blocks: one
/// Agg-Join cycle over the union of covering partitions, each block's star
/// filter applied to the shared scan.
pub(super) fn plan_shared_single_star(
    rules: &PlanRules,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<QueryPlan, PlanError> {
    let mut raw_filters = Vec::with_capacity(aq.blocks.len());
    let mut agg_specs = Vec::with_capacity(aq.blocks.len());
    for (b, block) in aq.blocks.iter().enumerate() {
        let dec = block.decomposition()?;
        let filters = compile_block_filters(block, &dec)?;
        let mut specs = block_star_specs(cat, &dec)?;
        let mut spec = specs.remove(0);
        // Tag this block's star with the block index so the AnnTgs
        // produced by the shared scan route to the right Agg-Join spec.
        spec.star = b as u8;
        raw_filters.push((spec, star_filters(cat, &filters, 1).remove(0)));
        agg_specs.push(block_agg_spec(
            cat,
            block,
            &dec,
            b as u8,
            Some(&[b]),
            AlphaCond::default(),
        )?);
    }
    let pid = next_plan_id("ras");
    let out = format!("{pid}_aggs");
    let (inputs, table) = shared_scan(cat, raw_filters.iter().map(|(spec, _)| spec));
    let job = agg_join_job(
        cat,
        "RAPIDAnalytics:shared-scan-agg-join",
        CardTag::AggShared,
        agg_specs,
        AggInputs {
            inputs,
            table,
            raw: raw_filters,
        },
        rules.map_side_agg,
        &out,
    );
    let block_datasets = vec![out; aq.blocks.len()];
    finish_plan(
        "RAPIDAnalytics",
        aq,
        vec![job],
        block_datasets,
        &pid,
    )
}

/// Shared join-cycle planning over star specs + edges.
pub(crate) struct TgJoinPlanner<'a> {
    cat: &'a DataCatalog,
    prefix: String,
    /// Planning-unit index for cost tags (block index, 0 for composites).
    unit: usize,
    /// The unit's [`PlanRules::join_orders`] entry.
    edge_order: &'a [usize],
    specs: Vec<StarSpec>,
    /// Per star: its pushed-down FILTER predicates and ExtVP subject gate.
    filters: Vec<ValueFilter>,
    edges: Vec<CompiledEdge>,
    conds: Arc<Vec<AlphaCond>>,
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledEdge {
    l_star: usize,
    r_star: usize,
    l_key: JoinKey,
    r_key: JoinKey,
}

impl<'a> TgJoinPlanner<'a> {
    /// The planner of one block's own pattern: every property primary, the
    /// block's value filters (and, with `use_extvp`, subject gates) ahead of
    /// the shuffle, no α-condition.
    pub(crate) fn for_block(
        cat: &'a DataCatalog,
        block: &GroupingBlock,
        dec: &StarDecomposition,
        prefix: String,
        unit: usize,
        edge_order: &'a [usize],
        use_extvp: bool,
    ) -> Result<Self, PlanError> {
        let compiled = compile_block_filters(block, dec)?;
        let joins = joins_of(dec);
        let mut filters = star_filters(cat, &compiled, dec.stars.len());
        if use_extvp {
            let primary: Vec<Vec<PropKey>> = dec
                .stars
                .iter()
                .map(|s| s.triples.iter().filter_map(PropKey::of).collect())
                .collect();
            compose_extvp_gates(cat, &mut filters, &primary, &subject_gates(&joins));
        }
        Ok(TgJoinPlanner {
            cat,
            prefix,
            unit,
            edge_order,
            specs: block_star_specs(cat, dec)?,
            filters,
            edges: compile_edges(cat, &joins),
            conds: Arc::new(Vec::new()),
        })
    }

    fn route(&self, star: usize, side: Side, key: JoinKey) -> StarRoute {
        StarRoute {
            spec: self.specs[star].clone(),
            side,
            key,
            filter: self.filters[star].clone(),
        }
    }

    /// Join cycle `cycle` (1-based) of this unit. Its [`Job::sig`] is the
    /// mapper's whole config plus what the α-join reducer is built from.
    fn join_job(&self, cycle: usize, inputs: Vec<String>, cfg: TgJoinMapConfig, out: &str) -> Job {
        assert_eq!(cfg.inputs.len(), inputs.len(), "one route-table entry per input");
        #[cfg(test)]
        route_table::record(
            &inputs,
            &cfg.inputs,
            cfg.star_routes.iter().map(|r| (&r.spec, &r.filter)),
        );
        let mut b = JobBuilder::new(format!("{}:tg-join{}", self.prefix, cycle))
            .sig_of(&(&cfg, &self.conds));
        for i in inputs {
            b = b.input(i);
        }
        let cfg = Arc::new(cfg);
        let conds = self.conds.clone();
        b.mapper(Arc::new(FnMapFactory(move || TgJoinMapper::new(cfg.clone()))))
        .reducer(Arc::new(KeyLocal(FnReduceFactory(move || {
            AlphaJoinReducer::new(conds.clone())
        }))))
        .output(out)
        .num_reducers(NUM_REDUCERS)
        .tag(CardTag::Join {
            unit: self.unit,
            cycle: cycle - 1,
        })
        .build()
    }

    /// The inputs of an Agg-Join over this pattern: the joined intermediate,
    /// or for a single-star pattern the raw covering partitions with the
    /// star's filter.
    pub(crate) fn agg_inputs(&self, joined: Option<String>) -> AggInputs {
        match joined {
            Some(ds) => AggInputs {
                inputs: vec![ds],
                table: vec![InputRoutes::Ann],
                raw: Vec::new(),
            },
            None => {
                let (inputs, table) = self.shared_scan(&[0]);
                AggInputs {
                    inputs,
                    table,
                    raw: vec![(self.specs[0].clone(), self.filters[0].clone())],
                }
            }
        }
    }

    fn shared_scan(&self, stars: &[usize]) -> (Vec<String>, Vec<InputRoutes>) {
        shared_scan(self.cat, stars.iter().map(|&s| &self.specs[s]))
    }

    /// Build the join cycles of [`left_deep_walk`]. Returns `(jobs, joined
    /// dataset)`; `joined = None` for single-star patterns (the Agg-Join
    /// scans raw triplegroups directly).
    pub(crate) fn build_join_jobs(&self) -> Result<(Vec<Job>, Option<String>), PlanError> {
        let ends: Vec<(usize, usize)> = self.edges.iter().map(|e| (e.l_star, e.r_star)).collect();
        let steps = left_deep_walk(self.specs.len(), self.edge_order, &ends)?;
        let mut jobs = Vec::with_capacity(steps.len());
        let mut prev: Option<String> = None;
        for (k, step) in steps.iter().enumerate() {
            let edge = &self.edges[step.edge];
            let out = format!("{}_join{}", self.prefix, k + 1);
            let (inputs, cfg) = match step.attach {
                // Both sides raw: the shared scan over covering partitions,
                // each walked by the routes its class covers.
                Attach::First(l, r) => {
                    let (inputs, table) = self.shared_scan(&[l, r]);
                    let cfg = TgJoinMapConfig {
                        inputs: table,
                        star_routes: vec![
                            self.route(l, Side::Left, edge.l_key),
                            self.route(r, Side::Right, edge.r_key),
                        ],
                        ann_routes: vec![],
                    };
                    (inputs, cfg)
                }
                // One side is the intermediate, the other a raw star.
                Attach::Star(new_star) => {
                    let (new_key, old_key) = if new_star == edge.r_star {
                        (edge.r_key, edge.l_key)
                    } else {
                        (edge.l_key, edge.r_key)
                    };
                    let (raw, entries) = self.shared_scan(&[new_star]);
                    let mut inputs = vec![prev.take().expect("set by the first cycle")];
                    inputs.extend(raw);
                    let mut table = vec![InputRoutes::Ann];
                    table.extend(entries);
                    let cfg = TgJoinMapConfig {
                        inputs: table,
                        star_routes: vec![self.route(new_star, Side::Right, new_key)],
                        ann_routes: vec![AnnRoute {
                            side: Side::Left,
                            key: old_key,
                        }],
                    };
                    (inputs, cfg)
                }
            };
            jobs.push(self.join_job(k + 1, inputs, cfg, &out));
            prev = Some(out);
        }
        Ok((jobs, prev))
    }
}

/// The shared scan of `specs`: the triplegroup partitions holding every
/// group any of them can match and, per partition, its route-table entry —
/// the indexes of the specs its class covers.
fn shared_scan<'s>(
    cat: &DataCatalog,
    specs: impl Iterator<Item = &'s StarSpec>,
) -> (Vec<String>, Vec<InputRoutes>) {
    let reqs: Vec<Vec<TermId>> = specs
        .map(|s| s.primary_props().into_iter().map(TermId).collect())
        .collect();
    cat.tg
        .covering_any(&reqs)
        .into_iter()
        .map(|(dataset, covers)| (dataset, InputRoutes::Raw(covers)))
        .unzip()
}

/// Job inputs of an Agg-Join cycle, their route table and, when they are
/// raw triplegroups, the single-star filters applied to the shared scan.
pub(crate) struct AggInputs {
    inputs: Vec<String>,
    table: Vec<InputRoutes>,
    raw: Vec<(StarSpec, ValueFilter)>,
}

pub(crate) fn agg_join_job(
    cat: &DataCatalog,
    name: &str,
    tag: CardTag,
    specs: Vec<AggJoinSpec>,
    AggInputs { inputs, table, raw }: AggInputs,
    map_side_combine: bool,
    out: &str,
) -> Job {
    assert_eq!(table.len(), inputs.len(), "one route-table entry per input");
    #[cfg(test)]
    route_table::record(&inputs, &table, raw.iter().map(|(spec, filter)| (spec, filter)));
    let cfg = Arc::new(AggJoinConfig {
        specs,
        dict: cat.dict.clone(),
        inputs: table,
        raw_filters: raw,
        map_side_combine,
    });
    let mut b = JobBuilder::new(name).sig_of(&cfg);
    for i in inputs {
        b = b.input(i);
    }
    b.mapper(Arc::new(FnMapFactory({
        let c = cfg.clone();
        move || AggJoinMapper::new(c.clone())
    })))
    .reducer(Arc::new(KeyLocal(FnReduceFactory({
        let c = cfg.clone();
        move || AggJoinReducer::new(c.clone())
    }))))
    .output(out)
    .num_reducers(NUM_REDUCERS)
    .tag(tag)
    .build()
}

/// Id-level property requirement of a triple pattern (object constraints for
/// both `rdf:type PT18` and plain constants like `pub_type "News"`).
fn prop_req_of(cat: &DataCatalog, tp: &TriplePattern) -> Result<PropReq, PlanError> {
    let prop = tp
        .p
        .as_term()
        .ok_or_else(|| PlanError::Unsupported("unbound property".into()))?;
    let pid = cat.id_of(prop);
    Ok(match &tp.o {
        PatternTerm::Term(t) => PropReq::with_object(pid, cat.id_of(t)),
        PatternTerm::Var(_) => PropReq::any(pid),
    })
}

/// Star specs for a single block (all properties primary — the original
/// graph pattern).
fn block_star_specs(
    cat: &DataCatalog,
    dec: &StarDecomposition,
) -> Result<Vec<StarSpec>, PlanError> {
    dec.stars
        .iter()
        .enumerate()
        .map(|(i, star)| {
            let primary = star
                .triples
                .iter()
                .map(|tp| prop_req_of(cat, tp))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(StarSpec {
                star: i as u8,
                primary,
                secondary: vec![],
            })
        })
        .collect()
}

/// Composite star specs: primary = intersection (with constant-object
/// constraints recovered from the blocks), secondary = the rest.
fn composite_star_specs(
    cat: &DataCatalog,
    c: &CompositePattern,
    decs: &[StarDecomposition],
) -> Result<Vec<StarSpec>, PlanError> {
    c.stars
        .iter()
        .enumerate()
        .map(|(cs, star)| {
            let req_of = |key: &PropKey| -> PropReq {
                let (pid, type_obj) = cat.resolve_prop(key);
                match type_obj {
                    Some(o) => PropReq::with_object(pid, o),
                    None => match c.const_object(decs, cs, key) {
                        Some(t) => PropReq::with_object(pid, cat.id_of(&t)),
                        None => PropReq::any(pid),
                    },
                }
            };
            Ok(StarSpec {
                star: cs as u8,
                primary: star.primary.iter().map(&req_of).collect(),
                secondary: star.secondary.iter().map(|s| req_of(&s.prop)).collect(),
            })
        })
        .collect()
}

/// Each of `n_stars` stars' [`ValueFilter`], from its compiled value
/// filters; ungated.
fn star_filters(cat: &DataCatalog, filters: &[StarFilter], n_stars: usize) -> Vec<ValueFilter> {
    (0..n_stars)
        .map(|s| {
            let preds = filters
                .iter()
                .filter(|f| f.star == s)
                .map(|f| (cat.resolve_prop(&f.prop).0, id_pred_of(cat, &f.pred)))
                .collect();
            value_filter(cat, preds)
        })
        .collect()
}

/// An ungated filter of `preds`, over the catalog's dictionary.
fn value_filter(cat: &DataCatalog, preds: Vec<(u64, IdPred)>) -> ValueFilter {
    ValueFilter {
        preds,
        subjects: None,
        dict: cat.dict.clone(),
    }
}

/// Join edges where a star enters the join by its subject against a
/// partner's `ObjectOf(p)` column: `(subject-side star, partner prop p)`.
fn subject_gates(joins: &[CompositeJoin]) -> Vec<(usize, PropKey)> {
    let mut gates = Vec::new();
    for j in joins {
        for (star, key, other) in [
            (j.left_star, &j.left, &j.right),
            (j.right_star, &j.right, &j.left),
        ] {
            if *key == EdgeKey::Subject {
                if let EdgeKey::ObjectOf(p) = other {
                    gates.push((star, p.clone()));
                }
            }
        }
    }
    gates
}

/// Compose ExtVP subject gates into per-star filters. A spec-matching
/// triplegroup of the subject-side star has its subject in `subjects(a)`
/// for every primary prop `a`, and survives the pure-inner α-join only if
/// that subject also lies in `objects(p)` — together exactly the subject
/// set of the `SO[a|p]` reduction. The smallest applicable reduction is
/// loaded once at plan time as a sorted id set and checked by binary
/// search ahead of the shuffle; stars without a materialized reduction
/// stay ungated, and a star gated twice keeps the intersection. Groups the
/// gate removes could never survive the join, so output is byte-identical
/// either way.
fn compose_extvp_gates(
    cat: &DataCatalog,
    filters: &mut [ValueFilter],
    star_primary: &[Vec<PropKey>],
    gates: &[(usize, PropKey)],
) {
    for (star, partner) in gates {
        let partner_key = cat.vp_key(partner);
        let mut best: Option<&ExtVpMeta> = None;
        for a in &star_primary[*star] {
            if let Some(e) = cat.vp.reduction(cat.vp_key(a), ExtVpKind::SO, partner_key) {
                if best
                    .is_none_or(|b| (e.bytes, e.dataset.as_str()) < (b.bytes, b.dataset.as_str()))
                {
                    best = Some(e);
                }
            }
        }
        let Some(e) = best else { continue };
        let Some(ds) = cat.dfs.peek(&e.dataset) else {
            continue;
        };
        let mut subjects: Vec<u64> = read_dataset_rows(&ds).into_iter().map(|(s, _)| s).collect();
        subjects.dedup(); // reduction rows are sorted by (s, o)
        let gate = &mut filters[*star].subjects;
        if let Some(earlier) = gate {
            subjects.retain(|s| earlier.binary_search(s).is_ok());
        }
        *gate = Some(Arc::new(subjects));
    }
}

/// Compile a [`ValuePred`] to the id level.
pub(crate) fn id_pred_of(cat: &DataCatalog, pred: &ValuePred) -> IdPred {
    match pred {
        ValuePred::Num { op, rhs } => IdPred::Num { op: *op, rhs: *rhs },
        ValuePred::TermCmp { eq, rhs } => IdPred::IdEq {
            eq: *eq,
            rhs: cat.id_of(rhs),
        },
        ValuePred::Contains {
            pattern,
            case_insensitive,
        } => IdPred::Contains {
            pattern: pattern.clone(),
            case_insensitive: *case_insensitive,
        },
    }
}

fn edge_jk(cat: &DataCatalog, star: usize, key: &EdgeKey) -> JoinKey {
    match key {
        EdgeKey::Subject => JoinKey::Subject { star: star as u8 },
        EdgeKey::ObjectOf(p) => JoinKey::ObjectOf {
            star: star as u8,
            prop: cat.resolve_prop(p).0,
        },
    }
}

fn compile_edges(cat: &DataCatalog, joins: &[CompositeJoin]) -> Vec<CompiledEdge> {
    joins
        .iter()
        .map(|j| CompiledEdge {
            l_star: j.left_star,
            r_star: j.right_star,
            l_key: edge_jk(cat, j.left_star, &j.left),
            r_key: edge_jk(cat, j.right_star, &j.right),
        })
        .collect()
}

fn alpha_cond_of(cat: &DataCatalog, c: &CompositePattern, block: usize) -> AlphaCond {
    AlphaCond {
        terms: c
            .alpha_positive(block)
            .iter()
            .map(|(star, prop)| AlphaTerm {
                star: *star as u8,
                prop: cat.resolve_prop(prop).0,
                required: true,
            })
            .collect(),
    }
}

/// Build the Agg-Join spec of a block: slots for every distinct pattern
/// variable, grouping/aggregate references by slot. `star_remap` maps block
/// star indexes onto composite star indexes (identity when `None`).
pub(crate) fn block_agg_spec(
    cat: &DataCatalog,
    block: &GroupingBlock,
    dec: &StarDecomposition,
    id: u8,
    star_remap: Option<&[usize]>,
    alpha: AlphaCond,
) -> Result<AggJoinSpec, PlanError> {
    // Distinct variables in first-occurrence order.
    let mut vars: Vec<Var> = Vec::new();
    for tp in &block.triples {
        for v in tp.vars() {
            if !vars.contains(v) {
                vars.push(v.clone());
            }
        }
    }
    let remap = |s: usize| -> u8 {
        match star_remap {
            Some(m) => m[s] as u8,
            None => s as u8,
        }
    };
    let slots: Vec<VarRef> = vars
        .iter()
        .map(|v| {
            Ok(match resolve_block_var(dec, v)? {
                BlockVarBinding::Subject { star } => VarRef::Subject { star: remap(star) },
                BlockVarBinding::ObjectOf { star, prop } => VarRef::ObjectOf {
                    star: remap(star),
                    prop: cat.resolve_prop(&prop).0,
                },
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;
    let slot_of = |v: &Var| -> Result<usize, PlanError> {
        vars.iter().position(|x| x == v).ok_or_else(|| {
            PlanError::Extract(crate::aquery::ExtractError::UnknownBlockVar(v.clone()))
        })
    };
    let group_slots = block
        .group_by
        .iter()
        .map(&slot_of)
        .collect::<Result<Vec<_>, _>>()?;
    let aggs = block
        .aggregates
        .iter()
        .map(|a| {
            Ok(AggSpec {
                op: agg_op_of(a.func),
                arg: match &a.arg {
                    None => None,
                    Some(v) => Some(slot_of(v)?),
                },
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;
    Ok(AggJoinSpec {
        id,
        slots,
        group_slots,
        aggs,
        alpha,
    })
}

#[cfg(test)]
mod route_table;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aquery::extract;
    use crate::plan::QueryEngine;
    use rapida_rdf::Graph;
    use rapida_sparql::parse_query;

    fn catalog() -> DataCatalog {
        let mut g = Graph::new();
        let iri = |s: &str| rapida_rdf::Term::iri(format!("http://x/{s}"));
        for i in 0..10 {
            let p = iri(&format!("p{i}"));
            g.insert_terms(&p, &rapida_rdf::Term::iri(rapida_rdf::vocab::RDF_TYPE), &iri("T1"));
            g.insert_terms(&p, &iri("pf"), &iri(&format!("f{}", i % 3)));
            let o = iri(&format!("o{i}"));
            g.insert_terms(&o, &iri("pr"), &p);
            g.insert_terms(&o, &iri("pc"), &rapida_rdf::Term::decimal(i as f64));
        }
        DataCatalog::load(&g)
    }

    fn block(q: &str) -> GroupingBlock {
        extract(&parse_query(q).unwrap()).unwrap().blocks.remove(0)
    }

    #[test]
    fn prop_req_captures_constant_objects() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?x) AS ?n) { ?s a ex:T1 ; ex:pf ?x . }",
        );
        let req_type = prop_req_of(&cat, &b.triples[0]).unwrap();
        assert!(req_type.object.is_some(), "type object constrained");
        let req_pf = prop_req_of(&cat, &b.triples[1]).unwrap();
        assert!(req_pf.object.is_none(), "variable object unconstrained");
    }

    #[test]
    fn block_star_specs_are_all_primary() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?c) AS ?n) { ?p a ex:T1 ; ex:pf ?f . ?o ex:pr ?p ; ex:pc ?c . }",
        );
        let dec = b.decomposition().unwrap();
        let specs = block_star_specs(&cat, &dec).unwrap();
        assert_eq!(specs.len(), 2);
        assert!(specs.iter().all(|s| s.secondary.is_empty()));
        assert_eq!(specs[0].primary.len(), 2);
        assert_eq!(specs[1].primary.len(), 2);
    }

    #[test]
    fn block_agg_spec_enumerates_every_pattern_variable() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT ?f (COUNT(?c) AS ?n)
             { ?p a ex:T1 ; ex:pf ?f . ?o ex:pr ?p ; ex:pc ?c . } GROUP BY ?f",
        );
        let dec = b.decomposition().unwrap();
        let spec = block_agg_spec(&cat, &b, &dec, 0, None, AlphaCond::default()).unwrap();
        // Variables: ?p, ?f, ?o, ?c — all four become enumeration slots
        // (SPARQL solution-row semantics), even unreferenced ?o.
        assert_eq!(spec.slots.len(), 4);
        assert_eq!(spec.group_slots.len(), 1);
        assert_eq!(spec.aggs.len(), 1);
    }

    #[test]
    fn compiled_edges_capture_roles() {
        let cat = catalog();
        let b = block(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?c) AS ?n) { ?p a ex:T1 . ?o ex:pr ?p ; ex:pc ?c . }",
        );
        let dec = b.decomposition().unwrap();
        let edges = compile_edges(&cat, &joins_of(&dec));
        assert_eq!(edges.len(), 1);
        assert!(matches!(edges[0].l_key, JoinKey::Subject { star: 0 }));
        assert!(matches!(edges[0].r_key, JoinKey::ObjectOf { star: 1, .. }));
    }

    #[test]
    fn prefilter_drops_failing_triples_only() {
        let cat = catalog();
        let pc = cat.id_of(&rapida_rdf::Term::iri("http://x/pc"));
        let pred = IdPred::Num {
            op: rapida_sparql::ast::CmpOp::Ge,
            rhs: 5.0,
        };
        let f = value_filter(&cat, vec![(pc, pred)]);
        let lo = cat.id_of(&rapida_rdf::Term::decimal(2.0));
        let hi = cat.id_of(&rapida_rdf::Term::decimal(7.0));
        assert!(f.admits(pc, hi));
        assert!(!f.admits(pc, lo));
        assert!(f.admits(99, 5), "unrelated properties untouched");
        assert!(f.admits_subject(1), "no gate");
    }

    /// The ExtVP subject gate on a graph where only 4 of 40 `pa` subjects
    /// are referenced by `pr` objects (SO selectivity 0.1, under the 0.25
    /// threshold): the gated plan must produce identical result rows while
    /// emitting strictly fewer map-output records (groups dropped ahead of
    /// the shuffle).
    #[test]
    fn extvp_subject_gate_prunes_shuffle_but_not_output() {
        let mut g = Graph::new();
        let iri = |s: &str| rapida_rdf::Term::iri(format!("http://x/{s}"));
        for i in 0..40 {
            g.insert_terms(
                &iri(&format!("s{i}")),
                &iri("pa"),
                &iri(&format!("x{}", i % 7)),
            );
        }
        for i in 0..4 {
            let o = iri(&format!("o{i}"));
            g.insert_terms(&o, &iri("pr"), &iri(&format!("s{i}")));
            g.insert_terms(&o, &iri("pc"), &rapida_rdf::Term::decimal(i as f64));
        }
        let cat = DataCatalog::load(&g);
        let aq = extract(
            &parse_query(
                "PREFIX ex: <http://x/>
                 SELECT (COUNT(?c) AS ?n) { ?p ex:pa ?x . ?o ex:pr ?p ; ex:pc ?c . }",
            )
            .unwrap(),
        )
        .unwrap();
        let run = |use_extvp: bool| {
            let engine = PlanRules {
                use_extvp,
                ..PlanRules::rapid_plus()
            };
            let plan = engine.plan(&aq, &cat).unwrap();
            let mr = rapida_mapred::Engine::pinned(cat.dfs.clone());
            let (rel, wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
            plan.cleanup(&cat.dfs);
            cat.dfs.remove(&plan.output_dataset);
            let emitted: u64 = wf.jobs.iter().map(|j| j.map_output_records).sum();
            (rel.rows, emitted, plan.fingerprint().expect("signed"))
        };
        let (rows_gated, emitted_gated, print_gated) = run(true);
        let (rows_full, emitted_full, print_full) = run(false);
        assert_ne!(
            print_gated, print_full,
            "an installed gate is part of the plan"
        );
        assert_eq!(rows_gated, rows_full, "gate changed the query result");
        assert!(
            emitted_gated < emitted_full,
            "gate never fired: {emitted_gated} map-output records vs {emitted_full}"
        );
    }
}
