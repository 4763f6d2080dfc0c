//! The relational SQL-on-Hadoop engines: **Hive (Naive)** — direct
//! relational compilation of each grouping block over vertically partitioned
//! tables — and **Hive (MQO)** — the multi-query-optimization rewriting \[27\]:
//! one composite pattern evaluated with left-outer joins, materialized, then
//! per-block extraction + aggregation.

use crate::aquery::{AnalyticalQuery, GroupingBlock};
use crate::catalog::DataCatalog;
use crate::composite::{CompositePattern, SecondaryProp};
use crate::engines::rapid::id_pred_of;
use crate::engines::NUM_REDUCERS;
use crate::enumerate::coster::CardTag;
use crate::filters::StarFilter;
use crate::plan::{agg_op_of, finish_plan, next_plan_id, PlanError, QueryPlan};
use crate::relops::{
    DistinctCfg, DistinctMapTask, DistinctReduceTask, GroupAggCfg, GroupAggMapTask,
    GroupAggReduceTask, JoinCycleCfg, JoinInputCfg, JoinMapTask, JoinReduceTask, MapJoinCfg,
    MapJoinFactory, MapJoinSmall, PredOnCol, ScanKind,
};
use crate::rules::{left_deep_walk, Attach, PlanRules};
use rapida_mapred::{FnMapFactory, FnReduceFactory, Job, JobBuilder, KeyLocal};
use rapida_ntga::AggOp;
use rapida_rdf::FxHashMap;
use rapida_sparql::analysis::{PropKey, Role, StarDecomposition};
use rapida_storage::{ExtVpKind, ExtVpMeta, VpKey};
use rapida_sparql::ast::{PatternTerm, TriplePattern, Var};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Hive (Naive): every block compiled on its own — star cycles, star-star
/// joins, grouping-aggregation.
pub(super) fn plan_per_block(
    rules: &PlanRules,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<QueryPlan, PlanError> {
    let pid = next_plan_id("hn");
    let mut planner = RelPlanner::new(cat, rules, pid.clone());
    let mut block_datasets = Vec::new();
    for (b, block) in aq.blocks.iter().enumerate() {
        block_datasets.push(planner.plan_block_naive(block, b as u8)?);
    }
    let jobs = planner.jobs;
    finish_plan("Hive (Naive)", aq, jobs, block_datasets, &pid)
}

/// Hive (MQO): the composite materialized once, then per-block extraction +
/// aggregation.
pub(super) fn plan_composite(
    rules: &PlanRules,
    aq: &AnalyticalQuery,
    composite: &CompositePattern,
    cat: &DataCatalog,
) -> Result<QueryPlan, PlanError> {
    let pid = next_plan_id("hm");
    let (jobs, block_datasets) = mqo_block_jobs(rules, aq, composite, cat, pid.clone())?;
    finish_plan("Hive (MQO)", aq, jobs, block_datasets, &pid)
}

/// Compile just the shared MQO block jobs — composite QOPT materialization
/// plus per-block extraction/aggregation — without the per-query finishing
/// join, returning `(jobs, per-block output dataset names)`.
///
/// This is the seam the batched serving layer plans through: it fuses the
/// blocks of several overlapping queries into one [`AnalyticalQuery`],
/// builds one composite for the whole batch, compiles the shared jobs here,
/// and demultiplexes the per-block datasets back to member queries (block
/// ids in the outputs are the *combined* block indices, stamped by
/// `group_agg_cycle`). [`plan_composite`] uses the same seam, so the fused
/// path and the solo path execute identical job shapes.
pub(crate) fn mqo_block_jobs(
    rules: &PlanRules,
    aq: &AnalyticalQuery,
    composite: &CompositePattern,
    cat: &DataCatalog,
    pid: String,
) -> Result<(Vec<Job>, Vec<String>), PlanError> {
    let mut planner = RelPlanner::new(cat, rules, pid);
    let block_datasets = planner.plan_mqo(aq, composite)?;
    Ok((planner.jobs, block_datasets))
}

/// A plan-time relation handle.
#[derive(Clone)]
struct Rel {
    dataset: String,
    scan: ScanKind,
    schema: Vec<Var>,
    est_bytes: usize,
    scan_preds: Vec<PredOnCol>,
    optional: bool,
}

impl Rel {
    fn col(&self, v: &Var) -> Option<usize> {
        self.schema.iter().position(|x| x == v)
    }
}

struct RelPlanner<'a> {
    cat: &'a DataCatalog,
    rules: &'a PlanRules,
    prefix: String,
    jobs: Vec<Job>,
    cycle: usize,
}

impl<'a> RelPlanner<'a> {
    fn new(cat: &'a DataCatalog, rules: &'a PlanRules, prefix: String) -> Self {
        RelPlanner {
            cat,
            rules,
            prefix,
            jobs: Vec::new(),
            cycle: 0,
        }
    }

    /// A VP-scan relation for one triple pattern, with FILTER pushdown.
    fn tp_rel(
        &self,
        tp: &TriplePattern,
        filters: &FxHashMap<(usize, PropKey), Vec<PredOnCol>>,
        star: usize,
        rename_subject: Option<&Var>,
        rename_object: Option<&Var>,
    ) -> Result<Rel, PlanError> {
        let key = PropKey::of(tp)
            .ok_or_else(|| PlanError::Unsupported("unbound property".into()))?;
        let svar = rename_subject
            .cloned()
            .or_else(|| tp.s.as_var().cloned())
            .ok_or_else(|| PlanError::Unsupported("constant subject".into()))?;
        let vpk = self.cat.vp_key(&key);
        let dataset = format!("{vpk}");
        let est_bytes = self.cat.vp.table(vpk).map(|t| t.bytes).unwrap_or(0);
        let (scan, schema) = if key.is_type_key() {
            (ScanKind::VpSubjectOnly, vec![svar])
        } else {
            match &tp.o {
                PatternTerm::Term(t) => (
                    ScanKind::VpConstObject(self.cat.id_of(t)),
                    vec![svar],
                ),
                PatternTerm::Var(ov) => {
                    let ov = rename_object.cloned().unwrap_or_else(|| ov.clone());
                    if ov == svar {
                        return Err(PlanError::Unsupported(
                            "subject = object self-loop patterns".into(),
                        ));
                    }
                    (ScanKind::VpFull, vec![svar, ov])
                }
            }
        };
        let scan_preds = filters
            .get(&(star, key.clone()))
            .cloned()
            .unwrap_or_default();
        Ok(Rel {
            dataset,
            scan,
            schema,
            est_bytes,
            scan_preds,
            optional: false,
        })
    }

    /// ExtVP partner candidates for the pattern `key` of star `star`:
    /// required same-star siblings yield SS partners (shared subject
    /// variable); the star-join edges of `dec` yield SO partners (this
    /// star's subject is the other side's object) and OS partners (this
    /// pattern's object is the other star's subject). `required` says
    /// whether a `(star, key)` pattern is an inner input of its join —
    /// only required patterns may *reduce* others (a semi-join against an
    /// optional partner could drop rows a left-outer join must keep).
    fn extvp_partners(
        &self,
        dec: &StarDecomposition,
        star: usize,
        key: &PropKey,
        required: &dyn Fn(usize, &PropKey) -> bool,
    ) -> Vec<(ExtVpKind, VpKey)> {
        let mut partners = Vec::new();
        for tp in &dec.stars[star].triples {
            let Some(k2) = PropKey::of(tp) else { continue };
            if k2 != *key && required(star, &k2) {
                partners.push((ExtVpKind::SS, self.cat.vp_key(&k2)));
            }
        }
        for edge in &dec.joins {
            for (me, other) in [(&edge.left, &edge.right), (&edge.right, &edge.left)] {
                if me.star != star {
                    continue;
                }
                match me.role {
                    // The join variable is this star's subject: every
                    // pattern of the star joins through its subject to the
                    // other side's object column.
                    Role::Subject => {
                        if other.role == Role::Object {
                            if let Some(p) = &other.prop {
                                if required(other.star, p) {
                                    partners.push((ExtVpKind::SO, self.cat.vp_key(p)));
                                }
                            }
                        }
                    }
                    // The join variable is this pattern's object (the
                    // edge's own joining pattern only): it must equal the
                    // other star's subject, which in turn must be a subject
                    // of every required pattern over there.
                    Role::Object => {
                        if me.prop.as_ref() == Some(key) && other.role == Role::Subject {
                            for tp in &dec.stars[other.star].triples {
                                let Some(k2) = PropKey::of(tp) else { continue };
                                if required(other.star, &k2) {
                                    partners.push((ExtVpKind::OS, self.cat.vp_key(&k2)));
                                }
                            }
                        }
                    }
                    Role::Property => {}
                }
            }
        }
        partners
    }

    /// Swap `rel`'s scan dataset for the smallest materialized ExtVP
    /// reduction among `partners`, if any survived the load-time
    /// selectivity cutoff. `est_bytes` deliberately keeps the *base*
    /// table's size: the map-join decision models Hive's
    /// `smalltable.filesize` check against metastore statistics of the
    /// base tables, so the fixed engines' plan shapes (and the paper's
    /// pinned cycle counts) are invariant under ExtVP materialization.
    /// The cost enumerator explores the ExtVP × map-join interplay by
    /// sweeping `use_extvp` and measuring.
    fn substitute_extvp(&self, rel: &mut Rel, base: VpKey, partners: &[(ExtVpKind, VpKey)]) {
        if !self.rules.use_extvp {
            return;
        }
        let mut best: Option<&ExtVpMeta> = None;
        for (kind, partner) in partners {
            if let Some(e) = self.cat.vp.reduction(base, *kind, *partner) {
                // Deterministic tie-break by name after size.
                if best.is_none_or(|b| (e.bytes, e.dataset.as_str()) < (b.bytes, b.dataset.as_str()))
                {
                    best = Some(e);
                }
            }
        }
        if let Some(e) = best {
            rel.dataset = e.dataset.clone();
        }
    }

    /// Compile one join cycle (reduce-side or broadcast) over relations all
    /// keyed on `key_var`. Output schema = `needed ∩ union(schemas)`, key
    /// first.
    fn join_cycle(
        &mut self,
        label: &str,
        tag: CardTag,
        rels: Vec<Rel>,
        key_var: &Var,
        needed: &BTreeSet<Var>,
    ) -> Result<Rel, PlanError> {
        assert!(rels.len() >= 2);
        self.cycle += 1;
        let out_name = format!("{}_c{}", self.prefix, self.cycle);

        // Output schema: key var first (if needed), then other needed vars.
        let mut out_schema: Vec<Var> = Vec::new();
        if needed.contains(key_var) {
            out_schema.push(key_var.clone());
        }
        for r in &rels {
            for v in &r.schema {
                if needed.contains(v) && !out_schema.contains(v) {
                    out_schema.push(v.clone());
                }
            }
        }
        // Implicit equality checks: non-key vars shared by several inputs.
        let mut shared: Vec<(Var, Vec<(usize, usize)>)> = Vec::new();
        for (i, r) in rels.iter().enumerate() {
            for (c, v) in r.schema.iter().enumerate() {
                if v == key_var {
                    continue;
                }
                match shared.iter_mut().find(|(sv, _)| sv == v) {
                    Some((_, occ)) => occ.push((i, c)),
                    None => shared.push((v.clone(), vec![(i, c)])),
                }
            }
        }
        let eq_checks: Vec<((usize, usize), (usize, usize))> = shared
            .iter()
            .filter(|(_, occ)| occ.len() > 1)
            .flat_map(|(_, occ)| occ.windows(2).map(|w| (w[0], w[1])).collect::<Vec<_>>())
            .collect();

        // Map-join eligibility: everything but the largest below threshold,
        // and the stream side must not be optional.
        let (stream_idx, _) = rels
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.est_bytes)
            .expect("non-empty");
        let small_total_ok = rels
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != stream_idx)
            .all(|(_, r)| r.est_bytes <= self.rules.map_join_threshold);
        let est_out = rels.iter().map(|r| r.est_bytes).min().unwrap_or(0);

        let job = if small_total_ok && !rels[stream_idx].optional {
            // Broadcast join, map-only cycle. Accumulated row layout:
            // stream schema then each small's schema in order.
            let stream = rels[stream_idx].clone();
            let smalls: Vec<&Rel> = rels
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != stream_idx)
                .map(|(_, r)| r)
                .collect();
            let mut acc_schema: Vec<Var> = stream.schema.clone();
            let stream_key = stream
                .col(key_var)
                .ok_or_else(|| PlanError::Unsupported("key var missing in stream".into()))?;
            let mut small_cfgs = Vec::new();
            for r in &smalls {
                let key_col = r
                    .col(key_var)
                    .ok_or_else(|| PlanError::Unsupported("key var missing in input".into()))?;
                small_cfgs.push(MapJoinSmall {
                    dataset: r.dataset.clone(),
                    scan: r.scan.clone(),
                    key: Some((key_col, stream_key)),
                    optional: r.optional,
                    scan_preds: r.scan_preds.clone(),
                });
                acc_schema.extend(r.schema.iter().cloned());
            }
            // Positions in the accumulated row.
            let pos_of = |v: &Var| acc_schema.iter().position(|x| x == v);
            let output_cols: Vec<usize> = out_schema
                .iter()
                .map(|v| pos_of(v).expect("output var present"))
                .collect();
            // Equality checks between duplicate occurrences (non-key vars).
            let mut acc_eq: Vec<(usize, usize)> = Vec::new();
            let mut seen: FxHashMap<Var, usize> = FxHashMap::default();
            for (i, v) in acc_schema.iter().enumerate() {
                if v == key_var {
                    continue;
                }
                if let Some(&first) = seen.get(v) {
                    acc_eq.push((first, i));
                } else {
                    seen.insert(v.clone(), i);
                }
            }
            let cfg = Arc::new(MapJoinCfg {
                stream: stream.scan.clone(),
                stream_preds: stream.scan_preds.clone(),
                smalls: small_cfgs,
                output_cols,
                eq_checks: acc_eq,
                dict: self.cat.dict.clone(),
            });
            JobBuilder::new(format!("{label} [map-join]"))
                .input(stream.dataset.clone())
                .sig_of(&cfg)
                .mapper(Arc::new(MapJoinFactory::new(cfg)))
                .output(out_name.clone())
                .tag(tag)
                .build()
        } else {
            // Reduce-side join.
            let inputs: Vec<JoinInputCfg> = rels
                .iter()
                .map(|r| {
                    Ok(JoinInputCfg {
                        scan: r.scan.clone(),
                        key_col: r
                            .col(key_var)
                            .ok_or_else(|| {
                                PlanError::Unsupported("key var missing in input".into())
                            })?,
                        scan_preds: r.scan_preds.clone(),
                        optional: r.optional,
                    })
                })
                .collect::<Result<_, PlanError>>()?;
            let output_cols: Vec<(usize, usize)> = out_schema
                .iter()
                .map(|v| {
                    // Prefer a required input as the source.
                    rels.iter()
                        .enumerate()
                        .filter(|(_, r)| !r.optional)
                        .find_map(|(i, r)| r.col(v).map(|c| (i, c)))
                        .or_else(|| {
                            rels.iter()
                                .enumerate()
                                .find_map(|(i, r)| r.col(v).map(|c| (i, c)))
                        })
                        .expect("output var present in some input")
                })
                .collect();
            let cfg = Arc::new(JoinCycleCfg {
                inputs,
                output_cols,
                eq_checks,
                dict: self.cat.dict.clone(),
            });
            let mut b = JobBuilder::new(label.to_string()).sig_of(&cfg);
            for r in &rels {
                b = b.input(r.dataset.clone());
            }
            b.mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || JoinMapTask::new(c.clone())
            })))
            .reducer(Arc::new(KeyLocal(FnReduceFactory({
                let c = cfg.clone();
                move || JoinReduceTask::new(c.clone())
            }))))
            .output(out_name.clone())
            .num_reducers(NUM_REDUCERS)
            .tag(tag)
            .build()
        };
        self.jobs.push(job);
        Ok(Rel {
            dataset: out_name,
            scan: ScanKind::Rows(out_schema.len()),
            schema: out_schema,
            est_bytes: est_out,
            scan_preds: vec![],
            optional: false,
        })
    }

    /// The grouping-aggregation cycle of a block over its final relation.
    fn group_agg_cycle(
        &mut self,
        label: &str,
        rel: &Rel,
        block: &GroupingBlock,
        block_id: u8,
    ) -> Result<String, PlanError> {
        self.cycle += 1;
        let out = format!("{}_agg{}", self.prefix, self.cycle);
        let group_cols = block
            .group_by
            .iter()
            .map(|v| {
                rel.col(v)
                    .ok_or_else(|| PlanError::Unsupported(format!("group var {v} missing")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let aggs: Vec<(AggOp, Option<usize>)> = block
            .aggregates
            .iter()
            .map(|a| {
                Ok((
                    agg_op_of(a.func),
                    match &a.arg {
                        None => None,
                        Some(v) => Some(rel.col(v).ok_or_else(|| {
                            PlanError::Unsupported(format!("agg var {v} missing"))
                        })?),
                    },
                ))
            })
            .collect::<Result<_, PlanError>>()?;
        let cfg = Arc::new(GroupAggCfg {
            block_id,
            scan: rel.scan.clone(),
            scan_preds: rel.scan_preds.clone(),
            group_cols,
            aggs,
            dict: self.cat.dict.clone(),
            map_side_combine: self.rules.map_side_agg,
        });
        let job = JobBuilder::new(label.to_string())
            .input(rel.dataset.clone())
            .sig_of(&cfg)
            .mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || GroupAggMapTask::new(c.clone())
            })))
            .reducer(Arc::new(KeyLocal(FnReduceFactory({
                let c = cfg.clone();
                move || GroupAggReduceTask::new(c.clone())
            }))))
            .output(out.clone())
            .num_reducers(NUM_REDUCERS)
            .tag(CardTag::Agg {
                block: usize::from(block_id),
            })
            .build();
        self.jobs.push(job);
        Ok(out)
    }

    /// Compile filters of a block into per-(star, prop) scan predicates.
    fn compiled_filters(
        &self,
        filters: &[StarFilter],
    ) -> FxHashMap<(usize, PropKey), Vec<PredOnCol>> {
        let mut map: FxHashMap<(usize, PropKey), Vec<PredOnCol>> = FxHashMap::default();
        for f in filters {
            map.entry((f.star, f.prop.clone()))
                .or_default()
                .push(PredOnCol {
                    col: 1, // object column of a VpFull scan
                    pred: id_pred_of(self.cat, &f.pred),
                });
        }
        map
    }

    /// Join the stars of a decomposition along [`left_deep_walk`], starting
    /// from per-star relations; returns the final relation. `unit` indexes
    /// into [`PlanRules::join_orders`].
    fn join_stars(
        &mut self,
        label: &str,
        unit: usize,
        dec: &StarDecomposition,
        mut star_rels: Vec<Rel>,
        needed: &BTreeSet<Var>,
    ) -> Result<Rel, PlanError> {
        let ends: Vec<(usize, usize)> = dec
            .joins
            .iter()
            .map(|j| (j.left.star, j.right.star))
            .collect();
        let steps = left_deep_walk(dec.stars.len(), self.rules.join_order(unit), &ends)?;
        let mut acc: Option<Rel> = None;
        for (k, step) in steps.iter().enumerate() {
            let edge = &dec.joins[step.edge];
            // Needed set for this cycle: global needed + join vars of still
            // pending edges.
            let mut cycle_needed = needed.clone();
            cycle_needed.extend(steps[k + 1..].iter().map(|s| dec.joins[s.edge].var.clone()));
            let rels = match step.attach {
                Attach::First(l, r) => vec![star_rels[l].clone(), star_rels[r].clone()],
                Attach::Star(s) => vec![
                    acc.take().expect("set by the first cycle"),
                    star_rels[s].clone(),
                ],
            };
            acc = Some(self.join_cycle(
                &format!("{label}:join {}", edge.var),
                CardTag::Join { unit, cycle: k },
                rels,
                &edge.var,
                &cycle_needed,
            )?);
        }
        Ok(acc.unwrap_or_else(|| star_rels.remove(0)))
    }

    /// Naive relational plan of one block: star cycles, star-star joins,
    /// grouping-aggregation.
    fn plan_block_naive(&mut self, block: &GroupingBlock, b: u8) -> Result<String, PlanError> {
        let dec = block.decomposition()?;
        let filters =
            self.compiled_filters(&crate::filters::compile_block_filters(block, &dec)?);
        // Needed vars: grouping keys + aggregate args + join vars.
        let mut needed: BTreeSet<Var> = block.group_by.iter().cloned().collect();
        for a in &block.aggregates {
            if let Some(v) = &a.arg {
                needed.insert(v.clone());
            }
        }
        for j in &dec.joins {
            needed.insert(j.var.clone());
        }

        // Per-star relations (a star cycle when the star has ≥ 2 patterns).
        let mut star_rels = Vec::with_capacity(dec.stars.len());
        for (s, star) in dec.stars.iter().enumerate() {
            let rels: Vec<Rel> = star
                .triples
                .iter()
                .map(|tp| {
                    let mut rel = self.tp_rel(tp, &filters, s, None, None)?;
                    // Every pattern of a naive block is an inner input, so
                    // any sibling or join neighbour may reduce it.
                    if let Some(key) = PropKey::of(tp) {
                        let partners = self.extvp_partners(&dec, s, &key, &|_, _| true);
                        self.substitute_extvp(&mut rel, self.cat.vp_key(&key), &partners);
                    }
                    Ok(rel)
                })
                .collect::<Result<_, PlanError>>()?;
            let rel = if rels.len() == 1 {
                rels.into_iter().next().expect("one")
            } else {
                let mut star_needed = needed.clone();
                star_needed.insert(star.subject.clone());
                self.join_cycle(
                    &format!("Hive b{b}:star {}", star.subject),
                    CardTag::Star {
                        unit: usize::from(b),
                        star: s,
                    },
                    rels,
                    &star.subject,
                    &star_needed,
                )?
            };
            star_rels.push(rel);
        }
        let final_rel =
            self.join_stars(&format!("Hive b{b}"), b as usize, &dec, star_rels, &needed)?;
        self.group_agg_cycle(&format!("Hive b{b}:group-agg"), &final_rel, block, b)
    }

    /// MQO plan: composite QOPT materialization, then per-block extraction
    /// (distinct) + aggregation.
    fn plan_mqo(
        &mut self,
        aq: &AnalyticalQuery,
        composite: &CompositePattern,
    ) -> Result<Vec<String>, PlanError> {
        let decs: Vec<StarDecomposition> = aq
            .blocks
            .iter()
            .map(|blk| blk.decomposition())
            .collect::<Result<_, _>>()?;
        let n_blocks = aq.blocks.len();

        // Composite filter predicates (already composite-star indexed).
        let filters = self.compiled_filters(&composite.filters);

        // Composite variable naming: block 0 names for shared structure,
        // prefixed names for other blocks' secondary properties. Also build
        // each block's var → composite var map.
        let mut var_maps: Vec<FxHashMap<Var, Var>> =
            vec![FxHashMap::default(); n_blocks];
        let mut star_rels: Vec<Vec<Rel>> = Vec::with_capacity(composite.stars.len());
        let mut subjects: Vec<Var> = Vec::with_capacity(composite.stars.len());
        // ExtVP reductions in the composite may only come from *primary*
        // (inner) partners: a secondary pattern is left-outer joined, so
        // semi-joining a required input against it could drop rows the
        // outer join must keep.
        let mqo_required =
            |cs: usize, k: &PropKey| composite.stars[cs].primary.contains(k);
        // A secondary property has one QOPT column, named after its *owner*
        // — the first block carrying it — and prefixed unless that is
        // block 0; every carrying block maps onto it.
        let owner_of = |cs: usize, sec: &SecondaryProp| {
            let owner = sec
                .present
                .iter()
                .position(|&p| p)
                .expect("secondary prop has an owner");
            let tp = composite
                .pattern_of(&decs, owner, cs, &sec.prop)
                .expect("owner carries the property");
            (owner, tp)
        };
        let qopt_var = |owner: usize, v: &Var| match owner {
            0 => v.clone(),
            _ => Var::new(format!("__b{owner}_{}", v.name())),
        };
        for (cs, cstar) in composite.stars.iter().enumerate() {
            let subject = decs[0].stars[cs].subject.clone();
            subjects.push(subject.clone());
            let mut rels = Vec::new();
            // Primary properties: block 0's patterns verbatim.
            for key in &cstar.primary {
                let tp = decs[0].stars[cs]
                    .triple_for(key)
                    .expect("primary prop in block 0");
                let mut rel = self.tp_rel(tp, &filters, cs, None, None)?;
                let partners = self.extvp_partners(&decs[0], cs, key, &mqo_required);
                self.substitute_extvp(&mut rel, self.cat.vp_key(key), &partners);
                rels.push(rel);
            }
            // Secondary properties: owner block's pattern, subject renamed
            // to the composite subject, object prefixed, marked optional.
            for sec in &cstar.secondary {
                let (owner, tp) = owner_of(cs, sec);
                let renamed_obj = tp.o.as_var().map(|v| qopt_var(owner, v));
                let mut rel =
                    self.tp_rel(tp, &filters, cs, Some(&subject), renamed_obj.as_ref())?;
                rel.optional = true;
                // An optional input may itself be reduced by required
                // partners: its rows only ever attach to subjects that
                // satisfied every primary pattern.
                let partners = self.extvp_partners(&decs[0], cs, &sec.prop, &mqo_required);
                self.substitute_extvp(&mut rel, self.cat.vp_key(&sec.prop), &partners);
                rels.push(rel);
            }
            star_rels.push(rels);
        }

        // Block var maps.
        for (b, dec) in decs.iter().enumerate() {
            for (bs, star) in dec.stars.iter().enumerate() {
                let cs = composite.star_map[b][bs];
                insert_mapping(&mut var_maps[b], &star.subject, &subjects[cs])?;
                for tp in &star.triples {
                    let Some(ov) = tp.o.as_var() else { continue };
                    let key = PropKey::of(tp).expect("bound property");
                    let is_primary = composite.stars[cs].primary.contains(&key);
                    let target = if is_primary {
                        let tp0 = decs[0].stars[cs]
                            .triple_for(&key)
                            .expect("primary prop in block 0");
                        tp0.o
                            .as_var()
                            .cloned()
                            .ok_or_else(|| {
                                PlanError::Unsupported(
                                    "constant/variable object mismatch on shared property"
                                        .into(),
                                )
                            })?
                    } else {
                        let sec = composite.stars[cs]
                            .secondary
                            .iter()
                            .find(|sp| sp.prop == key)
                            .expect("non-primary prop is secondary");
                        let (owner, owner_tp) = owner_of(cs, sec);
                        let owner_var = owner_tp.o.as_var().ok_or_else(|| {
                            PlanError::Unsupported(
                                "constant/variable object mismatch on shared secondary".into(),
                            )
                        })?;
                        qopt_var(owner, owner_var)
                    };
                    insert_mapping(&mut var_maps[b], ov, &target)?;
                }
            }
        }

        // QOPT needs every composite variable (the paper's point: the
        // materialized intermediate blocks early projection).
        let mut qopt_needed: BTreeSet<Var> = BTreeSet::new();
        for rels in &star_rels {
            for r in rels {
                qopt_needed.extend(r.schema.iter().cloned());
            }
        }

        // Composite star cycles (left-outer joins for secondary inputs).
        let mut star_out = Vec::with_capacity(star_rels.len());
        for (cs, rels) in star_rels.into_iter().enumerate() {
            let rel = if rels.len() == 1 {
                rels.into_iter().next().expect("one")
            } else {
                self.join_cycle(
                    &format!("HiveMQO:composite-star {}", subjects[cs]),
                    CardTag::Star { unit: 0, star: cs },
                    rels,
                    &subjects[cs].clone(),
                    &qopt_needed,
                )?
            };
            star_out.push(rel);
        }
        // Composite star-star joins (block 0's join structure).
        let qopt = self.join_stars("HiveMQO:composite", 0, &decs[0], star_out, &qopt_needed)?;

        // When the composite has no secondary properties the blocks are
        // structurally identical: every QOPT row is an exact solution of
        // every block, so the extraction step is unnecessary and each block
        // aggregates straight over QOPT (paper §5.2: MG6 takes 8 MQO cycles).
        let no_secondary = composite.stars.iter().all(|st| st.secondary.is_empty());
        if no_secondary {
            let mut block_datasets = Vec::with_capacity(n_blocks);
            for (b, block) in aq.blocks.iter().enumerate() {
                let mapped_block = remap_block_vars(block, &var_maps[b]);
                let out = self.group_agg_cycle(
                    &format!("HiveMQO:group-agg b{b}"),
                    &qopt,
                    &mapped_block,
                    b as u8,
                )?;
                block_datasets.push(out);
            }
            return Ok(block_datasets);
        }

        // Per block: extraction (distinct over the block's mapped vars,
        // requiring its secondary columns non-null) + aggregation.
        let mut block_datasets = Vec::with_capacity(n_blocks);
        for (b, block) in aq.blocks.iter().enumerate() {
            // The block's own variables, mapped to composite names.
            let mut block_vars: Vec<Var> = Vec::new();
            for tp in &block.triples {
                for v in tp.vars() {
                    let mapped = var_maps[b]
                        .get(v)
                        .ok_or_else(|| {
                            PlanError::Unsupported(format!("unmapped block variable {v}"))
                        })?
                        .clone();
                    if !block_vars.contains(&mapped) {
                        block_vars.push(mapped);
                    }
                }
            }
            let project_cols: Vec<usize> = block_vars
                .iter()
                .map(|v| {
                    qopt.col(v).ok_or_else(|| {
                        PlanError::Unsupported(format!("composite var {v} missing in QOPT"))
                    })
                })
                .collect::<Result<_, _>>()?;
            // Presence validation: the block's secondary-property object
            // columns must be non-null.
            let mut required_cols: Vec<usize> = Vec::new();
            for (cs, cstar) in composite.stars.iter().enumerate() {
                for sec in &cstar.secondary {
                    if !sec.present[b] {
                        continue;
                    }
                    let tp = composite
                        .pattern_of(&decs, b, cs, &sec.prop)
                        .expect("secondary prop present in this block");
                    if let Some(ov) = tp.o.as_var() {
                        let mapped = var_maps[b][ov].clone();
                        required_cols.push(qopt.col(&mapped).expect("in QOPT"));
                    }
                }
            }
            self.cycle += 1;
            let extract_out = format!("{}_x{}", self.prefix, self.cycle);
            let dcfg = Arc::new(DistinctCfg {
                project_cols,
                required_cols,
            });
            let job = JobBuilder::new(format!("HiveMQO:extract b{b}"))
                .input(qopt.dataset.clone())
                .sig_of(&dcfg)
                .mapper(Arc::new(FnMapFactory({
                    let c = dcfg.clone();
                    move || DistinctMapTask::new(c.clone())
                })))
                .reducer(Arc::new(KeyLocal(FnReduceFactory(|| DistinctReduceTask))))
                .output(extract_out.clone())
                .num_reducers(NUM_REDUCERS)
                .tag(CardTag::Extract { block: b })
                .build();
            self.jobs.push(job);

            // Aggregate over the extracted rows; the block's group/agg vars
            // live under their composite names.
            let extracted = Rel {
                dataset: extract_out,
                scan: ScanKind::Rows(block_vars.len()),
                schema: block_vars,
                est_bytes: qopt.est_bytes,
                scan_preds: vec![],
                optional: false,
            };
            let mapped_block = remap_block_vars(block, &var_maps[b]);
            let out = self.group_agg_cycle(
                &format!("HiveMQO:group-agg b{b}"),
                &extracted,
                &mapped_block,
                b as u8,
            )?;
            block_datasets.push(out);
        }
        Ok(block_datasets)
    }
}

fn insert_mapping(
    map: &mut FxHashMap<Var, Var>,
    from: &Var,
    to: &Var,
) -> Result<(), PlanError> {
    match map.get(from) {
        Some(existing) if existing != to => Err(PlanError::Unsupported(format!(
            "block variable {from} maps to both {existing} and {to}"
        ))),
        _ => {
            map.insert(from.clone(), to.clone());
            Ok(())
        }
    }
}

/// Rewrite a block's grouping/aggregation variables through the composite
/// var map (pattern is irrelevant for the aggregation cycle).
fn remap_block_vars(block: &GroupingBlock, map: &FxHashMap<Var, Var>) -> GroupingBlock {
    let remap = |v: &Var| map.get(v).cloned().unwrap_or_else(|| v.clone());
    GroupingBlock {
        triples: block.triples.clone(),
        filters: vec![],
        group_by: block.group_by.iter().map(&remap).collect(),
        aggregates: block
            .aggregates
            .iter()
            .map(|a| crate::aquery::AggItem {
                func: a.func,
                arg: a.arg.as_ref().map(&remap),
                alias: a.alias.clone(),
            })
            .collect(),
    }
}

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
        for i in 0..20 {
            let p = iri(&format!("p{i}"));
            g.insert_terms(&p, &rapida_rdf::Term::iri(rapida_rdf::vocab::RDF_TYPE), &iri("T1"));
            g.insert_terms(&p, &iri("label"), &rapida_rdf::Term::literal(format!("l{i}")));
            let o = iri(&format!("o{i}"));
            g.insert_terms(&o, &iri("pr"), &p);
            g.insert_terms(&o, &iri("pc"), &rapida_rdf::Term::decimal(i as f64));
        }
        DataCatalog::load(&g)
    }

    #[test]
    fn naive_plan_structure_matches_paper() {
        let cat = catalog();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?c) AS ?n)
             { ?p a ex:T1 ; ex:label ?l . ?o ex:pr ?p ; ex:pc ?c . }",
        )
        .unwrap();
        let aq = extract(&q).unwrap();
        let plan = PlanRules::hive_naive().plan(&aq, &cat).unwrap();
        // Paper §5.2: star1, star2, star-star join, group-agg = 4 cycles.
        assert_eq!(plan.cycles(), 4);
        let names: Vec<&str> = plan.jobs.iter().map(|j| j.name.as_str()).collect();
        assert!(names[0].contains("star"));
        assert!(names[2].contains("join"));
        assert!(names[3].contains("group-agg"));
    }

    #[test]
    fn tp_rel_kinds() {
        let cat = catalog();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?l) AS ?n)
             { ?p a ex:T1 ; ex:label ?l ; ex:label \"l3\" . }",
        )
        .unwrap();
        let aq = extract(&q).unwrap();
        let block = &aq.blocks[0];
        let rules = PlanRules::hive_naive();
        let planner = RelPlanner::new(&cat, &rules, "t".into());
        let empty = FxHashMap::default();
        // Type pattern → subject-only scan over the type partition.
        let r0 = planner.tp_rel(&block.triples[0], &empty, 0, None, None).unwrap();
        assert_eq!(r0.scan, ScanKind::VpSubjectOnly);
        assert_eq!(r0.schema.len(), 1);
        // Variable object → full scan.
        let r1 = planner.tp_rel(&block.triples[1], &empty, 0, None, None).unwrap();
        assert_eq!(r1.scan, ScanKind::VpFull);
        assert_eq!(r1.schema.len(), 2);
        // Constant non-type object → filtered subject-only scan.
        let r2 = planner.tp_rel(&block.triples[2], &empty, 0, None, None).unwrap();
        assert!(matches!(r2.scan, ScanKind::VpConstObject(_)));
    }

    #[test]
    fn mqo_single_block_delegates_to_naive() {
        let cat = catalog();
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT (COUNT(?c) AS ?n) { ?o ex:pc ?c . }",
        )
        .unwrap();
        let aq = extract(&q).unwrap();
        let plan = PlanRules::hive_mqo().plan(&aq, &cat).unwrap();
        assert_eq!(plan.engine, "Hive (MQO)");
        // Single 1-tp star block: just the aggregation cycle.
        assert_eq!(plan.cycles(), 1);
    }
}
