//! The spec oracle of the NTGA operators.
//!
//! The logical operators of Definitions 3.3–3.6 over owned values: the
//! optional group filter [`opt_group_filter`], the n-split [`n_split`], the
//! α-Join [`alpha_join`] and the TG Agg-Join [`agg_join`] with its
//! assignment enumeration [`accumulate`]. The Fig. 4/5 tests
//! (`reference_ops.rs`) and the laws of `prop_ops.rs` pin them to the
//! paper; `prop_ops.rs` holds the one-walk kernels to them.
//!
//! The physical operators as owned-decode reference tasks, written against
//! those: decode each record into an owned [`TripleGroup`] / [`AnnTg`],
//! drop the pairs failing a star's value predicates, gate its subject, apply
//! [`opt_group_filter`], [`AnnTg::merge`] + [`any_alpha_partial`], or
//! α-gated [`accumulate`], and re-encode into fresh buffers.
//! `view_identity.rs` holds the one-walk production operators to these
//! byte for byte; `alloc_budget.rs` takes its owned-path allocation
//! baseline from [`ReferenceTgJoinMap`].
//!
//! They count damaged input as production does: [`ReferenceAlphaJoinReduce`]
//! decodes a key group only once its side bytes show both sides present
//! (production never walks a one-sided group, so a truncated value there
//! goes uncounted). Trailing bytes after an annotated record are outside
//! the contract: the reference re-encodes without them, production copies
//! the span.
//!
//! They read a route table only for what an input holds (and, as production
//! does, quarantine a record of an input the table has no entry for): every
//! star route (every single-star filter) is applied to every raw record, so
//! they are the oracle that the table's pruning changes nothing.

#![allow(dead_code)] // each test binary uses its own part

use rapida_mapred::codec::write_varint;
use rapida_mapred::{InputSrc, MapOutput, MapTask, ReduceOutput, ReduceTask};
use rapida_ntga::{
    any_alpha_partial, write_group_key, AggJoinConfig, AggJoinSpec, AlphaCond, AnnTg, InputRoutes,
    IdPred, JoinKey, PartialAgg, Side, StarSpec, TgJoinMapConfig, TripleGroup, ValueFilter,
};
use rapida_rdf::{Dictionary, Term, TermId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A dictionary of ids `0..n`, interned in id order: `term(i)` where it is
/// `Some`, the literal `"t{i}"` otherwise. Panics if two ids get one term.
pub fn dict_of(n: u64, term: impl Fn(u64) -> Option<Term>) -> Arc<Dictionary> {
    let mut dict = Dictionary::new();
    for i in 0..n {
        let t = term(i).unwrap_or_else(|| Term::literal(format!("t{i}")));
        assert_eq!(dict.intern(&t), TermId(i), "one term per id");
    }
    Arc::new(dict)
}

/// For each predicate of `filter`, in order, how many ids of its
/// dictionary it admits and how many it rejects.
pub fn outcomes(filter: &ValueFilter) -> Vec<(usize, usize)> {
    let ids = 0..filter.dict.len() as u64;
    let outcome = |pred: &IdPred| {
        let admitted = ids.clone().filter(|&id| pred.eval(id, &filter.dict)).count();
        (admitted, ids.clone().count() - admitted)
    };
    filter.preds.iter().map(|(_, pred)| outcome(pred)).collect()
}

/// σ^γopt — the **optional group filter** (Def 3.3).
///
/// Projects a subject triplegroup onto a composite star pattern's
/// `P_prim ∪ P_opt` and keeps it iff every primary property matches. Returns
/// the projected group, or `None` if a primary requirement fails.
pub fn opt_group_filter(tg: &TripleGroup, spec: &StarSpec) -> Option<TripleGroup> {
    for req in &spec.primary {
        if !req.matches(tg) {
            return None;
        }
    }
    let mut triples = Vec::new();
    for &(p, o) in &tg.triples {
        let keep = spec
            .primary
            .iter()
            .chain(spec.secondary.iter())
            .any(|req| req.prop == p && req.object.is_none_or(|ro| ro == o));
        if keep {
            triples.push((p, o));
        }
    }
    Some(TripleGroup::new(tg.subject, triples))
}

/// χ — the **n-split** operator (Def 3.4).
///
/// Extracts up to `n` sub-triplegroups from a composite-pattern match: the
/// `i`-th output combines the primary-property triples with the triples of
/// the `i`-th secondary property set, and exists iff every property of that
/// secondary set is present.
pub fn n_split(
    tg: &TripleGroup,
    primary: &[u64],
    secondary_sets: &[Vec<u64>],
) -> Vec<Option<TripleGroup>> {
    secondary_sets
        .iter()
        .map(|secs| {
            if !secs.iter().all(|p| tg.has_prop(*p)) {
                return None;
            }
            let triples: Vec<(u64, u64)> = tg
                .triples
                .iter()
                .filter(|(p, _)| primary.contains(p) || secs.contains(p))
                .copied()
                .collect();
            Some(TripleGroup::new(tg.subject, triples))
        })
        .collect()
}

/// ⋈^γ_{α1∨…∨αm} — the **α-Join** (Def 3.5), in-memory form.
///
/// Joins two annotated-triplegroup collections on precomputed key values,
/// materializing a combination only when at least one α-condition accepts it
/// (partial semantics: conditions mention only stars present so far).
pub fn alpha_join(
    left: &[(u64, AnnTg)],
    right: &[(u64, AnnTg)],
    conds: &[AlphaCond],
) -> Vec<AnnTg> {
    let mut by_key: HashMap<u64, Vec<&AnnTg>> = HashMap::new();
    for (k, tg) in left {
        by_key.entry(*k).or_default().push(tg);
    }
    let mut out = Vec::new();
    for (k, rtg) in right {
        if let Some(ls) = by_key.get(k) {
            for ltg in ls {
                let joined = ltg.merge(rtg);
                if any_alpha_partial(conds, &joined) {
                    out.push(joined);
                }
            }
        }
    }
    out
}

/// γ^AgJ — the **TG Agg-Join** (Def 3.6), in-memory form.
///
/// For each detail triplegroup satisfying the spec's α-condition, enumerates
/// the joint assignments of all referenced variables (grouping + aggregation
/// arguments; multi-valued properties fan out exactly as the relational
/// row expansion would) and folds each assignment into the group keyed by
/// the grouping values. Returns `(group key, partial states)` pairs, in key
/// order.
///
/// The paper's base-triplegroup formulation (`RNG(btg, TG_detail, θ, α)`)
/// is recovered by reading each output group as one base triplegroup whose
/// RNG contributed the folded detail groups.
pub fn agg_join(
    details: &[AnnTg],
    spec: &AggJoinSpec,
    dict: &Dictionary,
) -> Vec<(Vec<u64>, Vec<PartialAgg>)> {
    let mut groups: BTreeMap<Vec<u64>, Vec<PartialAgg>> = BTreeMap::new();
    for tg in details {
        if !spec.alpha.satisfied_full(tg) {
            continue;
        }
        accumulate(tg, spec, dict, &mut |key, idx, value| {
            let entry = groups
                .entry(key.to_vec())
                .or_insert_with(|| vec![PartialAgg::default(); spec.aggs.len()]);
            entry[idx].add(value);
        });
    }
    groups.into_iter().collect()
}

/// What [`accumulate`] calls per (assignment, aggregation) pair: group
/// key, aggregate index, numeric value.
pub type Fold<'a> = dyn FnMut(&[u64], usize, Option<f64>) + 'a;

/// The assignment enumeration of the Agg-Join: calls `fold(group key,
/// aggregate index, numeric value)` once per (assignment, aggregation)
/// pair, slot 0 outermost and the last slot fastest.
pub fn accumulate(tg: &AnnTg, spec: &AggJoinSpec, dict: &Dictionary, fold: &mut Fold<'_>) {
    // Value lists per slot. A triplegroup that reached the Agg-Join and
    // passed α has every pattern variable bound (primary presence is
    // enforced by the group filter, secondary presence by α); an empty slot
    // therefore means the pattern does not match and the group contributes
    // nothing (relational inner-join semantics).
    let value_lists: Vec<Vec<u64>> = spec.slots.iter().map(|r| r.values(tg)).collect();
    if value_lists.iter().any(|v| v.is_empty()) {
        return;
    }

    // Enumerate the full cartesian assignment space — the relational
    // solution-row expansion of the block pattern.
    let mut assignment: Vec<u64> = vec![0; spec.slots.len()];
    enumerate(&value_lists, 0, &mut assignment, &mut |assignment| {
        let key: Vec<u64> = spec.group_slots.iter().map(|&i| assignment[i]).collect();
        for (i, agg) in spec.aggs.iter().enumerate() {
            fold(&key, i, agg.value(assignment, dict));
        }
    });
}

fn enumerate(
    lists: &[Vec<u64>],
    i: usize,
    assignment: &mut Vec<u64>,
    f: &mut dyn FnMut(&[u64]),
) {
    if i == lists.len() {
        f(assignment);
        return;
    }
    for &v in &lists[i] {
        assignment[i] = v;
        enumerate(lists, i + 1, assignment, f);
    }
}

/// A raw group behind a star's [`ValueFilter`], as the filter's fields say:
/// every pair failing a predicate on its property dropped, then `None` if
/// the subject is outside the gate's set.
pub fn value_filtered(tg: &TripleGroup, filter: &ValueFilter) -> Option<TripleGroup> {
    let mut kept = tg.clone();
    kept.triples.retain(|&(p, o)| {
        filter
            .preds
            .iter()
            .filter(|(fp, _)| *fp == p)
            .all(|(_, pred)| pred.eval(o, &filter.dict))
    });
    match &filter.subjects {
        Some(set) if !set.contains(&kept.subject) => None,
        _ => Some(kept),
    }
}

/// One shuffled tg-join value: `side byte ++ annotated record`.
pub fn tagged(side: Side, ann: &AnnTg) -> Vec<u8> {
    let mut v = vec![side.byte()];
    ann.encode(&mut v);
    v
}

/// σ^γopt of one raw group for one star, behind its value filter.
fn star_of(tg: &TripleGroup, spec: &StarSpec, filter: &ValueFilter) -> Option<AnnTg> {
    let kept = value_filtered(tg, filter)?;
    Some(AnnTg::single(spec.star, opt_group_filter(&kept, spec)?))
}

fn encode_partials(partials: &[PartialAgg]) -> Vec<u8> {
    let mut v = Vec::new();
    partials.iter().for_each(|p| p.encode(&mut v));
    v
}

/// Map phase of a tg-join cycle.
pub struct ReferenceTgJoinMap(pub Arc<TgJoinMapConfig>);

impl MapTask for ReferenceTgJoinMap {
    fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let cfg = &self.0;
        let mut emit = |side: Side, key: &JoinKey, ann: &AnnTg| {
            for k in key.extract(ann) {
                let mut kb = Vec::new();
                write_varint(&mut kb, k);
                out.emit(&kb, &tagged(side, ann));
            }
        };
        match cfg.inputs.get(src.dataset) {
            Some(InputRoutes::Raw(_)) => {
                let Some(tg) = TripleGroup::decode(record) else {
                    return out.skip_corrupt();
                };
                for r in &cfg.star_routes {
                    if let Some(ann) = star_of(&tg, &r.spec, &r.filter) {
                        emit(r.side, &r.key, &ann);
                    }
                }
            }
            Some(InputRoutes::Ann) => {
                let Some(ann) = AnnTg::decode(record) else {
                    return out.skip_corrupt();
                };
                for r in &cfg.ann_routes {
                    emit(r.side, &r.key, &ann);
                }
            }
            None => out.skip_corrupt(),
        }
    }
}

/// Reduce phase of a tg-join cycle: the α-filtered nested-loop join.
pub struct ReferenceAlphaJoinReduce(pub Arc<Vec<AlphaCond>>);

impl ReduceTask for ReferenceAlphaJoinReduce {
    fn reduce(&mut self, _key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let mut routed: Vec<(Side, &[u8])> = Vec::new();
        for v in values {
            let split = v.split_first();
            match split.and_then(|(b, rec)| Some((Side::from_byte(*b)?, rec))) {
                Some(side_rec) => routed.push(side_rec),
                None => out.skip_corrupt(),
            }
        }
        let has = |side| routed.iter().any(|(s, _)| *s == side);
        if !has(Side::Left) || !has(Side::Right) {
            return;
        }
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (side, rec) in routed {
            match (side, AnnTg::decode(rec)) {
                (_, None) => out.skip_corrupt(),
                (Side::Left, Some(ann)) => left.push(ann),
                (Side::Right, Some(ann)) => right.push(ann),
            }
        }
        for l in &left {
            for joined in right.iter().map(|r| l.merge(r)) {
                if any_alpha_partial(&self.0, &joined) {
                    out.write(&joined.encoded());
                }
            }
        }
    }
}

/// Map phase of an Agg-Join cycle; `multiAggMap` is an ordered map from the
/// encoded `id, nk, key ids…` shuffle key to the group's partial states.
pub struct ReferenceAggJoinMap {
    cfg: Arc<AggJoinConfig>,
    multi_agg_map: BTreeMap<Vec<u8>, Vec<PartialAgg>>,
}

impl ReferenceAggJoinMap {
    pub fn new(cfg: Arc<AggJoinConfig>) -> Self {
        ReferenceAggJoinMap { cfg, multi_agg_map: BTreeMap::new() }
    }

    fn fold(&mut self, ann: &AnnTg, out: &mut MapOutput) {
        let cfg = self.cfg.clone();
        for spec in cfg.specs.iter().filter(|s| s.alpha.satisfied_full(ann)) {
            accumulate(ann, spec, &cfg.dict, &mut |key, idx, value| {
                let mut kb = Vec::new();
                write_varint(&mut kb, u64::from(spec.id));
                write_group_key(&mut kb, key);
                let fresh = vec![PartialAgg::default(); spec.aggs.len()];
                if cfg.map_side_combine {
                    self.multi_agg_map.entry(kb).or_insert(fresh)[idx].add(value);
                } else {
                    let mut single = fresh;
                    single[idx].add(value);
                    out.emit(&kb, &encode_partials(&single));
                }
            });
        }
    }
}

impl MapTask for ReferenceAggJoinMap {
    fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let cfg = self.cfg.clone();
        match cfg.inputs.get(src.dataset) {
            Some(InputRoutes::Raw(_)) => {}
            Some(InputRoutes::Ann) => {
                return match AnnTg::decode(record) {
                    Some(ann) => self.fold(&ann, out),
                    None => out.skip_corrupt(),
                }
            }
            None => return out.skip_corrupt(),
        }
        let Some(tg) = TripleGroup::decode(record) else {
            return out.skip_corrupt();
        };
        for (spec, filter) in &cfg.raw_filters {
            if let Some(ann) = star_of(&tg, spec, filter) {
                self.fold(&ann, out);
            }
        }
    }

    fn cleanup(&mut self, out: &mut MapOutput) {
        for (key, partials) in std::mem::take(&mut self.multi_agg_map) {
            out.emit(&key, &encode_partials(&partials));
        }
    }
}
