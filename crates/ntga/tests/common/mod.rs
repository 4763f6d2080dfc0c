//! The NTGA physical operators as owned-decode reference tasks, written
//! against the logical operators of Definitions 3.3–3.6: decode each record
//! into an owned [`TripleGroup`] / [`AnnTg`], apply [`opt_group_filter`],
//! [`AnnTg::merge`] + [`any_alpha_partial`], or α-gated [`accumulate`], and
//! re-encode into fresh buffers. `view_identity.rs` holds the one-walk
//! production operators to these byte for byte; `alloc_budget.rs` takes its
//! owned-path allocation baseline from [`ReferenceTgJoinMap`].
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
    accumulate, any_alpha_partial, opt_group_filter, write_group_key, AggJoinConfig, AlphaCond,
    AnnTg, InputRoutes, JoinKey, PartialAgg, Side, StarSpec, TgJoinMapConfig, TgTransform,
    TripleGroup,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One shuffled tg-join value: `side byte ++ annotated record`.
pub fn tagged(side: Side, ann: &AnnTg) -> Vec<u8> {
    let mut v = vec![side.byte()];
    ann.encode(&mut v);
    v
}

/// σ^γopt of one raw group for one star, behind its optional value filter.
fn star_of(tg: &TripleGroup, spec: &StarSpec, prefilter: &Option<TgTransform>) -> Option<AnnTg> {
    let kept = match prefilter {
        Some(f) => f(tg.clone())?,
        None => tg.clone(),
    };
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
                    if let Some(ann) = star_of(&tg, &r.spec, &r.prefilter) {
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
            accumulate(ann, spec, &cfg.numeric, &mut |key, idx, value| {
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
        for (spec, prefilter) in &cfg.raw_filters {
            if let Some(ann) = star_of(&tg, spec, prefilter) {
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
