//! Operator specifications: star-pattern requirements, α-conditions
//! (Table 2), variable references, aggregation specs and partial aggregates.
//!
//! Everything here is dictionary-id based (`u64`) so the specs can be shipped
//! into MR tasks as plain data; numeric values and lexical forms are read
//! from the loaded, read-only [`Dictionary`].

use crate::triplegroup::{AnnTg, Stars, TripleGroup};
use rapida_mapred::codec::{read_f64, read_varint, write_f64, write_varint};
use rapida_rdf::{Dictionary, TermId};
use rapida_sparql::ast::CmpOp;
use std::sync::Arc;

/// One property requirement of a star pattern. For the `ty PT18`
/// pseudo-property, `object` constrains the object value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropReq {
    /// Property id.
    pub prop: u64,
    /// Required object id (type constraints); `None` accepts any object.
    pub object: Option<u64>,
}

impl PropReq {
    /// Requirement on a plain property.
    pub fn any(prop: u64) -> Self {
        PropReq { prop, object: None }
    }

    /// Requirement on a property with a fixed object (e.g. `rdf:type PT18`).
    pub fn with_object(prop: u64, object: u64) -> Self {
        PropReq {
            prop,
            object: Some(object),
        }
    }

    /// Does the triplegroup satisfy this requirement?
    pub fn matches(&self, tg: &TripleGroup) -> bool {
        match self.object {
            Some(o) => tg.has_triple(self.prop, o),
            None => tg.has_prop(self.prop),
        }
    }

    /// Does the pair `(p, o)` satisfy this requirement?
    pub fn admits(&self, p: u64, o: u64) -> bool {
        self.prop == p && self.object.is_none_or(|ro| ro == o)
    }
}

/// A composite star pattern spec: primary (required) and secondary
/// (optional) properties, as consumed by the optional group filter
/// (σ^γopt, Def 3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarSpec {
    /// The star index within the (composite) graph pattern.
    pub star: u8,
    /// Primary properties (`P_prim`) — every one must match.
    pub primary: Vec<PropReq>,
    /// Secondary properties (`P_sec` / `P_opt`) — may match.
    pub secondary: Vec<PropReq>,
}

impl StarSpec {
    /// All property ids this spec projects (primary ∪ secondary).
    pub fn all_props(&self) -> Vec<u64> {
        self.primary
            .iter()
            .chain(self.secondary.iter())
            .map(|r| r.prop)
            .collect()
    }

    /// Primary property ids only (the equivalence-class cover used to select
    /// storage partitions).
    pub fn primary_props(&self) -> Vec<u64> {
        self.primary.iter().map(|r| r.prop).collect()
    }
}

/// How an annotated triplegroup is keyed for a join (the map-phase tag of
/// `TG_AlphaJoin`, Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKey {
    /// Key on the subject of star `star`.
    Subject {
        /// Star index.
        star: u8,
    },
    /// Key on the object(s) of `prop` in star `star` (multi-valued objects
    /// emit one copy per object).
    ObjectOf {
        /// Star index.
        star: u8,
        /// Property whose objects are the key.
        prop: u64,
    },
}

impl JoinKey {
    /// Extract key values from an annotated triplegroup.
    pub fn extract(&self, tg: &AnnTg) -> Vec<u64> {
        match self {
            JoinKey::Subject { star } => {
                tg.star(*star).map(|g| vec![g.subject]).unwrap_or_default()
            }
            JoinKey::ObjectOf { star, prop } => tg
                .star(*star)
                .map(|g| g.objects_of(*prop).collect())
                .unwrap_or_default(),
        }
    }

    /// [`JoinKey::extract`] over a record's star directory, streaming key
    /// values into `sink` instead of allocating a `Vec`.
    pub fn extract_ref(&self, tg: &Stars<'_, '_>, mut sink: impl FnMut(u64)) {
        match self {
            JoinKey::Subject { star } => {
                if let Some(g) = tg.get(*star) {
                    sink(g.subject());
                }
            }
            JoinKey::ObjectOf { star, prop } => {
                if let Some(g) = tg.get(*star) {
                    g.objects_of(*prop).for_each(sink);
                }
            }
        }
    }
}

/// One term of an α-condition: secondary property `prop` of star `star`
/// must (`required = true`) or must not (`required = false`) be present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlphaTerm {
    /// Star index the property belongs to.
    pub star: u8,
    /// Secondary property id.
    pub prop: u64,
    /// Presence (`≠ ∅`) vs absence (`= ∅`).
    pub required: bool,
}

/// An α-condition: a conjunction of [`AlphaTerm`]s (one row of Table 2
/// corresponds to one original graph pattern).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AlphaCond {
    /// The conjunct terms.
    pub terms: Vec<AlphaTerm>,
}

impl AlphaCond {
    /// Evaluate against an annotated triplegroup. Terms whose star is not
    /// present in `tg` are vacuously true, which lets the same condition
    /// list validate partial joins mid-workflow.
    pub fn satisfied_partial(&self, tg: &AnnTg) -> bool {
        self.terms.iter().all(|t| match tg.star(t.star) {
            None => true,
            Some(g) => g.has_prop(t.prop) == t.required,
        })
    }

    /// Evaluate against a *complete* annotated triplegroup: every term's
    /// star must be present.
    pub fn satisfied_full(&self, tg: &AnnTg) -> bool {
        self.terms.iter().all(|t| match tg.star(t.star) {
            None => false,
            Some(g) => g.has_prop(t.prop) == t.required,
        })
    }

    /// [`AlphaCond::satisfied_partial`] over the *logical merge* of two
    /// records with disjoint star sets, each behind its star directory —
    /// evaluates the join product without materializing it.
    pub fn satisfied_partial_merged(&self, l: &Stars<'_, '_>, r: &Stars<'_, '_>) -> bool {
        self.terms
            .iter()
            .all(|t| match l.get(t.star).or_else(|| r.get(t.star)) {
                None => true,
                Some(g) => g.has_prop(t.prop) == t.required,
            })
    }
}

/// Does any condition in the list accept `tg` (partial semantics)?
pub fn any_alpha_partial(conds: &[AlphaCond], tg: &AnnTg) -> bool {
    conds.is_empty() || conds.iter().any(|c| c.satisfied_partial(tg))
}

/// [`any_alpha_partial`] over the logical merge of two records (disjoint star
/// sets) — the α-join validity check without materializing the product.
pub fn any_alpha_partial_merged(conds: &[AlphaCond], l: &Stars<'_, '_>, r: &Stars<'_, '_>) -> bool {
    conds.is_empty() || conds.iter().any(|c| c.satisfied_partial_merged(l, r))
}

/// A variable reference resolved against a (composite) star layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarRef {
    /// The subject of star `star`.
    Subject {
        /// Star index.
        star: u8,
    },
    /// The object(s) of `prop` in star `star`.
    ObjectOf {
        /// Star index.
        star: u8,
        /// Property id.
        prop: u64,
    },
}

impl VarRef {
    /// Values of this reference within an annotated triplegroup.
    pub fn values(&self, tg: &AnnTg) -> Vec<u64> {
        match self {
            VarRef::Subject { star } => {
                tg.star(*star).map(|g| vec![g.subject]).unwrap_or_default()
            }
            VarRef::ObjectOf { star, prop } => tg
                .star(*star)
                .map(|g| g.objects_of(*prop).collect())
                .unwrap_or_default(),
        }
    }
}

/// Aggregate functions supported by the Agg-Join operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggOp {
    /// Row/binding count.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric average.
    Avg,
    /// Numeric minimum.
    Min,
    /// Numeric maximum.
    Max,
}

/// A partial (distributive/algebraic) aggregate state — mergeable across
/// mappers and reducers, finalizable into any [`AggOp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartialAgg {
    /// Number of contributing bindings.
    pub count: u64,
    /// Number of *numeric* contributing bindings (AVG denominator).
    pub num_count: u64,
    /// Numeric sum.
    pub sum: f64,
    /// Numeric minimum.
    pub min: f64,
    /// Numeric maximum.
    pub max: f64,
}

impl Default for PartialAgg {
    fn default() -> Self {
        PartialAgg {
            count: 0,
            num_count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl PartialAgg {
    /// Fold one binding: every binding counts; numeric bindings contribute
    /// to sum/min/max.
    pub fn add(&mut self, numeric: Option<f64>) {
        self.count += 1;
        if let Some(v) = numeric {
            self.num_count += 1;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Merge another partial state (associative + commutative).
    pub fn merge(&mut self, other: &PartialAgg) {
        self.count += other.count;
        self.num_count += other.num_count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finalize for a given aggregate op. `None` for numeric ops with no
    /// numeric inputs (SPARQL: unbound).
    pub fn finalize(&self, op: AggOp) -> Option<f64> {
        match op {
            AggOp::Count => Some(self.count as f64),
            AggOp::Sum if self.num_count > 0 => Some(self.sum),
            AggOp::Avg if self.num_count > 0 => Some(self.sum / self.num_count as f64),
            AggOp::Min if self.num_count > 0 => Some(self.min),
            AggOp::Max if self.num_count > 0 => Some(self.max),
            _ => None,
        }
    }

    /// Encode into a shuffle value.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.count);
        write_varint(out, self.num_count);
        write_f64(out, self.sum);
        write_f64(out, self.min);
        write_f64(out, self.max);
    }

    /// Decode, advancing the slice.
    pub fn decode(buf: &mut &[u8]) -> Option<PartialAgg> {
        Some(PartialAgg {
            count: read_varint(buf)?,
            num_count: read_varint(buf)?,
            sum: read_f64(buf)?,
            min: read_f64(buf)?,
            max: read_f64(buf)?,
        })
    }

    /// Merge one shuffled value — `into.len()` encoded partials and nothing
    /// after them — into `into`. The partials decode into `scratch` first,
    /// so a damaged value (truncated, or with trailing bytes) returns
    /// `false` and leaves `into` untouched rather than half-merged.
    pub fn merge_encoded(
        into: &mut [PartialAgg],
        scratch: &mut Vec<PartialAgg>,
        mut value: &[u8],
    ) -> bool {
        scratch.clear();
        scratch.extend(into.iter().map_while(|_| PartialAgg::decode(&mut value)));
        let whole = scratch.len() == into.len() && value.is_empty();
        if whole {
            into.iter_mut().zip(scratch.iter()).for_each(|(m, p)| m.merge(p));
        }
        whole
    }
}

/// Append the `nk, key id * nk` tail of an aggregate shuffle key.
pub fn write_group_key(out: &mut Vec<u8>, key: &[u64]) {
    write_varint(out, key.len() as u64);
    key.iter().for_each(|k| write_varint(out, *k));
}

/// Read what [`write_group_key`] wrote into `out` (cleared here). Ids are
/// pushed as they are read, so a hostile `nk` costs no more than the bytes
/// present. `None` = the key stops short.
pub fn read_group_key(buf: &mut &[u8], out: &mut Vec<u64>) -> Option<()> {
    out.clear();
    for _ in 0..read_varint(buf)? {
        out.push(read_varint(buf)?);
    }
    Some(())
}

/// One aggregation in an Agg-Join: `(func, arg)` over a grouping `theta`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate function.
    pub op: AggOp,
    /// Index of the aggregated variable in [`AggJoinSpec::slots`];
    /// `None` = `COUNT(*)` (count assignments).
    pub arg: Option<usize>,
}

impl AggSpec {
    /// What one assignment (one value per slot) contributes to this
    /// aggregate: the numeric value of its argument slot; `None` for
    /// `COUNT(*)` and for non-numeric terms (the binding still counts).
    pub fn value(&self, assignment: &[u64], dict: &Dictionary) -> Option<f64> {
        dict.numeric_value(TermId(assignment[self.arg?]))
    }
}

/// A full Agg-Join specification (one per original grouping block):
/// `γ^AgJ(TG_base, TG_detail, l, θ, α)` with θ the grouping-variable
/// references and α the validity condition.
///
/// `slots` lists **every distinct variable of the original block pattern**.
/// Aggregation enumerates the cartesian assignment space over all slots —
/// exactly the relational solution-row expansion — so multi-valued
/// properties duplicate contributions precisely as SPARQL semantics
/// require, even for variables no aggregate references.
#[derive(Debug, Clone, PartialEq)]
pub struct AggJoinSpec {
    /// Stable id (`agj.id` in Algorithm 3); also tags output records.
    pub id: u8,
    /// The enumeration domain: one reference per distinct pattern variable.
    pub slots: Vec<VarRef>,
    /// θ — indexes into `slots` forming the grouping key (empty = ALL).
    pub group_slots: Vec<usize>,
    /// l — the aggregation list.
    pub aggs: Vec<AggSpec>,
    /// α — validity terms for this original pattern.
    pub alpha: AlphaCond,
}

/// An id-level value predicate (a FILTER comparison compiled against the
/// catalog), evaluated by the NTGA group filter and the relational scans.
#[derive(Debug, Clone, PartialEq)]
pub enum IdPred {
    /// Numeric comparison on the term's cached numeric value.
    Num {
        /// Operator.
        op: CmpOp,
        /// Constant.
        rhs: f64,
    },
    /// Identity comparison against a term id.
    IdEq {
        /// `=` vs `!=`.
        eq: bool,
        /// Constant id (the catalog's missing-term id matches nothing).
        rhs: u64,
    },
    /// Substring containment on the lexical form.
    Contains {
        /// Pattern.
        pattern: String,
        /// Case-insensitive flag.
        case_insensitive: bool,
    },
}

impl IdPred {
    /// Evaluate against a term id. An id `dict` did not issue matches
    /// nothing.
    pub fn eval(&self, id: u64, dict: &Dictionary) -> bool {
        match self {
            IdPred::Num { op, rhs } => {
                let Some(v) = dict.numeric_value(TermId(id)) else {
                    return false;
                };
                match op {
                    CmpOp::Eq => v == *rhs,
                    CmpOp::Ne => v != *rhs,
                    CmpOp::Lt => v < *rhs,
                    CmpOp::Le => v <= *rhs,
                    CmpOp::Gt => v > *rhs,
                    CmpOp::Ge => v >= *rhs,
                }
            }
            IdPred::IdEq { eq, rhs } => (id == *rhs) == *eq,
            IdPred::Contains {
                pattern,
                case_insensitive,
            } => match dict.lexical(TermId(id)) {
                None => false,
                Some(lex) => {
                    if *case_insensitive {
                        lex.to_lowercase().contains(&pattern.to_lowercase())
                    } else {
                        lex.contains(pattern.as_str())
                    }
                }
            },
        }
    }
}

/// What a raw star's group filter admits besides its [`StarSpec`]: the
/// star's pushed-down FILTER predicates and its ExtVP subject gate (the
/// subject set of an `SO` reduction, S2RDF's semi-join). The default
/// admits everything.
#[derive(Debug, Clone, Default)]
pub struct ValueFilter {
    /// `(property, predicate)`: a pair of `property` whose object fails one
    /// of its predicates counts as absent — not kept, and matching no
    /// requirement.
    pub preds: Vec<(u64, IdPred)>,
    /// The subjects a group may have, ascending and distinct; `None` = any.
    /// Several gates on one star are intersected at plan time.
    pub subjects: Option<Arc<Vec<u64>>>,
    /// The catalog's dictionary, which the predicates read.
    pub dict: Arc<Dictionary>,
}

impl ValueFilter {
    /// Does the pair `(p, o)` pass every predicate on `p`?
    pub fn admits(&self, p: u64, o: u64) -> bool {
        self.preds
            .iter()
            .filter(|(fp, _)| *fp == p)
            .all(|(_, pred)| pred.eval(o, &self.dict))
    }

    /// Does the gate let a group with this subject through?
    pub fn admits_subject(&self, subject: u64) -> bool {
        self.subjects
            .as_ref()
            .is_none_or(|s| s.binary_search(&subject).is_ok())
    }
}

/// An aggregated output record: `(spec id, group key values, finalized
/// aggregate values)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRec {
    /// The Agg-Join spec id that produced this record.
    pub id: u8,
    /// Grouping key values (term ids), in spec order.
    pub key: Vec<u64>,
    /// Finalized aggregate values, in spec order (`None` = unbound).
    pub values: Vec<Option<f64>>,
}

impl AggRec {
    /// Encode as a DFS record.
    pub fn encode(&self, out: &mut Vec<u8>) {
        Self::encode_parts(self.id, &self.key, self.values.iter().copied(), out);
    }

    /// [`Self::encode`] from borrowed parts, for reducers that finalize
    /// straight into their output buffer.
    pub fn encode_parts(
        id: u8,
        key: &[u64],
        values: impl ExactSizeIterator<Item = Option<f64>>,
        out: &mut Vec<u8>,
    ) {
        write_varint(out, u64::from(id));
        write_varint(out, key.len() as u64);
        for k in key {
            write_varint(out, *k);
        }
        write_varint(out, values.len() as u64);
        for v in values {
            match v {
                Some(x) => {
                    out.push(1);
                    write_f64(out, x);
                }
                None => out.push(0),
            }
        }
    }

    /// Decode from [`AggRec::encode`] output into an owned record, through
    /// [`Self::decode_into`].
    pub fn decode(rec: &[u8]) -> Option<AggRec> {
        let mut parts = Vec::new();
        let (id, keys) = Self::decode_into(rec, &mut parts, Ok, Err)?;
        let (key, values) = parts.split_at(keys);
        Some(AggRec {
            id,
            key: key.iter().filter_map(|p| p.ok()).collect(),
            values: values.iter().filter_map(|p| p.err()).collect(),
        })
    }

    /// The one decoder of [`AggRec::encode`] output: appends the record's
    /// grouping keys, then its values, to `out` through `key` and `value`,
    /// and returns the block id and the key count. `None` when the record
    /// is damaged — it ends early, has an id that does not fit a `u8` (not
    /// a block id to truncate), a value flag other than 0 (unbound) or 1,
    /// or bytes after its last value — and `out` may then hold part of it.
    pub fn decode_into<T>(
        mut rec: &[u8],
        out: &mut Vec<T>,
        key: impl Fn(u64) -> T,
        value: impl Fn(Option<f64>) -> T,
    ) -> Option<(u8, usize)> {
        let id = u8::try_from(read_varint(&mut rec)?).ok()?;
        let keys = read_varint(&mut rec)?;
        for _ in 0..keys {
            out.push(key(read_varint(&mut rec)?));
        }
        for _ in 0..read_varint(&mut rec)? {
            let (flag, rest) = rec.split_first()?;
            rec = rest;
            out.push(value(match flag {
                0 => None,
                1 => Some(read_f64(&mut rec)?),
                _ => return None,
            }));
        }
        rec.is_empty().then_some((id, keys as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tg(s: u64, pairs: &[(u64, u64)]) -> TripleGroup {
        TripleGroup::new(s, pairs.to_vec())
    }

    #[test]
    fn prop_req_matching() {
        let g = tg(1, &[(10, 100), (11, 5)]);
        assert!(PropReq::any(10).matches(&g));
        assert!(PropReq::with_object(10, 100).matches(&g));
        assert!(!PropReq::with_object(10, 101).matches(&g));
        assert!(!PropReq::any(99).matches(&g));
    }

    #[test]
    fn join_key_extraction() {
        let a = AnnTg::single(0, tg(7, &[(10, 100), (10, 101)]));
        assert_eq!(JoinKey::Subject { star: 0 }.extract(&a), vec![7]);
        assert_eq!(
            JoinKey::ObjectOf { star: 0, prop: 10 }.extract(&a),
            vec![100, 101]
        );
        assert!(JoinKey::Subject { star: 1 }.extract(&a).is_empty());
    }

    #[test]
    fn alpha_partial_vs_full() {
        let cond = AlphaCond {
            terms: vec![
                AlphaTerm {
                    star: 0,
                    prop: 10,
                    required: true,
                },
                AlphaTerm {
                    star: 1,
                    prop: 20,
                    required: false,
                },
            ],
        };
        let only_star0 = AnnTg::single(0, tg(1, &[(10, 5)]));
        assert!(cond.satisfied_partial(&only_star0));
        assert!(!cond.satisfied_full(&only_star0));

        let full_good = only_star0.merge(&AnnTg::single(1, tg(2, &[(21, 9)])));
        assert!(cond.satisfied_full(&full_good));

        let full_bad = only_star0.merge(&AnnTg::single(1, tg(2, &[(20, 9)])));
        assert!(!cond.satisfied_partial(&full_bad));
    }

    #[test]
    fn empty_alpha_list_accepts_all() {
        let a = AnnTg::single(0, tg(1, &[]));
        assert!(any_alpha_partial(&[], &a));
    }

    #[test]
    fn partial_agg_merge_and_finalize() {
        let mut a = PartialAgg::default();
        a.add(Some(10.0));
        a.add(Some(30.0));
        let mut b = PartialAgg::default();
        b.add(Some(2.0));
        b.add(None); // non-numeric binding: counts, no sum
        a.merge(&b);
        assert_eq!(a.finalize(AggOp::Count), Some(4.0));
        assert_eq!(a.finalize(AggOp::Sum), Some(42.0));
        assert_eq!(a.finalize(AggOp::Avg), Some(14.0));
        assert_eq!(a.finalize(AggOp::Min), Some(2.0));
        assert_eq!(a.finalize(AggOp::Max), Some(30.0));
    }

    #[test]
    fn empty_partial_finalizes_to_none_for_numeric_ops() {
        let p = PartialAgg::default();
        assert_eq!(p.finalize(AggOp::Count), Some(0.0));
        assert_eq!(p.finalize(AggOp::Sum), None);
        assert_eq!(p.finalize(AggOp::Avg), None);
    }

    #[test]
    fn partial_agg_codec_roundtrip() {
        let mut p = PartialAgg::default();
        p.add(Some(3.5));
        p.add(Some(-1.0));
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(PartialAgg::decode(&mut s), Some(p));
    }

    #[test]
    fn aggrec_codec_roundtrip() {
        let r = AggRec {
            id: 3,
            key: vec![100, 200],
            values: vec![Some(1.5), None, Some(0.0)],
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(AggRec::decode(&buf), Some(r));
    }

    #[test]
    fn aggrec_ids_past_a_byte_are_rejected() {
        // `body` is a record's bytes after its one-byte id 0.
        let mut rec = Vec::new();
        AggRec::encode_parts(0, &[7], [Some(1.0)].into_iter(), &mut rec);
        let body = &rec[1..];
        let stamped = |id: u64| {
            let mut r = Vec::new();
            write_varint(&mut r, id);
            r.extend_from_slice(body);
            AggRec::decode(&r).map(|r| r.id)
        };
        assert_eq!(stamped(0), Some(0));
        assert_eq!(stamped(255), Some(255));
        // Truncated to a byte, 256 would read as block 0.
        assert_eq!(stamped(256), None);
        assert_eq!(stamped(u64::MAX), None);
    }

    #[test]
    fn aggrec_flags_past_one_and_trailing_bytes_are_rejected() {
        let mut rec = Vec::new();
        AggRec::encode_parts(0, &[7], [Some(2.0), None].into_iter(), &mut rec);
        // id, key count, key, value count, then the first value's flag.
        let flag = 4;
        assert_eq!(rec[flag], 1);
        let mut parts = Vec::new();
        let decoded = AggRec::decode_into(&rec, &mut parts, Ok, Err);
        assert_eq!(decoded, Some((0, 1)));
        assert_eq!(parts, vec![Ok(7), Err(Some(2.0)), Err(None)]);
        for bad in [0, 9] {
            let mut flipped = rec.clone();
            flipped[flag] = bad;
            assert_eq!(AggRec::decode(&flipped), None, "flag {bad}");
        }
        let mut unbound = rec.clone();
        unbound[rec.len() - 1] = 2;
        assert_eq!(AggRec::decode(&unbound), None, "flag 2");
        let mut longer = rec.clone();
        longer.extend_from_slice(&[0, 0, 0]);
        assert_eq!(AggRec::decode(&longer), None, "trailing bytes");
        assert_eq!(AggRec::decode(&rec[..rec.len() - 1]), None, "truncated");
    }
}
