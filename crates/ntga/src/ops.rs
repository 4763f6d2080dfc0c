//! Logical NTGA operators — in-memory reference forms of the paper's
//! Definitions 3.3–3.6. The MR physical forms in [`crate::physical`] must
//! agree with these (tested in the workspace integration suite).

use crate::spec::{
    AggJoinSpec, AggOp, AlphaCond, NumericSnapshot, PartialAgg, PropReq, StarSpec, VarRef,
};
use crate::triplegroup::{AnnTg, Stars, TgRef, TripleGroup};
use rapida_mapred::codec::{read_varint, write_varint};
use rapida_rdf::FxHashMap;

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

/// [`opt_group_filter`] over a borrowed view, in **one walk** of the group's
/// pairs: the walk decides the primary mask, appends the projected group's
/// canonical encoding to `out` (the caller clears) by copying each run of
/// kept pairs' *source bytes*, and collects into `keys` (cleared here) the
/// kept objects of `key_prop` — the `JoinKey::ObjectOf` values of the
/// projected group, in stored order.
///
/// `Some(true)`: the group passed. `Some(false)`: a primary requirement
/// failed. `None`: fewer than `tg.len()` pairs decode — the record
/// `TripleGroup::decode` rejects. `out` keeps its length unless the group
/// passed.
///
/// Byte-identical to `opt_group_filter(...).encode(...)`: the view's pairs
/// are stored sorted in minimal varints, so the kept subsequence is sorted
/// too and its source bytes are its encoding.
pub fn opt_group_filter_into(
    tg: &TgRef<'_>,
    spec: &StarSpec,
    key_prop: Option<u64>,
    out: &mut Vec<u8>,
    keys: &mut Vec<u64>,
) -> Option<bool> {
    let mark = out.len();
    let passed = filter_walk(tg, spec, key_prop, out, keys);
    if passed != Some(true) {
        out.truncate(mark);
    }
    passed
}

fn filter_walk(
    tg: &TgRef<'_>,
    spec: &StarSpec,
    key_prop: Option<u64>,
    out: &mut Vec<u8>,
    keys: &mut Vec<u64>,
) -> Option<bool> {
    keys.clear();
    let tracked = spec.primary.len().min(64);
    // The mask tracks 64 primary requirements; check any beyond that with
    // one scan each (unreachable on real specs).
    if !spec.primary[tracked..]
        .iter()
        .all(|req| req.matches_ref(tg))
    {
        return Some(false);
    }
    write_varint(out, tg.subject());
    // One byte for the kept count, widened after the walk if it needs more.
    let count_at = out.len();
    out.push(0);
    let mut matched: u64 = 0;
    let mut kept: u64 = 0;
    // The current run of consecutive kept pairs, flushed as one copy.
    let (mut run, mut run_len) = (tg.pair_bytes(), 0);
    let mut cur = tg.pair_bytes();
    for _ in 0..tg.len() {
        let pair = cur;
        let p = read_varint(&mut cur)?;
        let o = read_varint(&mut cur)?;
        let hit = |req: &PropReq| req.prop == p && req.object.is_none_or(|ro| ro == o);
        let mut keep = false;
        for (i, req) in spec.primary[..tracked].iter().enumerate() {
            if hit(req) {
                matched |= 1 << i;
                keep = true;
            }
        }
        if keep || spec.secondary.iter().any(hit) {
            if run_len == 0 {
                run = pair;
            }
            run_len += pair.len() - cur.len();
            kept += 1;
            if key_prop == Some(p) {
                keys.push(o);
            }
        } else {
            out.extend_from_slice(&run[..run_len]);
            run_len = 0;
        }
    }
    if matched.count_ones() as usize != tracked {
        return Some(false);
    }
    out.extend_from_slice(&run[..run_len]);
    // Write the kept count where it belongs, moving the pairs up when its
    // varint takes more than the byte reserved.
    match (kept >> 7).checked_ilog2() {
        None => out[count_at] = kept as u8,
        Some(bits) => {
            let extra = bits as usize / 7 + 1;
            let end = out.len();
            out.resize(end + extra, 0);
            out.copy_within(count_at + 1..end, count_at + 1 + extra);
            let mut v = kept;
            for byte in &mut out[count_at..=count_at + extra] {
                *byte = (v & 0x7f) as u8 | if v >> 7 == 0 { 0 } else { 0x80 };
                v >>= 7;
            }
        }
    }
    Some(true)
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
    let mut by_key: FxHashMap<u64, Vec<&AnnTg>> = FxHashMap::default();
    for (k, tg) in left {
        by_key.entry(*k).or_default().push(tg);
    }
    let mut out = Vec::new();
    for (k, rtg) in right {
        if let Some(ls) = by_key.get(k) {
            for ltg in ls {
                let joined = ltg.merge(rtg);
                if crate::spec::any_alpha_partial(conds, &joined) {
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
/// the grouping values. Returns `(group key, partial states)` pairs.
///
/// The paper's base-triplegroup formulation (`RNG(btg, TG_detail, θ, α)`)
/// is recovered by reading each output group as one base triplegroup whose
/// RNG contributed the folded detail groups.
pub fn agg_join(
    details: &[AnnTg],
    spec: &AggJoinSpec,
    numeric: &NumericSnapshot,
) -> Vec<(Vec<u64>, Vec<PartialAgg>)> {
    let mut groups: FxHashMap<Vec<u64>, Vec<PartialAgg>> = FxHashMap::default();
    for tg in details {
        if !spec.alpha.satisfied_full(tg) {
            continue;
        }
        accumulate(tg, spec, numeric, &mut |key, idx, value| {
            let entry = groups
                .entry(key.to_vec())
                .or_insert_with(|| vec![PartialAgg::default(); spec.aggs.len()]);
            entry[idx].add(value);
        });
    }
    groups.into_iter().collect()
}

/// Shared assignment-enumeration core for the logical and physical Agg-Join:
/// calls `fold(group_key, agg_index, numeric_value)` once per (assignment,
/// aggregation) pair.
/// Callback type for [`accumulate`]: `(group key, aggregate index, value)`.
pub type FoldFn<'a> = dyn FnMut(&[u64], usize, Option<f64>) + 'a;

pub fn accumulate(
    tg: &AnnTg,
    spec: &AggJoinSpec,
    numeric: &NumericSnapshot,
    fold: &mut FoldFn<'_>,
) {
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
            fold(&key, i, agg.value(assignment, numeric));
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

/// What one property of one star feeds in a [`SlotProgram`].
#[derive(Debug, Clone, Copy)]
struct PropProg {
    prop: u64,
    /// The value list collecting this property's objects.
    list: Option<usize>,
    /// The presence flag some α term reads.
    flag: Option<usize>,
}

/// One star's row of a [`SlotProgram`]: everything any spec wants from it.
#[derive(Debug)]
struct StarProg {
    star: u8,
    /// Flag raised when the star is present (α needs the star itself).
    present: Option<usize>,
    /// The value list receiving the star's subject.
    subject: Option<usize>,
    props: Vec<PropProg>,
}

/// One Agg-Join spec, compiled against the shared lists and flags.
#[derive(Debug)]
struct SpecProg {
    /// Value list per slot.
    slots: Vec<usize>,
    group_slots: Vec<usize>,
    /// α as `(flag, value it must have)`.
    alpha: Vec<(usize, bool)>,
}

/// The **compiled slot program** of an Agg-Join cycle: every variable
/// reference and α term of every spec, deduplicated into one table per
/// star, so one pass over each referenced star's pairs fills every value
/// list and presence flag that any spec reads — the blocks of a composite
/// pattern overlap by construction and share most of them.
///
/// Derived from the specs alone; holds its own scratch (value lists,
/// flags, odometer), cleared per record and never reallocated once warm.
#[derive(Debug, Default)]
pub struct SlotProgram {
    stars: Vec<StarProg>,
    specs: Vec<SpecProg>,
    lists: Vec<Vec<u64>>,
    flags: Vec<bool>,
    pos: Vec<usize>,
    assignment: Vec<u64>,
    key: Vec<u64>,
}

/// The index behind `slot`, taking the next free one on first use.
fn index_of(slot: &mut Option<usize>, next: &mut usize) -> usize {
    *slot.get_or_insert_with(|| {
        *next += 1;
        *next - 1
    })
}

impl SlotProgram {
    /// Compile `specs`: one value list per distinct [`VarRef`], one flag
    /// per distinct star and `(star, prop)` an α term mentions.
    pub fn compile(specs: &[AggJoinSpec]) -> Self {
        fn star_of(stars: &mut Vec<StarProg>, star: u8) -> &mut StarProg {
            let at = stars
                .iter()
                .position(|s| s.star == star)
                .unwrap_or_else(|| {
                    stars.push(StarProg {
                        star,
                        present: None,
                        subject: None,
                        props: Vec::new(),
                    });
                    stars.len() - 1
                });
            &mut stars[at]
        }
        fn prop_of(stars: &mut Vec<StarProg>, star: u8, prop: u64) -> &mut PropProg {
            let props = &mut star_of(stars, star).props;
            let at = props
                .iter()
                .position(|p| p.prop == prop)
                .unwrap_or_else(|| {
                    props.push(PropProg {
                        prop,
                        list: None,
                        flag: None,
                    });
                    props.len() - 1
                });
            &mut props[at]
        }
        let mut stars = Vec::new();
        let (mut nlists, mut nflags) = (0, 0);
        let specs = specs
            .iter()
            .map(|spec| SpecProg {
                slots: spec
                    .slots
                    .iter()
                    .map(|r| match *r {
                        VarRef::Subject { star } => {
                            index_of(&mut star_of(&mut stars, star).subject, &mut nlists)
                        }
                        VarRef::ObjectOf { star, prop } => {
                            index_of(&mut prop_of(&mut stars, star, prop).list, &mut nlists)
                        }
                    })
                    .collect(),
                group_slots: spec.group_slots.clone(),
                // `satisfied_full`: the term's star is there, and the
                // property is there iff required.
                alpha: spec
                    .alpha
                    .terms
                    .iter()
                    .flat_map(|t| {
                        let star = index_of(&mut star_of(&mut stars, t.star).present, &mut nflags);
                        let prop =
                            index_of(&mut prop_of(&mut stars, t.star, t.prop).flag, &mut nflags);
                        [(star, true), (prop, t.required)]
                    })
                    .collect(),
            })
            .collect();
        SlotProgram {
            stars,
            specs,
            lists: vec![Vec::new(); nlists],
            flags: vec![false; nflags],
            ..SlotProgram::default()
        }
    }

    /// Run the program over one record: load every list and flag from the
    /// record's stars, then for each spec whose α holds and whose slots are
    /// all bound call `f(spec index, group key, assignment)` once per joint
    /// assignment — specs in order, slot 0 outermost and the last slot
    /// fastest: the sequence [`accumulate`] produces spec by spec.
    pub fn run(&mut self, rec: &Stars<'_, '_>, mut f: impl FnMut(usize, &[u64], &[u64])) {
        let SlotProgram {
            stars,
            specs,
            lists,
            flags,
            pos,
            assignment,
            key,
        } = self;
        lists.iter_mut().for_each(Vec::clear);
        flags.fill(false);
        for sp in stars.iter() {
            let Some(g) = rec.get(sp.star) else { continue };
            if let Some(flag) = sp.present {
                flags[flag] = true;
            }
            if let Some(list) = sp.subject {
                lists[list].push(g.subject());
            }
            if sp.props.is_empty() {
                continue;
            }
            for (p, o) in g.pairs() {
                if let Some(pp) = sp.props.iter().find(|pp| pp.prop == p) {
                    if let Some(list) = pp.list {
                        lists[list].push(o);
                    }
                    if let Some(flag) = pp.flag {
                        flags[flag] = true;
                    }
                }
            }
        }
        for (si, spec) in specs.iter().enumerate() {
            // An unbound slot means the pattern does not match and the
            // record contributes nothing (relational inner-join semantics).
            if !spec.alpha.iter().all(|&(flag, want)| flags[flag] == want)
                || spec.slots.iter().any(|&l| lists[l].is_empty())
            {
                continue;
            }
            pos.clear();
            pos.resize(spec.slots.len(), 0);
            assignment.clear();
            assignment.extend(spec.slots.iter().map(|&l| lists[l][0]));
            'assignments: loop {
                key.clear();
                key.extend(spec.group_slots.iter().map(|&g| assignment[g]));
                f(si, key, assignment);
                // Odometer step; falling off slot 0 ends the enumeration.
                let mut i = spec.slots.len();
                loop {
                    if i == 0 {
                        break 'assignments;
                    }
                    i -= 1;
                    let list = &lists[spec.slots[i]];
                    pos[i] += 1;
                    if pos[i] < list.len() {
                        assignment[i] = list[pos[i]];
                        break;
                    }
                    pos[i] = 0;
                    assignment[i] = list[0];
                }
            }
        }
    }
}

/// Finalize agg-join groups into `(key, values)` with each partial resolved
/// through its [`AggOp`].
pub fn finalize_groups(
    groups: Vec<(Vec<u64>, Vec<PartialAgg>)>,
    ops: &[AggOp],
) -> Vec<(Vec<u64>, Vec<Option<f64>>)> {
    finalize_groups_par(groups, ops, 1)
}

/// [`finalize_groups`] with the group list cut into contiguous chunks
/// finalized on `workers` scoped threads. Each group's finalize reads only
/// its own partials — key-local in the engine's sense — so chunk outputs
/// concatenated in chunk order are exactly the serial result at any worker
/// count.
pub fn finalize_groups_par(
    groups: Vec<(Vec<u64>, Vec<PartialAgg>)>,
    ops: &[AggOp],
    workers: usize,
) -> Vec<(Vec<u64>, Vec<Option<f64>>)> {
    const MIN_PAR_GROUPS: usize = 1024;
    let finalize_chunk = |chunk: Vec<(Vec<u64>, Vec<PartialAgg>)>| {
        chunk
            .into_iter()
            .map(|(k, partials)| {
                let values = partials
                    .iter()
                    .zip(ops)
                    .map(|(p, op)| p.finalize(*op))
                    .collect();
                (k, values)
            })
            .collect::<Vec<_>>()
    };
    let workers = workers.max(1).min(groups.len() / MIN_PAR_GROUPS + 1);
    if workers <= 1 {
        return finalize_chunk(groups);
    }
    // Split into owned chunks front to back, finalize each on its own
    // scoped thread, join in spawn order.
    let per = groups.len().div_ceil(workers);
    let mut rest = groups;
    let mut chunks: Vec<Vec<(Vec<u64>, Vec<PartialAgg>)>> = Vec::with_capacity(workers);
    while rest.len() > per {
        let tail = rest.split_off(per);
        chunks.push(rest);
        rest = tail;
    }
    chunks.push(rest);
    let finalize_chunk = &finalize_chunk;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| scope.spawn(move || finalize_chunk(c)))
            .collect();
        let mut out = Vec::new();
        for h in handles {
            out.extend(h.join().expect("finalize worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggSpec, AlphaTerm};
    use crate::triplegroup::StarDir;
    use std::sync::Arc;

    fn tg(s: u64, pairs: &[(u64, u64)]) -> TripleGroup {
        TripleGroup::new(s, pairs.to_vec())
    }

    // Property ids echoing Fig. 4: product=1, price=2, validFrom=3, validTo=4.
    const PRODUCT: u64 = 1;
    const PRICE: u64 = 2;
    const VALID_FROM: u64 = 3;
    const VALID_TO: u64 = 4;

    fn fig4_spec() -> StarSpec {
        StarSpec {
            star: 0,
            primary: vec![PropReq::any(PRODUCT), PropReq::any(PRICE)],
            secondary: vec![PropReq::any(VALID_FROM), PropReq::any(VALID_TO)],
        }
    }

    /// Fig. 4(a): tg1, tg2, tg4 pass; tg3 (missing price) is filtered out.
    #[test]
    fn fig4a_optional_group_filter() {
        let tg1 = tg(101, &[(PRODUCT, 11), (PRICE, 21), (VALID_TO, 41)]);
        let tg2 = tg(102, &[(PRODUCT, 12), (PRICE, 22)]);
        let tg3 = tg(103, &[(PRODUCT, 13), (VALID_FROM, 33)]);
        let tg4 = tg(
            104,
            &[(PRODUCT, 14), (PRICE, 24), (VALID_FROM, 34), (VALID_TO, 44)],
        );
        let spec = fig4_spec();
        assert!(opt_group_filter(&tg1, &spec).is_some());
        assert!(opt_group_filter(&tg2, &spec).is_some());
        assert!(opt_group_filter(&tg3, &spec).is_none(), "missing primary price");
        assert!(opt_group_filter(&tg4, &spec).is_some());
    }

    #[test]
    fn filter_projects_away_irrelevant_properties() {
        let g = tg(1, &[(PRODUCT, 11), (PRICE, 21), (99, 5)]);
        let out = opt_group_filter(&g, &fig4_spec()).unwrap();
        assert!(!out.has_prop(99));
        assert_eq!(out.triples.len(), 2);
    }

    #[test]
    fn filter_with_type_object_constraint() {
        let spec = StarSpec {
            star: 0,
            primary: vec![PropReq::with_object(7, 70)],
            secondary: vec![],
        };
        assert!(opt_group_filter(&tg(1, &[(7, 70)]), &spec).is_some());
        assert!(opt_group_filter(&tg(1, &[(7, 71)]), &spec).is_none());
        // Projection keeps only the matching type triple.
        let both = tg(1, &[(7, 70), (7, 71)]);
        let out = opt_group_filter(&both, &spec).unwrap();
        assert_eq!(out.triples, vec![(7, 70)]);
    }

    /// Fig. 4(b): n-split with P_sec1={validFrom}, P_sec2={validTo}.
    #[test]
    fn fig4b_n_split() {
        let tg4 = tg(
            104,
            &[(PRODUCT, 14), (PRICE, 24), (VALID_FROM, 34), (VALID_TO, 44)],
        );
        let tg1 = tg(101, &[(PRODUCT, 11), (PRICE, 21), (VALID_TO, 41)]);
        let prim = vec![PRODUCT, PRICE];
        let secs = vec![vec![VALID_FROM], vec![VALID_TO]];

        let s4 = n_split(&tg4, &prim, &secs);
        // tg4 matches both combinations.
        let s41 = s4[0].as_ref().unwrap();
        assert!(s41.has_prop(VALID_FROM) && !s41.has_prop(VALID_TO));
        let s42 = s4[1].as_ref().unwrap();
        assert!(s42.has_prop(VALID_TO) && !s42.has_prop(VALID_FROM));

        // tg1 matches only the second combination.
        let s1 = n_split(&tg1, &prim, &secs);
        assert!(s1[0].is_none());
        assert!(s1[1].is_some());
    }

    /// Fig. 4(c): first combination has no secondary properties.
    #[test]
    fn fig4c_n_split_with_empty_secondary() {
        let tg1 = tg(101, &[(PRODUCT, 11), (PRICE, 21), (VALID_TO, 41)]);
        let s = n_split(&tg1, &[PRODUCT, PRICE], &[vec![], vec![VALID_TO]]);
        let first = s[0].as_ref().unwrap();
        assert_eq!(first.props().len(), 2);
        assert!(s[1].is_some());
    }

    /// Table 2 row 4 shape: GP1=abc:de, GP2=ab:def — α1 = c≠∅ ∧ f=∅,
    /// α2 = c=∅ ∧ f≠∅. Combinations violating both must not materialize.
    #[test]
    fn alpha_join_rejects_invalid_combinations() {
        const A: u64 = 1;
        const B: u64 = 2;
        const C: u64 = 3;
        const D: u64 = 4;
        const E: u64 = 5;
        const F: u64 = 6;
        let conds = vec![
            AlphaCond {
                terms: vec![
                    AlphaTerm { star: 0, prop: C, required: true },
                    AlphaTerm { star: 1, prop: F, required: false },
                ],
            },
            AlphaCond {
                terms: vec![
                    AlphaTerm { star: 0, prop: C, required: false },
                    AlphaTerm { star: 1, prop: F, required: true },
                ],
            },
        ];
        // Left star 0 groups: with and without c. Key = subject for the test.
        let l_abc = AnnTg::single(0, tg(1, &[(A, 10), (B, 11), (C, 12)]));
        let l_ab = AnnTg::single(0, tg(2, &[(A, 10), (B, 11)]));
        // Right star 1 groups: with and without f.
        let r_def = AnnTg::single(1, tg(3, &[(D, 20), (E, 21), (F, 22)]));
        let r_de = AnnTg::single(1, tg(4, &[(D, 20), (E, 21)]));

        let left = vec![(7, l_abc.clone()), (7, l_ab.clone())];
        let right = vec![(7, r_def.clone()), (7, r_de.clone())];
        let out = alpha_join(&left, &right, &conds);
        // Valid: abc+de (α1), ab+def (α2). Invalid: abc+def, ab+de.
        assert_eq!(out.len(), 2);
        for j in &out {
            let has_c = j.star(0).unwrap().has_prop(C);
            let has_f = j.star(1).unwrap().has_prop(F);
            assert!(has_c != has_f, "exactly one of c/f per Table 2 row");
        }
    }

    #[test]
    fn alpha_join_matches_on_key_only() {
        let l = vec![(1, AnnTg::single(0, tg(1, &[(1, 1)])))];
        let r = vec![(2, AnnTg::single(1, tg(2, &[(2, 2)])))];
        assert!(alpha_join(&l, &r, &[]).is_empty(), "different keys");
    }

    /// Fig. 5: groupings on (feature, country); dtg2 (no pf) fails α and the
    /// aggregation fans out over the multi-valued pf.
    #[test]
    fn fig5_agg_join() {
        const PF: u64 = 10; // productFeature (secondary)
        const PC: u64 = 11; // price
        const CN: u64 = 12; // country
        // One composite star (index 0) carrying pf+pc, star 1 carrying cn —
        // flattened here into two stars of an AnnTg.
        let feat1 = 501;
        let feat2 = 502;
        let uk = 601;
        let us = 602;
        // Numeric snapshot: ids are prices when in 0..100.
        let mut numeric = vec![None; 1000];
        numeric[30] = Some(30.0);
        numeric[50] = Some(50.0);
        numeric[20] = Some(20.0);
        let numeric: NumericSnapshot = Arc::new(numeric);

        let dtg1 = AnnTg {
            groups: vec![
                (0, tg(1, &[(PF, feat1), (PC, 30)])),
                (1, tg(9, &[(CN, uk)])),
            ],
        };
        // dtg2 has no pf — fails α.
        let dtg2 = AnnTg {
            groups: vec![(0, tg(2, &[(PC, 50)])), (1, tg(9, &[(CN, uk)]))],
        };
        // dtg3: two features, one price — fans out to two groups.
        let dtg3 = AnnTg {
            groups: vec![
                (0, tg(3, &[(PF, feat1), (PF, feat2), (PC, 20)])),
                (1, tg(8, &[(CN, us)])),
            ],
        };
        let spec = AggJoinSpec {
            id: 0,
            slots: vec![
                VarRef::ObjectOf { star: 0, prop: PF },
                VarRef::ObjectOf { star: 1, prop: CN },
                VarRef::ObjectOf { star: 0, prop: PC },
            ],
            group_slots: vec![0, 1],
            aggs: vec![
                AggSpec { op: AggOp::Sum, arg: Some(2) },
                AggSpec { op: AggOp::Count, arg: Some(2) },
            ],
            alpha: AlphaCond {
                terms: vec![AlphaTerm { star: 0, prop: PF, required: true }],
            },
        };
        let mut groups = agg_join(&[dtg1, dtg2, dtg3], &spec, &numeric);
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(groups.len(), 3); // (f1,uk), (f1,us), (f2,us)
        let lookup = |k: &[u64]| {
            groups
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, p)| (p[0].finalize(AggOp::Sum), p[1].finalize(AggOp::Count)))
                .unwrap()
        };
        assert_eq!(lookup(&[feat1, uk]), (Some(30.0), Some(1.0)));
        assert_eq!(lookup(&[feat1, us]), (Some(20.0), Some(1.0)));
        assert_eq!(lookup(&[feat2, us]), (Some(20.0), Some(1.0)));
    }

    /// COUNT grouped by the counted variable must count each assignment once
    /// (the correlated-variable case).
    #[test]
    fn agg_join_correlated_group_and_agg_var() {
        const CID: u64 = 5;
        let numeric: NumericSnapshot = Arc::new(vec![None; 10]);
        let d = AnnTg::single(0, tg(1, &[(CID, 7), (CID, 8)]));
        let spec = AggJoinSpec {
            id: 0,
            slots: vec![VarRef::ObjectOf { star: 0, prop: CID }],
            group_slots: vec![0],
            aggs: vec![AggSpec {
                op: AggOp::Count,
                arg: Some(0),
            }],
            alpha: AlphaCond::default(),
        };
        let mut groups = agg_join(&[d], &spec, &numeric);
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(groups.len(), 2);
        for (_, p) in &groups {
            assert_eq!(p[0].finalize(AggOp::Count), Some(1.0));
        }
    }

    /// GROUP BY ALL: a single group keyed by the empty tuple.
    #[test]
    fn agg_join_group_by_all() {
        const PC: u64 = 11;
        let mut numeric = vec![None; 100];
        numeric[30] = Some(30.0);
        numeric[20] = Some(20.0);
        let numeric: NumericSnapshot = Arc::new(numeric);
        let d1 = AnnTg::single(0, tg(1, &[(PC, 30)]));
        let d2 = AnnTg::single(0, tg(2, &[(PC, 20)]));
        let spec = AggJoinSpec {
            id: 1,
            slots: vec![VarRef::ObjectOf { star: 0, prop: PC }],
            group_slots: vec![],
            aggs: vec![AggSpec {
                op: AggOp::Sum,
                arg: Some(0),
            }],
            alpha: AlphaCond::default(),
        };
        let groups = agg_join(&[d1, d2], &spec, &numeric);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, Vec::<u64>::new());
        assert_eq!(groups[0].1[0].finalize(AggOp::Sum), Some(50.0));
    }

    /// Parallel evaluation of two independent Agg-Joins over the same detail
    /// collection (§4.1) must equal their sequential evaluation.
    #[test]
    fn parallel_agg_joins_equal_sequential() {
        const PF: u64 = 10;
        const PC: u64 = 11;
        let mut numeric = vec![None; 100];
        numeric[30] = Some(30.0);
        numeric[20] = Some(20.0);
        let numeric: NumericSnapshot = Arc::new(numeric);
        let details = vec![
            AnnTg::single(0, tg(1, &[(PF, 61), (PC, 30)])),
            AnnTg::single(0, tg(2, &[(PC, 20)])),
        ];
        let spec1 = AggJoinSpec {
            id: 0,
            slots: vec![
                VarRef::ObjectOf { star: 0, prop: PF },
                VarRef::ObjectOf { star: 0, prop: PC },
            ],
            group_slots: vec![0],
            aggs: vec![AggSpec { op: AggOp::Sum, arg: Some(1) }],
            alpha: AlphaCond {
                terms: vec![AlphaTerm { star: 0, prop: PF, required: true }],
            },
        };
        let spec2 = AggJoinSpec {
            id: 1,
            slots: vec![VarRef::ObjectOf { star: 0, prop: PC }],
            group_slots: vec![],
            aggs: vec![AggSpec { op: AggOp::Count, arg: Some(0) }],
            alpha: AlphaCond::default(),
        };
        // "Parallel": one pass over details feeding both specs.
        let g1 = agg_join(&details, &spec1, &numeric);
        let g2 = agg_join(&details, &spec2, &numeric);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].1[0].finalize(AggOp::Sum), Some(30.0));
        assert_eq!(g2[0].1[0].finalize(AggOp::Count), Some(2.0));
    }

    #[test]
    fn finalize_groups_applies_ops() {
        let mut p = PartialAgg::default();
        p.add(Some(4.0));
        p.add(Some(6.0));
        let out = finalize_groups(vec![(vec![1], vec![p])], &[AggOp::Avg]);
        assert_eq!(out[0].1[0], Some(5.0));
    }

    #[test]
    fn finalize_groups_par_matches_serial_in_order() {
        // Enough groups to clear the MIN_PAR_GROUPS floor and genuinely
        // split across threads.
        let mk = || {
            (0..5000usize)
                .map(|i| {
                    let mut p = PartialAgg::default();
                    p.add(Some(i as f64));
                    p.add(if i % 7 == 0 { None } else { Some(2.0 * i as f64) });
                    let mut q = PartialAgg::default();
                    q.add(Some(1.0));
                    (vec![i as u64, (i % 13) as u64], vec![p, q])
                })
                .collect::<Vec<_>>()
        };
        let ops = [AggOp::Sum, AggOp::Count];
        let serial = finalize_groups_par(mk(), &ops, 1);
        for workers in [2, 3, 8] {
            assert_eq!(
                finalize_groups_par(mk(), &ops, workers),
                serial,
                "chunk-parallel finalize must match serial at {workers} workers"
            );
        }
    }

    #[test]
    fn opt_group_filter_into_matches_owned() {
        let spec = fig4_spec();
        let cases = [
            tg(101, &[(PRODUCT, 11), (PRICE, 21), (VALID_TO, 41), (99, 5)]),
            tg(102, &[(PRODUCT, 12), (PRICE, 22)]),
            tg(103, &[(PRODUCT, 13), (VALID_FROM, 33)]),
        ];
        for g in &cases {
            let mut rec = Vec::new();
            g.encode(&mut rec);
            let v = TgRef::parse(&rec).unwrap();
            let (mut got, mut keys) = (vec![0xAA], vec![7]);
            let passed = opt_group_filter_into(&v, &spec, Some(PRODUCT), &mut got, &mut keys);
            match opt_group_filter(g, &spec) {
                None => {
                    assert_eq!(passed, Some(false));
                    assert_eq!(got, [0xAA], "rejected group must not touch out");
                }
                Some(owned) => {
                    assert_eq!(passed, Some(true));
                    let mut want = vec![0xAA];
                    owned.encode(&mut want);
                    assert_eq!(got, want);
                    assert_eq!(keys, owned.objects_of(PRODUCT).collect::<Vec<_>>());
                }
            }
        }
    }

    /// The kept count is written after the walk: every varint width, with
    /// dropped pairs before, between and after the kept ones.
    #[test]
    fn opt_group_filter_into_widens_the_count() {
        let spec = fig4_spec();
        for kept in [3u64, 127, 128, 300, 16_383, 16_384] {
            let mut pairs = vec![(PRODUCT, 11), (99, 5), (VALID_TO, 41), (0, 1)];
            pairs.extend((2..kept).map(|i| (PRICE, i * 37)));
            let g = tg(7, &pairs);
            let mut rec = Vec::new();
            g.encode(&mut rec);
            let v = TgRef::parse_framed(&rec).unwrap();
            let mut got = Vec::new();
            let passed = opt_group_filter_into(&v, &spec, None, &mut got, &mut Vec::new());
            assert_eq!(passed, Some(true));
            let owned = opt_group_filter(&g, &spec).unwrap();
            assert_eq!(owned.triples.len() as u64, kept);
            let mut want = Vec::new();
            owned.encode(&mut want);
            assert_eq!(got, want, "kept {kept}");
        }
    }

    #[test]
    fn slot_program_matches_owned() {
        const PF: u64 = 10;
        const PC: u64 = 11;
        const CN: u64 = 12;
        let mut numeric = vec![None; 100];
        numeric[30] = Some(30.0);
        numeric[20] = Some(20.0);
        let numeric: NumericSnapshot = Arc::new(numeric);
        let specs = [
            AggJoinSpec {
                id: 0,
                slots: vec![
                    VarRef::ObjectOf { star: 0, prop: PF },
                    VarRef::ObjectOf { star: 1, prop: CN },
                    VarRef::ObjectOf { star: 0, prop: PC },
                ],
                group_slots: vec![0, 1],
                aggs: vec![
                    AggSpec { op: AggOp::Sum, arg: Some(2) },
                    AggSpec { op: AggOp::Count, arg: None },
                ],
                alpha: AlphaCond::default(),
            },
            // Shares (0, PC) with spec 0; α wants pf absent.
            AggJoinSpec {
                id: 1,
                slots: vec![VarRef::ObjectOf { star: 0, prop: PC }],
                group_slots: vec![],
                aggs: vec![AggSpec { op: AggOp::Avg, arg: Some(0) }],
                alpha: AlphaCond {
                    terms: vec![AlphaTerm { star: 0, prop: PF, required: false }],
                },
            },
        ];
        let details = [
            AnnTg {
                groups: vec![
                    (0, tg(3, &[(PF, 61), (PF, 62), (PC, 20), (PC, 30)])),
                    (1, tg(8, &[(CN, 70), (CN, 71)])),
                ],
            },
            // Missing pf: spec 0's slot 0 is empty, spec 1's α holds.
            AnnTg {
                groups: vec![(0, tg(4, &[(PC, 20)])), (1, tg(8, &[(CN, 70)]))],
            },
        ];
        let mut prog = SlotProgram::compile(&specs);
        let mut dir = StarDir::default();
        for d in &details {
            let mut owned_folds: Vec<(usize, Vec<u64>, usize, Option<f64>)> = Vec::new();
            for (si, spec) in specs.iter().enumerate() {
                if spec.alpha.satisfied_full(d) {
                    accumulate(d, spec, &numeric, &mut |k, i, v| {
                        owned_folds.push((si, k.to_vec(), i, v));
                    });
                }
            }
            let rec = d.encoded();
            let mut prog_folds = Vec::new();
            prog.run(&dir.fill(&rec).unwrap(), |si, k, assignment| {
                for (i, agg) in specs[si].aggs.iter().enumerate() {
                    prog_folds.push((si, k.to_vec(), i, agg.value(assignment, &numeric)));
                }
            });
            assert!(!owned_folds.is_empty());
            assert_eq!(prog_folds, owned_folds, "fold sequences must be identical");
        }
    }
}
