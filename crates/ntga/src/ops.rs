//! The NTGA operator kernels the physical operators run on one record at a
//! time: the optional group filter σ^γopt (Def 3.3) as one walk of a raw
//! triplegroup's pairs, and the Agg-Join's assignment enumeration (Def 3.6)
//! as a [`SlotProgram`] compiled from every spec of a cycle. Their logical,
//! owned-value forms — with the n-split χ and the α-Join of Defs 3.4–3.5 —
//! are the test-only oracle in `tests/common`.

use crate::spec::{AggJoinSpec, PropReq, StarSpec, ValueFilter, VarRef};
use crate::triplegroup::{Stars, TgRef};
use rapida_mapred::codec::{read_varint, write_varint};

/// σ^γopt — the **optional group filter** (Def 3.3) over a borrowed view,
/// behind a star's [`ValueFilter`], in **one walk** of the group's pairs.
/// A pair failing a predicate on its property counts as absent; every other
/// pair matching a primary or secondary requirement is kept. The walk
/// decides the primary mask, appends the projected group's canonical
/// encoding to `out` (the caller clears) by copying each run of kept pairs'
/// *source bytes*, and collects into `keys` (cleared here) the kept objects
/// of `key_prop` — the `JoinKey::ObjectOf` values of the projected group,
/// in stored order. The subject gate is checked once the walk is done.
///
/// `Some(true)`: the group passed. `Some(false)`: a primary requirement or
/// the subject gate failed. `None`: fewer than `tg.len()` pairs decode —
/// the record `TripleGroup::decode` rejects, whatever the filter would
/// have said. `out` keeps its length unless the group passed.
///
/// Byte-identical to dropping the failing pairs, gating the subject, then
/// projecting the owned group and encoding it: the view's pairs are stored
/// sorted in minimal varints, so the kept subsequence is sorted too and its
/// source bytes are its encoding.
pub fn opt_group_filter_into(
    tg: &TgRef<'_>,
    spec: &StarSpec,
    filter: &ValueFilter,
    key_prop: Option<u64>,
    out: &mut Vec<u8>,
    keys: &mut Vec<u64>,
) -> Option<bool> {
    let mark = out.len();
    let passed = filter_walk(tg, spec, filter, key_prop, out, keys);
    if passed != Some(true) {
        out.truncate(mark);
    }
    passed
}

fn filter_walk(
    tg: &TgRef<'_>,
    spec: &StarSpec,
    filter: &ValueFilter,
    key_prop: Option<u64>,
    out: &mut Vec<u8>,
    keys: &mut Vec<u64>,
) -> Option<bool> {
    keys.clear();
    let tracked = spec.primary.len().min(64);
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
        let hit = |req: &PropReq| req.admits(p, o);
        let mut hits: u64 = 0;
        for (i, req) in spec.primary[..tracked].iter().enumerate() {
            if hit(req) {
                hits |= 1 << i;
            }
        }
        if (hits != 0 || spec.secondary.iter().any(hit)) && filter.admits(p, o) {
            matched |= hits;
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
    // The mask tracks 64 primary requirements; any beyond that take one
    // scan each (unreachable on real specs).
    let untracked = |req: &PropReq| tg.pairs().any(|(p, o)| req.admits(p, o) && filter.admits(p, o));
    if matched.count_ones() as usize != tracked
        || !spec.primary[tracked..].iter().all(untracked)
        || !filter.admits_subject(tg.subject())
    {
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
    /// fastest: the sequence the logical Agg-Join produces spec by spec.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplegroup::TripleGroup;

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

    /// σ^γopt of `g` through the one walk, unfiltered: the projected group,
    /// or `None` if a primary requirement fails.
    fn opt_group_filter(g: &TripleGroup, spec: &StarSpec) -> Option<TripleGroup> {
        let mut rec = Vec::new();
        g.encode(&mut rec);
        let view = TgRef::parse(&rec).unwrap();
        let mut out = Vec::new();
        let passed = opt_group_filter_into(&view, spec, &ValueFilter::default(), None, &mut out, &mut Vec::new());
        passed.expect("a canonical record").then(|| TripleGroup::decode(&out).unwrap())
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

    #[test]
    fn opt_group_filter_into_matches_owned() {
        let spec = fig4_spec();
        let cases = [
            (
                tg(101, &[(PRODUCT, 11), (PRICE, 21), (VALID_TO, 41), (99, 5)]),
                Some(tg(101, &[(PRODUCT, 11), (PRICE, 21), (VALID_TO, 41)])),
            ),
            (tg(102, &[(PRODUCT, 12), (PRICE, 22)]), Some(tg(102, &[(PRODUCT, 12), (PRICE, 22)]))),
            (tg(103, &[(PRODUCT, 13), (VALID_FROM, 33)]), None),
        ];
        for (g, projected) in &cases {
            let mut rec = Vec::new();
            g.encode(&mut rec);
            let v = TgRef::parse(&rec).unwrap();
            let (mut got, mut keys) = (vec![0xAA], vec![7]);
            let filter = ValueFilter::default();
            let passed = opt_group_filter_into(&v, &spec, &filter, Some(PRODUCT), &mut got, &mut keys);
            match projected {
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
        let fig4 = [PRODUCT, PRICE, VALID_FROM, VALID_TO];
        for kept in [3u64, 127, 128, 300, 16_383, 16_384] {
            let mut pairs = vec![(PRODUCT, 11), (99, 5), (VALID_TO, 41), (0, 1)];
            pairs.extend((2..kept).map(|i| (PRICE, i * 37)));
            let g = tg(7, &pairs);
            let mut rec = Vec::new();
            g.encode(&mut rec);
            let v = TgRef::parse_framed(&rec).unwrap();
            let mut got = Vec::new();
            let passed = opt_group_filter_into(&v, &spec, &ValueFilter::default(), None, &mut got, &mut Vec::new());
            assert_eq!(passed, Some(true));
            pairs.retain(|(p, _)| fig4.contains(p));
            assert_eq!(pairs.len() as u64, kept);
            let mut want = Vec::new();
            tg(7, &pairs).encode(&mut want);
            assert_eq!(got, want, "kept {kept}");
        }
    }
}
