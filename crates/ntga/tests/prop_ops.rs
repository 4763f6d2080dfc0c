//! Property tests for the NTGA operators: the set-theoretic laws of
//! Definitions 3.3–3.5 on the logical operators of the spec oracle
//! (`common`), partial-aggregate algebra, codec round-trips, and the
//! one-walk kernels (fused group filter behind a value filter, compiled
//! slot program) against the owned operators they must reproduce, and the
//! Agg-Join reducer's all-or-nothing handling of a damaged value.

mod common;

use common::{accumulate, alpha_join, dict_of, n_split, opt_group_filter, outcomes, value_filtered};
use rapida_mapred::codec::write_varint;
use rapida_mapred::{ReduceOutput, ReduceTask};
use rapida_ntga::{
    any_alpha_partial, opt_group_filter_into, AggJoinConfig, AggJoinReducer, AggJoinSpec, AggOp,
    AggRec, AggSpec, AlphaCond, AlphaTerm, AnnTg, IdPred, JoinKey, PartialAgg, PropReq,
    SlotProgram, StarDir, StarSpec, TgRef, TripleGroup, ValueFilter, VarRef,
};
use rapida_rdf::{Dictionary, Term};
use rapida_sparql::ast::CmpOp;
use rapida_testkit::prelude::*;
use std::sync::{Arc, OnceLock};

fn arb_tg() -> impl Strategy<Value = TripleGroup> {
    (
        any::<u32>(),
        proptest::collection::vec((1u64..8, 0u64..12), 0..10),
    )
        .prop_map(|(s, pairs)| TripleGroup::new(u64::from(s), pairs))
}

fn arb_spec() -> impl Strategy<Value = StarSpec> {
    (
        proptest::collection::btree_set(1u64..8, 0..3),
        proptest::collection::btree_set(1u64..8, 0..3),
    )
        .prop_map(|(prim, sec)| StarSpec {
            star: 0,
            primary: prim.into_iter().map(PropReq::any).collect(),
            secondary: sec.into_iter().map(PropReq::any).collect(),
        })
}

/// A dictionary over every object id the filter tests draw: ids divisible
/// by 3 are the integers `id / 3`, every other id `i` the literal `t{i}`.
fn dictionary() -> Arc<Dictionary> {
    static DICT: OnceLock<Arc<Dictionary>> = OnceLock::new();
    DICT.get_or_init(|| dict_of(24_000, |i| (i % 3 == 0).then(|| Term::integer(i as i64 / 3))))
        .clone()
}

/// A value predicate of each kind, drawn from `(kind, n)`: a numeric
/// comparison against `n`, an id (in)equality with `n`, or a substring —
/// `n` as digits, or case-insensitively `T` and `n`.
fn id_pred((kind, n): (u8, u64)) -> IdPred {
    match kind {
        0 => IdPred::Num {
            op: [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][n as usize % 6],
            rhs: n as f64,
        },
        1 => IdPred::IdEq { eq: n % 2 == 0, rhs: n },
        _ => IdPred::Contains {
            pattern: if n % 2 == 0 { format!("{}", n / 2) } else { format!("T{}", n / 2) },
            case_insensitive: n % 2 == 1,
        },
    }
}

/// Each kind of predicate `id_pred` draws admits some ids of the filter
/// tests' dictionary and rejects others.
#[test]
fn every_drawn_predicate_kind_reaches_both_outcomes() {
    for kind in 0..3 {
        let filter = ValueFilter {
            preds: (0..24).map(|n| (1, id_pred((kind, n)))).collect(),
            dict: dictionary(),
            ..ValueFilter::default()
        };
        let (admitted, rejected) = outcomes(&filter)
            .into_iter()
            .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
        assert!(admitted > 0 && rejected > 0, "kind {kind}: {admitted} admitted, {rejected} rejected");
    }
}

proptest! {
    /// Def 3.3: σ^γopt output satisfies P_prim ⊆ props(tg') ⊆ P_prim ∪ P_opt,
    /// keeps only original triples, and is idempotent.
    #[test]
    fn opt_group_filter_laws(tg in arb_tg(), spec in arb_spec()) {
        let prim: Vec<u64> = spec.primary.iter().map(|r| r.prop).collect();
        let all: Vec<u64> = spec.all_props();
        match opt_group_filter(&tg, &spec) {
            None => {
                // Rejected iff some primary requirement fails.
                prop_assert!(spec.primary.iter().any(|r| !r.matches(&tg)));
            }
            Some(out) => {
                let props = out.props();
                for p in &prim {
                    prop_assert!(props.contains(p), "primary {p} present");
                }
                for p in &props {
                    prop_assert!(all.contains(p), "only projected properties remain");
                }
                for t in &out.triples {
                    prop_assert!(tg.triples.contains(t), "no invented triples");
                }
                // Idempotence.
                prop_assert_eq!(opt_group_filter(&out, &spec), Some(out.clone()));
            }
        }
    }

    /// Def 3.4: each n-split extract is tg_prim ∪ tg_sec_i, present iff the
    /// secondary set is fully matched.
    #[test]
    fn n_split_laws(
        tg in arb_tg(),
        prim in proptest::collection::vec(1u64..8, 0..3),
        secs in proptest::collection::vec(proptest::collection::vec(1u64..8, 0..2), 1..4),
    ) {
        let outs = n_split(&tg, &prim, &secs);
        prop_assert_eq!(outs.len(), secs.len());
        for (out, sec) in outs.iter().zip(&secs) {
            match out {
                None => prop_assert!(sec.iter().any(|p| !tg.has_prop(*p))),
                Some(o) => {
                    prop_assert!(sec.iter().all(|p| tg.has_prop(*p)));
                    for (p, v) in &o.triples {
                        prop_assert!(prim.contains(p) || sec.contains(p));
                        prop_assert!(tg.has_triple(*p, *v));
                    }
                }
            }
        }
    }

    /// Def 3.5: the α-join equals the naive filtered nested-loop join.
    #[test]
    fn alpha_join_equals_nested_loop(
        left in proptest::collection::vec((0u64..4, arb_tg()), 0..8),
        right in proptest::collection::vec((0u64..4, arb_tg()), 0..8),
        req_prop in 1u64..8,
    ) {
        let left: Vec<(u64, AnnTg)> = left
            .into_iter()
            .map(|(k, tg)| (k, AnnTg::single(0, tg)))
            .collect();
        let right: Vec<(u64, AnnTg)> = right
            .into_iter()
            .map(|(k, tg)| (k, AnnTg::single(1, tg)))
            .collect();
        let conds = vec![AlphaCond {
            terms: vec![AlphaTerm { star: 0, prop: req_prop, required: true }],
        }];
        let mut got = alpha_join(&left, &right, &conds);
        let mut expect = Vec::new();
        for (lk, l) in &left {
            for (rk, r) in &right {
                if lk == rk {
                    let joined = l.merge(r);
                    if any_alpha_partial(&conds, &joined) {
                        expect.push(joined);
                    }
                }
            }
        }
        let key = |t: &AnnTg| format!("{t:?}");
        got.sort_by_key(&key);
        expect.sort_by_key(&key);
        prop_assert_eq!(got, expect);
    }

    /// PartialAgg merge is associative and commutative and equals the direct
    /// fold, for every aggregate op.
    #[test]
    fn partial_agg_algebra(
        xs in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 0..20),
        ys in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 0..20),
        zs in proptest::collection::vec(proptest::option::of(-1e6f64..1e6), 0..20),
    ) {
        let fold = |vals: &[Option<f64>]| {
            let mut p = PartialAgg::default();
            for v in vals {
                p.add(*v);
            }
            p
        };
        let (a, b, c) = (fold(&xs), fold(&ys), fold(&zs));

        let mut ab_c = a;
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        let mut ba = b;
        ba.merge(&a);

        let direct = fold(&[xs.clone(), ys.clone(), zs.clone()].concat());
        for op in [AggOp::Count, AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max] {
            let close = |x: Option<f64>, y: Option<f64>| match (x, y) {
                (None, None) => true,
                (Some(a), Some(b)) => (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                _ => false,
            };
            prop_assert!(close(ab_c.finalize(op), a_bc.finalize(op)), "associative {op:?}");
            prop_assert!(close(ab_c.finalize(op), direct.finalize(op)), "fold {op:?}");
            {
                let mut ba2 = ba;
                ba2.merge(&c);
                prop_assert!(close(ab_c.finalize(op), ba2.finalize(op)), "commutative {op:?}");
            }
        }
    }

    /// Codec round-trips for AnnTg and AggRec under arbitrary contents.
    #[test]
    fn codecs_roundtrip(
        groups in proptest::collection::vec((0u8..4, arb_tg()), 0..4),
        id in any::<u8>(),
        key in proptest::collection::vec(any::<u64>(), 0..5),
        values in proptest::collection::vec(proptest::option::of(any::<f64>()), 0..5),
    ) {
        let mut sorted = groups;
        sorted.sort_by_key(|(s, _)| *s);
        sorted.dedup_by_key(|(s, _)| *s);
        let ann = AnnTg { groups: sorted };
        prop_assert_eq!(AnnTg::decode(&ann.encoded()), Some(ann));

        let rec = AggRec { id, key, values: values.clone() };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let back = AggRec::decode(&buf).unwrap();
        prop_assert_eq!(back.id, rec.id);
        prop_assert_eq!(back.key, rec.key);
        prop_assert_eq!(back.values.len(), rec.values.len());
        for (x, y) in back.values.iter().zip(&rec.values) {
            match (x, y) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert!(a == b || (a.is_nan() && b.is_nan())),
                _ => prop_assert!(false, "Some/None mismatch"),
            }
        }
    }

    /// The compiled slot program folds exactly the `(spec, key, agg index,
    /// value)` sequence of α-gated owned `accumulate`, spec by spec: 1–4
    /// stars with ids anywhere in `u8`, multi-valued properties, missing
    /// stars, unbound slots, specs sharing references (and one spec naming
    /// a reference twice), `COUNT(*)`, empty `group_slots`, zero slots.
    #[test]
    fn slot_program_folds_like_owned_accumulate(
        stars in proptest::collection::btree_set(0u8..=255, 1..5),
        groups in proptest::collection::vec((0u8..4, arb_tg()), 4..5),
        specs in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..4, proptest::option::of(1u64..8)), 0..4),
                proptest::collection::vec(0usize..4, 0..3),
                proptest::collection::vec((0u8..5, proptest::option::of(0usize..4)), 1..4),
                proptest::collection::vec((0usize..4, 1u64..8, any::<bool>()), 0..3),
            ),
            1..4,
        ),
    ) {
        let stars: Vec<u8> = stars.into_iter().collect();
        let star = |i: usize| stars[i % stars.len()];
        // One group in four is missing from the record.
        let ann = AnnTg {
            groups: stars
                .iter()
                .zip(&groups)
                .filter(|(_, (absent, _))| *absent != 0)
                .map(|(s, (_, tg))| (*s, tg.clone()))
                .collect(),
        };
        let specs: Vec<AggJoinSpec> = specs
            .iter()
            .enumerate()
            .map(|(id, (slots, group, aggs, terms))| {
                let n = slots.len();
                AggJoinSpec {
                    id: id as u8,
                    slots: slots
                        .iter()
                        .map(|&(s, prop)| match prop {
                            None => VarRef::Subject { star: star(s) },
                            Some(prop) => VarRef::ObjectOf { star: star(s), prop },
                        })
                        .collect(),
                    group_slots: group.iter().filter(|_| n > 0).map(|g| g % n).collect(),
                    aggs: aggs
                        .iter()
                        .map(|&(op, arg)| AggSpec {
                            op: [AggOp::Count, AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max]
                                [op as usize],
                            arg: arg.filter(|_| n > 0).map(|a| a % n),
                        })
                        .collect(),
                    alpha: AlphaCond {
                        terms: terms
                            .iter()
                            .map(|&(s, prop, required)| AlphaTerm { star: star(s), prop, required })
                            .collect(),
                    },
                }
            })
            .collect();
        // Objects are 0..12; odd ones are numeric, subjects never are.
        let dict = dict_of(12, |i| (i % 2 == 1).then(|| Term::decimal(i as f64 * 1.5)));

        let mut want: Vec<(usize, Vec<u64>, usize, Option<f64>)> = Vec::new();
        for (si, spec) in specs.iter().enumerate() {
            if spec.alpha.satisfied_full(&ann) {
                accumulate(&ann, spec, &dict, &mut |key, i, v| {
                    want.push((si, key.to_vec(), i, v));
                });
            }
        }
        let rec = ann.encoded();
        let mut dir = StarDir::default();
        let mut prog = SlotProgram::compile(&specs);
        // Twice: the second run meets the first one's scratch.
        for _ in 0..2 {
            let mut got = Vec::new();
            prog.run(&dir.fill(&rec).expect("canonical record"), |si, key, assignment| {
                for (i, agg) in specs[si].aggs.iter().enumerate() {
                    got.push((si, key.to_vec(), i, agg.value(assignment, &dict)));
                }
            });
            prop_assert_eq!(&got, &want);
        }
    }

    /// The Agg-Join reducer merges a shuffled value whole or not at all:
    /// with any one value of a key group cut short anywhere (down to
    /// nothing) or carrying one byte too many, it writes exactly what it
    /// writes for the group without that value and quarantines one record.
    /// A key it cannot read — a group-key count no key could hold, a spec
    /// id nobody configured — is one quarantined record and no output.
    #[test]
    fn agg_reducer_takes_a_damaged_value_whole_or_not_at_all(
        ops in proptest::collection::vec(0usize..5, 1..4),
        values in proptest::collection::vec(
            proptest::collection::vec(proptest::option::of(-1e3f64..1e3), 0..4), 1..5),
        group in proptest::collection::vec(any::<u64>(), 0..3),
        victim in any::<usize>(),
    ) {
        let op = |&i: &usize| [AggOp::Count, AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max][i];
        let config = Arc::new(AggJoinConfig {
            specs: vec![AggJoinSpec {
                id: 7,
                slots: vec![],
                group_slots: vec![],
                aggs: ops.iter().map(|i| AggSpec { op: op(i), arg: None }).collect(),
                alpha: AlphaCond::default(),
            }],
            ..AggJoinConfig::default()
        });
        let key_of = |id: u64, nk: u64| {
            let mut key = Vec::new();
            [id, nk].iter().chain(&group).for_each(|n| write_varint(&mut key, *n));
            key
        };
        let key = key_of(7, group.len() as u64);
        // One encoded value per draw: its fold, once per aggregate.
        let values: Vec<Vec<u8>> = values
            .iter()
            .map(|fold| {
                let (mut p, mut v) = (PartialAgg::default(), Vec::new());
                fold.iter().for_each(|x| p.add(*x));
                ops.iter().for_each(|_| p.encode(&mut v));
                v
            })
            .collect();
        let reduce = |key: &[u8], values: &[Vec<u8>]| {
            let mut out = ReduceOutput::default();
            let values: Vec<&[u8]> = values.iter().map(Vec::as_slice).collect();
            AggJoinReducer::new(config.clone()).reduce(key, &values, &mut out);
            (out.records.iter().map(<[u8]>::to_vec).collect::<Vec<_>>(), out.corrupt_records)
        };

        let victim = victim % values.len();
        let mut without = values.clone();
        let intact = without.remove(victim);
        let (want, clean) = reduce(&key, &without);
        prop_assert_eq!((want.len(), clean), (1, 0));
        let cuts = (0..intact.len()).map(|cut| intact[..cut].to_vec());
        for bad in cuts.chain([[&intact[..], &[0]].concat()]) {
            let mut group = values.clone();
            group[victim] = bad;
            prop_assert_eq!(reduce(&key, &group), (want.clone(), 1));
        }
        prop_assert_eq!(reduce(&key_of(7, u64::MAX), &values), (vec![], 1));
        prop_assert_eq!(reduce(&key_of(8, group.len() as u64), &values), (vec![], 1));
    }
}

#[test]
fn slot_program_matches_owned() {
    const PF: u64 = 10;
    const PC: u64 = 11;
    const CN: u64 = 12;
    let dict = dict_of(100, |i| matches!(i, 20 | 30).then(|| Term::integer(i as i64)));
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
                (0, TripleGroup::new(3, vec![(PF, 61), (PF, 62), (PC, 20), (PC, 30)])),
                (1, TripleGroup::new(8, vec![(CN, 70), (CN, 71)])),
            ],
        },
        // Missing pf: spec 0's slot 0 is empty, spec 1's α holds.
        AnnTg {
            groups: vec![(0, TripleGroup::new(4, vec![(PC, 20)])), (1, TripleGroup::new(8, vec![(CN, 70)]))],
        },
    ];
    let mut prog = SlotProgram::compile(&specs);
    let mut dir = StarDir::default();
    for d in &details {
        let mut owned_folds: Vec<(usize, Vec<u64>, usize, Option<f64>)> = Vec::new();
        for (si, spec) in specs.iter().enumerate() {
            if spec.alpha.satisfied_full(d) {
                accumulate(d, spec, &dict, &mut |k, i, v| {
                    owned_folds.push((si, k.to_vec(), i, v));
                });
            }
        }
        let rec = d.encoded();
        let mut prog_folds = Vec::new();
        prog.run(&dir.fill(&rec).unwrap(), |si, k, assignment| {
            for (i, agg) in specs[si].aggs.iter().enumerate() {
                prog_folds.push((si, k.to_vec(), i, agg.value(assignment, &dict)));
            }
        });
        assert!(!owned_folds.is_empty());
        assert_eq!(prog_folds, owned_folds, "fold sequences must be identical");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The fused one-walk filter behind a value filter emits the bytes of
    /// the owned reference — drop the pairs failing their property's
    /// predicates, gate the subject, `opt_group_filter(..).encode(..)` —
    /// and the key list of `JoinKey::extract` on the filtered group,
    /// through numeric, id and substring predicates on primary, secondary
    /// and unprojected properties, subject sets with and without the
    /// subject, object-constrained requirements, multi-byte ids and counts
    /// past one varint byte; and it rejects every truncation of the record,
    /// gated out or not, without touching its output.
    #[test]
    fn fused_filter_matches_owned(
        tg in arb_tg(),
        bulk in (0usize..3, 1u64..8).prop_map(|(n, p)| (n * 90, p)),
        prim in proptest::collection::vec((1u64..8, proptest::option::of(0u64..12)), 0..3),
        sec in proptest::collection::vec((1u64..8, proptest::option::of(0u64..12)), 0..3),
        key_prop in 1u64..8,
        preds in proptest::collection::vec(((0u8..3, 0usize..8), (0u8..3, 0u64..24)), 0..4),
        gate in proptest::option::of((any::<bool>(), proptest::collection::vec(any::<u32>(), 0..4))),
    ) {
        // Up to 180 extra pairs on one property, objects in the 2–3 byte
        // varint range: kept counts on both sides of 128.
        let mut triples = tg.triples.clone();
        triples.extend((0..bulk.0 as u64).map(|i| (bulk.1, 100 + i * 131)));
        let tg = TripleGroup::new(tg.subject, triples);
        let req = |&(prop, object): &(u64, Option<u64>)| PropReq { prop, object };
        let spec = StarSpec {
            star: 0,
            primary: prim.iter().map(req).collect(),
            secondary: sec.iter().map(req).collect(),
        };
        let subjects = gate.map(|(with_subject, others)| {
            let mut set: Vec<u64> = others.into_iter().map(u64::from).collect();
            set.extend(with_subject.then_some(tg.subject));
            set.sort_unstable();
            set.dedup();
            Arc::new(set)
        });
        // A predicate's property: a primary one, a secondary one, or any.
        let pick = |reqs: &[(u64, Option<u64>)], i: usize| reqs.get(i % reqs.len().max(1)).map(|r| r.0);
        let prop_of = |(which, i): (u8, usize)| match which {
            0 => pick(&prim, i),
            1 => pick(&sec, i),
            _ => None,
        }
        .unwrap_or(1 + i as u64 % 7);
        let filter = ValueFilter {
            preds: preds.into_iter().map(|(p, pred)| (prop_of(p), id_pred(pred))).collect(),
            subjects,
            dict: dictionary(),
        };
        let mut rec = Vec::new();
        tg.encode(&mut rec);
        let view = TgRef::parse_framed(&rec).expect("canonical record parses");

        let (mut got, mut keys) = (vec![0xAA], vec![99]);
        let passed = opt_group_filter_into(&view, &spec, &filter, Some(key_prop), &mut got, &mut keys);
        match value_filtered(&tg, &filter).and_then(|kept| opt_group_filter(&kept, &spec)) {
            None => {
                prop_assert_eq!(passed, Some(false));
                prop_assert_eq!(&got, &[0xAA], "a rejected group leaves out alone");
            }
            Some(filtered) => {
                prop_assert_eq!(passed, Some(true));
                let mut want = vec![0xAA];
                filtered.encode(&mut want);
                prop_assert_eq!(&got, &want);
                let key = JoinKey::ObjectOf { star: 0, prop: key_prop };
                prop_assert_eq!(&keys, &key.extract(&AnnTg::single(0, filtered)));
            }
        }
        // Every strict prefix is a damaged record: no panic, no output.
        for cut in 0..rec.len() {
            if let Some(short) = TgRef::parse_framed(&rec[..cut]) {
                let mut out = vec![0xAA];
                let passed = opt_group_filter_into(&short, &spec, &filter, Some(key_prop), &mut out, &mut keys);
                prop_assert_eq!(passed, None, "cut at {}", cut);
                prop_assert_eq!(&out, &[0xAA]);
            }
        }
    }
}
