//! The logical NTGA operators of the spec oracle (`common`) on the paper's
//! examples: the n-split of Fig. 4(b)–(c), the α-Join on a Table 2 row,
//! and the TG Agg-Join of Fig. 5. (Fig. 4(a)'s group filter is pinned on
//! the production walk, in `ops::tests`.)

mod common;

use common::{agg_join, alpha_join, dict_of, n_split};
use rapida_ntga::{AggJoinSpec, AggOp, AggSpec, AlphaCond, AlphaTerm, AnnTg, TripleGroup, VarRef};
use rapida_rdf::Term;

fn tg(s: u64, pairs: &[(u64, u64)]) -> TripleGroup {
    TripleGroup::new(s, pairs.to_vec())
}

// Property ids echoing Fig. 4: product=1, price=2, validFrom=3, validTo=4.
const PRODUCT: u64 = 1;
const PRICE: u64 = 2;
const VALID_FROM: u64 = 3;
const VALID_TO: u64 = 4;

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
    // Ids 20, 30 and 50 are prices, each the number equal to its id.
    let dict = dict_of(1000, |i| matches!(i, 20 | 30 | 50).then(|| Term::integer(i as i64)));

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
    let mut groups = agg_join(&[dtg1, dtg2, dtg3], &spec, &dict);
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
    let dict = dict_of(10, |_| None);
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
    let mut groups = agg_join(&[d], &spec, &dict);
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
    let dict = dict_of(100, |i| matches!(i, 20 | 30).then(|| Term::integer(i as i64)));
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
    let groups = agg_join(&[d1, d2], &spec, &dict);
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
    let dict = dict_of(100, |i| matches!(i, 20 | 30).then(|| Term::integer(i as i64)));
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
    let g1 = agg_join(&details, &spec1, &dict);
    let g2 = agg_join(&details, &spec2, &dict);
    assert_eq!(g1.len(), 1);
    assert_eq!(g1[0].1[0].finalize(AggOp::Sum), Some(30.0));
    assert_eq!(g2[0].1[0].finalize(AggOp::Count), Some(2.0));
}
