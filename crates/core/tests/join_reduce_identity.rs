//! Byte-identity of the scratch-arena [`JoinReduceTask`] against the owned
//! reducer it replaced ([`common::ReferenceJoinReduce`]): over random join
//! configurations and random key groups — malformed values included — both
//! must write the same records in the same order and quarantine the same
//! number of values, across consecutive keys on one task instance (so
//! nothing of one key's scratch may leak into the next). The last test
//! holds the other reduce-side operator, [`GroupAggReduceTask`], to the same
//! rule for damaged input: quarantined whole, never half-applied.

mod common;

use common::{five_terms, value, ReferenceJoinReduce};
use rapida_core::relops::{
    GroupAggCfg, GroupAggReduceTask, JoinCycleCfg, JoinInputCfg, JoinReduceTask, ScanKind,
};
use rapida_core::rows::{row_bytes, RVal};
use rapida_mapred::codec::write_varint;
use rapida_mapred::{ReduceOutput, ReduceTask};
use rapida_ntga::{AggOp, AggRec, PartialAgg};
use rapida_testkit::prelude::*;
use std::sync::Arc;

/// Raw draws for one shuffled value: `(tag, cells, extra width, mangle)`.
type RawValue = (u8, Vec<u8>, u8, u8);

/// Term ids come from a domain of 5 so `eq_checks` both pass and fail
/// often; ids 0..3 carry numeric values 0.0, 10.0, 20.0.
fn cell(raw: u8) -> RVal {
    match raw % 8 {
        0 => RVal::Null,
        1 => RVal::Num(f64::from(raw) * 0.5),
        r => RVal::Id(u64::from(r - 2) % 5),
    }
}

fn build_cfg(
    inputs: &[(u8, bool)],
    output_cols: &[(u8, u8)],
    eq_checks: &[(u8, u8, u8, u8)],
) -> JoinCycleCfg {
    let n = inputs.len();
    let width = |i: usize| 1 + usize::from(inputs[i].0) % 3;
    let pick = |(i, c): (u8, u8)| {
        let i = usize::from(i) % n;
        (i, usize::from(c) % width(i))
    };
    let output_cols: Vec<(usize, usize)> = output_cols.iter().map(|&ic| pick(ic)).collect();
    JoinCycleCfg {
        inputs: (0..n)
            .map(|i| JoinInputCfg {
                scan: ScanKind::Rows(width(i)),
                key_col: 0,
                scan_preds: Vec::new(),
                optional: inputs[i].1,
            })
            .collect(),
        output_cols,
        eq_checks: eq_checks
            .iter()
            .map(|&(i1, c1, i2, c2)| (pick((i1, c1)), pick((i2, c2))))
            .collect(),
        dict: five_terms(),
    }
}

/// One shuffled value: `varint(tag) ++ row`. One tag draw in `2n + 1` names
/// an input that does not exist; in-range rows are at least as wide as
/// their input's scan; `mangle` then truncates one value in eight somewhere
/// — possibly down to nothing, so even the tag fails to decode.
fn build_value(cfg: &JoinCycleCfg, (tag, cells, extra, mangle): &RawValue) -> Vec<u8> {
    let n = cfg.inputs.len();
    let (tag, width) = match usize::from(*tag) % (2 * n + 1) {
        t if t >= 2 * n => (n + usize::from(*extra), 1 + usize::from(*extra) % 3),
        t => (
            t % n,
            cfg.inputs[t % n].scan.width() + usize::from(*extra) % 2,
        ),
    };
    let row: Vec<RVal> = (0..width)
        .map(|c| cell(cells.get(c).copied().unwrap_or(c as u8 + 2)))
        .collect();
    let mut v = value(tag as u64, &row);
    if mangle % 8 == 0 {
        v.truncate(usize::from(*mangle / 8) % v.len());
    }
    v
}

fn run(task: &mut dyn ReduceTask, groups: &[Vec<Vec<u8>>]) -> (Vec<Vec<u8>>, u64) {
    let mut out = ReduceOutput::default();
    for (k, group) in groups.iter().enumerate() {
        let values: Vec<&[u8]> = group.iter().map(Vec::as_slice).collect();
        task.reduce(&[k as u8], &values, &mut out);
    }
    task.cleanup(&mut out);
    (
        out.records.iter().map(<[u8]>::to_vec).collect(),
        out.corrupt_records,
    )
}

proptest! {
    #[test]
    fn arena_reducer_matches_owned_reference(
        inputs in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..5),
        output_cols in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..6),
        eq_checks in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..3),
        groups in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..4), any::<u8>(), any::<u8>()),
                0..9),
            1..6),
    ) {
        let cfg = Arc::new(build_cfg(&inputs, &output_cols, &eq_checks));
        let groups: Vec<Vec<Vec<u8>>> = groups
            .iter()
            .map(|g| g.iter().map(|raw| build_value(&cfg, raw)).collect())
            .collect();
        let want = run(&mut ReferenceJoinReduce { cfg: cfg.clone() }, &groups);
        let got = run(&mut JoinReduceTask::new(cfg.clone()), &groups);
        prop_assert_eq!(got, want);
    }
}

fn two_way(optional: bool) -> Arc<JoinCycleCfg> {
    Arc::new(build_cfg(
        &[(1, false), (1, optional)],
        &[(0, 0), (0, 1), (1, 1)],
        &[],
    ))
}

/// The generator's cases, pinned: a cut tag, a cut row and a tag naming no
/// input are each counted once, and the surviving rows still join.
#[test]
fn malformed_values_are_counted_not_dropped() {
    let cfg = two_way(false);
    let mut cut_row = value(1, &[RVal::Id(1), RVal::Id(300)]);
    cut_row.pop();
    let group = vec![
        value(0, &[RVal::Id(1), RVal::Id(2)]),
        Vec::new(),
        cut_row,
        value(7, &[RVal::Id(1), RVal::Id(9)]),
        value(1, &[RVal::Id(1), RVal::Id(3)]),
    ];
    let want = run(
        &mut ReferenceJoinReduce { cfg: cfg.clone() },
        std::slice::from_ref(&group),
    );
    let got = run(&mut JoinReduceTask::new(cfg), &[group]);
    assert_eq!(got, want);
    assert_eq!(
        got.0,
        vec![row_bytes(&[RVal::Id(1), RVal::Id(2), RVal::Id(3)])]
    );
    assert_eq!(got.1, 3);
}

/// A row that decodes but is narrower than a column the join reads is
/// malformed too: quarantined, never an out-of-row read. (The owned reducer
/// indexed past the row's end here, so there is no reference to compare.)
#[test]
fn rows_too_narrow_for_the_join_are_quarantined() {
    let cfg = two_way(true);
    let group = vec![
        value(0, &[RVal::Id(1), RVal::Id(2)]),
        value(1, &[RVal::Id(1)]),
        value(0, &[]),
    ];
    let (records, corrupt) = run(&mut JoinReduceTask::new(cfg), &[group]);
    assert_eq!(corrupt, 2);
    assert_eq!(
        records,
        vec![row_bytes(&[RVal::Id(1), RVal::Id(2), RVal::Null])]
    );
}

/// A key group's rows must be gone when the next key arrives: the second
/// key has no row for the required right input and must emit nothing.
#[test]
fn scratch_does_not_leak_between_keys() {
    let cfg = two_way(false);
    let full = vec![
        value(0, &[RVal::Id(1), RVal::Id(2)]),
        value(1, &[RVal::Id(1), RVal::Id(3)]),
    ];
    let left_only = vec![value(0, &[RVal::Id(4), RVal::Id(5)])];
    let (records, corrupt) = run(
        &mut JoinReduceTask::new(cfg),
        &[full.clone(), left_only, full],
    );
    assert_eq!(corrupt, 0);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0], records[1]);
}

/// One key group through a SUM + COUNT(*) [`GroupAggReduceTask`].
fn group_agg(key: &[u8], values: &[&[u8]]) -> (Vec<AggRec>, u64) {
    let cfg = Arc::new(GroupAggCfg {
        block_id: 3,
        scan: ScanKind::Rows(2),
        scan_preds: vec![],
        group_cols: vec![0],
        aggs: vec![(AggOp::Sum, Some(1)), (AggOp::Count, None)],
        dict: Arc::default(),
        map_side_combine: true,
    });
    let mut out = ReduceOutput::default();
    GroupAggReduceTask::new(cfg).reduce(key, values, &mut out);
    let records = out.records.iter().map(|r| AggRec::decode(r).expect("an AggRec"));
    (records.collect(), out.corrupt_records)
}

/// Two partials, one per aggregate, each having folded `x` once.
fn partials(x: f64) -> Vec<u8> {
    let mut p = PartialAgg::default();
    p.add(Some(x));
    let mut v = Vec::new();
    p.encode(&mut v);
    p.encode(&mut v);
    v
}

/// A partial-aggregate value that stops short — or runs long — is
/// quarantined whole, never merged up to the partial that failed; a key
/// whose group-key count no key could hold is quarantined without reserving
/// memory for it. (`AggJoinReducer` shares `PartialAgg::merge_encoded` and
/// carries this as a property in `crates/ntga/tests/prop_ops.rs`.)
#[test]
fn group_agg_quarantines_damaged_values_and_keys_whole() {
    let key = [1, 42]; // nk = 1, group key 42
    let (a, b) = (partials(10.0), partials(5.0));
    let want = AggRec { id: 3, key: vec![42], values: vec![Some(10.0), Some(1.0)] };
    assert_eq!(group_agg(&key, &[&a]), (vec![want.clone()], 0));

    // `b` cut anywhere — after its first partial included — or one byte long.
    for cut in 0..b.len() {
        assert_eq!(group_agg(&key, &[&a, &b[..cut]]), (vec![want.clone()], 1), "cut at {cut}");
    }
    let long = [&b[..], &[0]].concat();
    assert_eq!(group_agg(&key, &[&long, &a]), (vec![want], 1));

    let mut hostile = Vec::new();
    write_varint(&mut hostile, u64::MAX);
    hostile.push(42);
    assert_eq!(group_agg(&hostile, &[&a]), (vec![], 1));
}
