//! Byte-identity of the flat broadcast table behind [`MapJoinFactory`]
//! against the owned map it replaced ([`common::ReferenceMapJoin`]): over
//! random map-join configurations — 1–3 broadcast sides, keyless and
//! optional sides, probe columns anywhere in the accumulated row,
//! `eq_checks`, `scan_preds` on either side — and random row or
//! block-aggregate datasets with duplicate keys, `Null`/`Num` key cells,
//! keys that match nothing, truncated records, records narrower than their
//! scan, aggregates of other blocks and aggregates with the wrong key or
//! value count, both must write the same records in the same order and
//! quarantine the same number of stream records.

mod common;

use common::{five_terms, outcomes, ReferenceMapJoin};
use rapida_core::relops::{IdPred, MapJoinCfg, MapJoinFactory, MapJoinSmall, PredOnCol, ScanKind};
use rapida_core::rows::{row_bytes, RVal};
use rapida_mapred::{DatasetWriter, InputSrc, MapOutput, MapTask, MapTaskFactory, SimDfs};
use rapida_ntga::AggRec;
use rapida_sparql::ast::CmpOp;
use rapida_testkit::prelude::*;
use std::sync::Arc;

/// Raw draws for one record: `(cells, mangle)`.
type RawRow = (Vec<u8>, u8);
/// Raw draws for one broadcast side:
/// `(scan, key, probe col, optional, scan preds, rows)`; one key draw in
/// four makes the side keyless.
type RawSmall = (u8, u8, u8, bool, Vec<(u8, u8, u8)>, Vec<RawRow>);

/// Term ids come from a domain of 5 so keys repeat, `eq_checks` and `IdEq`
/// predicates both pass and fail often; ids 0..3 carry numeric values.
fn cell(raw: u8) -> RVal {
    match raw % 8 {
        0 => RVal::Null,
        1 => RVal::Num(f64::from(raw) * 0.5),
        r => RVal::Id(u64::from(r - 2) % 5),
    }
}

fn pred((col, kind, rhs): (u8, u8, u8), width: usize) -> PredOnCol {
    PredOnCol {
        col: usize::from(col) % width,
        pred: match kind % 3 {
            0 => IdPred::IdEq {
                eq: rhs % 2 == 0,
                rhs: u64::from(rhs) % 5,
            },
            1 => IdPred::Num {
                op: CmpOp::Ge,
                rhs: f64::from(rhs % 3) * 10.0,
            },
            _ => IdPred::Num {
                op: CmpOp::Ne,
                rhs: 10.0,
            },
        },
    }
}

/// Over the five ids, each kind of predicate the configurations draw
/// admits some and rejects others.
#[test]
fn every_drawn_predicate_kind_reaches_both_outcomes() {
    let dict = five_terms();
    for kind in 0..3 {
        let (admitted, rejected) = (0..=u8::MAX)
            .map(|rhs| outcomes(&pred((0, kind, rhs), 1).pred, &dict))
            .fold((0, 0), |(a, r), (da, dr)| (a + da, r + dr));
        assert!(admitted > 0 && rejected > 0, "kind {kind}: {admitted} admitted, {rejected} rejected");
    }
}

/// One record of a `Rows(width)` dataset. Most are `width` cells or one
/// more; `mangle` makes one in eight a cell too narrow and truncates
/// another one in eight somewhere, possibly down to nothing.
fn row_record(width: usize, (cells, mangle): &RawRow) -> Vec<u8> {
    let w = match mangle % 8 {
        1 => width - 1,
        m => width + usize::from(m) % 2,
    };
    let row: Vec<RVal> = (0..w)
        .map(|c| cell(cells.get(c).copied().unwrap_or(c as u8 + 2)))
        .collect();
    truncated(row_bytes(&row), *mangle)
}

/// One in eight `mangle`s cuts the record somewhere, possibly to nothing.
fn truncated(mut rec: Vec<u8>, mangle: u8) -> Vec<u8> {
    if mangle.is_multiple_of(8) {
        rec.truncate(usize::from(mangle / 8) % rec.len());
    }
    rec
}

/// One aggregate record of an `AggRecs` dataset. Most are of the scan's
/// block with its key and value counts; `mangle` drops a key (or adds one
/// to a keyless block), adds a value, stamps another block's id, or
/// truncates the record, one in eight each.
fn agg_record(block: u8, keys: usize, aggs: usize, (cells, mangle): &RawRow) -> Vec<u8> {
    let raw = |c: usize| cells.get(c).copied().unwrap_or(c as u8 + 2);
    let keys = match mangle % 8 {
        1 if keys > 0 => keys - 1,
        1 => 1,
        _ => keys,
    };
    let aggs = aggs + usize::from(mangle % 8 == 2);
    let rec = AggRec {
        id: if mangle % 8 == 3 { block + 1 } else { block },
        key: (0..keys).map(|c| u64::from(raw(c)) % 5).collect(),
        values: (0..aggs)
            .map(|c| (raw(keys + c) % 3 != 0).then(|| f64::from(raw(keys + c)) * 0.5))
            .collect(),
    };
    let mut buf = Vec::new();
    rec.encode(&mut buf);
    truncated(buf, *mangle)
}

fn record(scan: &ScanKind, raw: &RawRow) -> Vec<u8> {
    match *scan {
        ScanKind::AggRecs { block, keys, aggs } => agg_record(block, keys, aggs, raw),
        ref rows => row_record(rows.width(), raw),
    }
}

/// An even draw reads rows of width 1–3; an odd one reads block `block`'s
/// aggregates, 0–2 keys and 0–2 values, at least one column in all.
fn scan_of(raw: u8, block: u8) -> ScanKind {
    if raw.is_multiple_of(2) {
        return ScanKind::Rows(1 + usize::from(raw / 2) % 3);
    }
    let keys = usize::from(raw / 2) % 3;
    ScanKind::AggRecs {
        block,
        keys,
        aggs: usize::from(raw / 8) % 3 + usize::from(keys == 0),
    }
}

fn build_cfg(
    stream: (u8, &[(u8, u8, u8)]),
    smalls: &[RawSmall],
    output_cols: &[u8],
    eq_checks: &[(u8, u8)],
) -> MapJoinCfg {
    let stream_scan = scan_of(stream.0, 0);
    let stream_width = stream_scan.width();
    let mut acc_width = stream_width;
    let mut small_cfgs = Vec::new();
    for (i, (scan, key_draw, probe_col, optional, scan_preds, _)) in smalls.iter().enumerate() {
        let scan = scan_of(*scan, i as u8 + 1);
        let width = scan.width();
        let key = (
            usize::from(key_draw / 4) % width,
            usize::from(*probe_col) % acc_width,
        );
        small_cfgs.push(MapJoinSmall {
            dataset: format!("small{i}"),
            key: (key_draw % 4 != 0).then_some(key),
            scan,
            optional: *optional,
            scan_preds: scan_preds.iter().map(|&p| pred(p, width)).collect(),
        });
        acc_width += width;
    }
    MapJoinCfg {
        stream_preds: stream.1.iter().map(|&p| pred(p, stream_width)).collect(),
        stream: stream_scan,
        smalls: small_cfgs,
        output_cols: output_cols
            .iter()
            .map(|&c| usize::from(c) % acc_width)
            .collect(),
        eq_checks: eq_checks
            .iter()
            .map(|&(a, b)| (usize::from(a) % acc_width, usize::from(b) % acc_width))
            .collect(),
        dict: five_terms(),
    }
}

fn put(dfs: &SimDfs, name: &str, records: &[Vec<u8>]) {
    let mut w = DatasetWriter::new(64);
    for r in records {
        w.push(r);
    }
    dfs.put(name, w.finish());
}

fn run(task: &mut dyn MapTask, stream: &[Vec<u8>]) -> (Vec<Vec<u8>>, u64) {
    let mut out = MapOutput::default();
    for rec in stream {
        task.map(InputSrc { dataset: 0 }, rec, &mut out);
    }
    task.cleanup(&mut out);
    (
        out.records.iter().map(<[u8]>::to_vec).collect(),
        out.corrupt_records,
    )
}

/// Both joins over the same broadcast datasets and stream records.
fn both(cfg: MapJoinCfg, dfs: &SimDfs, stream: &[Vec<u8>]) -> [(Vec<Vec<u8>>, u64); 2] {
    let cfg = Arc::new(cfg);
    let want = run(&mut ReferenceMapJoin::load(cfg.clone(), dfs), stream);
    let got = run(&mut *MapJoinFactory::new(cfg).create(dfs), stream);
    [got, want]
}

fn raw_rows(max: usize) -> impl Strategy<Value = Vec<RawRow>> {
    proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 0..4), any::<u8>()),
        0..max,
    )
}

fn raw_preds() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..2)
}

proptest! {
    #[test]
    fn flat_table_matches_owned_reference(
        stream_scan in any::<u8>(),
        stream_preds in raw_preds(),
        stream_rows in raw_rows(16),
        smalls in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>(), raw_preds(), raw_rows(48)),
            1..4),
        output_cols in proptest::collection::vec(any::<u8>(), 0..6),
        eq_checks in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..3),
    ) {
        let cfg = build_cfg(
            (stream_scan, &stream_preds),
            &smalls,
            &output_cols,
            &eq_checks,
        );
        let dfs = SimDfs::new();
        for (small, raw) in cfg.smalls.iter().zip(&smalls) {
            let recs: Vec<Vec<u8>> =
                raw.5.iter().map(|r| record(&small.scan, r)).collect();
            put(&dfs, &small.dataset, &recs);
        }
        let stream: Vec<Vec<u8>> = stream_rows
            .iter()
            .map(|r| record(&cfg.stream, r))
            .collect();
        let [got, want] = both(cfg, &dfs, &stream);
        prop_assert_eq!(got, want);
    }
}

fn small(dataset: &str, width: usize, key_col: usize, optional: bool) -> MapJoinSmall {
    MapJoinSmall {
        dataset: dataset.into(),
        scan: ScanKind::Rows(width),
        key: Some((key_col, 0)),
        optional,
        scan_preds: Vec::new(),
    }
}

fn cfg_over(smalls: Vec<MapJoinSmall>, output_cols: Vec<usize>) -> MapJoinCfg {
    MapJoinCfg {
        stream: ScanKind::Rows(2),
        stream_preds: Vec::new(),
        smalls,
        output_cols,
        eq_checks: Vec::new(),
        dict: Arc::default(),
    }
}

fn ids(row: &[u64]) -> Vec<u8> {
    row_bytes(&row.iter().map(|&i| RVal::Id(i)).collect::<Vec<_>>())
}

/// Rows of one key come out in the order they arrived in the broadcast
/// dataset, however the other keys interleave with them — over a side long
/// enough that a sort which is not stable would reorder it.
#[test]
fn duplicate_keys_probe_in_arrival_order() {
    let dfs = SimDfs::new();
    let side: Vec<Vec<u8>> = (0..300).map(|i| ids(&[5 + i % 3, i])).collect();
    put(&dfs, "s", &side);
    let stream = [ids(&[7, 0]), ids(&[5, 0]), ids(&[4, 0])];
    let cfg = cfg_over(vec![small("s", 2, 0, false)], vec![0, 3]);
    let [got, want] = both(cfg, &dfs, &stream);
    assert_eq!(got, want);
    let arrival = |key: u64| {
        (0..300)
            .filter(move |i| 5 + i % 3 == key)
            .map(move |i| ids(&[key, i]))
    };
    assert_eq!(got, (arrival(7).chain(arrival(5)).collect(), 0));
}

/// A `Rows(2)` record that decodes to one cell is malformed on either side:
/// counted on the stream, dropped from the broadcast build — never an
/// out-of-row read of the key, probe or output column. A `Null` or `Num`
/// key cell is well-formed and simply matches nothing.
#[test]
fn too_narrow_rows_are_quarantined_on_both_sides() {
    let dfs = SimDfs::new();
    put(
        &dfs,
        "s",
        &[
            ids(&[9]),
            row_bytes(&[RVal::Id(8), RVal::Null]),
            row_bytes(&[RVal::Id(8), RVal::Num(1.0)]),
            ids(&[8, 1]),
        ],
    );
    let stream = [ids(&[1]), ids(&[1, 2]), ids(&[2, 3]), Vec::new()];
    // Broadcast key is column 1; the probe column is the stream's column 0.
    let cfg = cfg_over(vec![small("s", 2, 1, true)], vec![1, 2]);
    let [got, want] = both(cfg, &dfs, &stream);
    assert_eq!(got, want);
    let rows = vec![
        row_bytes(&[RVal::Id(2), RVal::Id(8)]),
        row_bytes(&[RVal::Id(3), RVal::Null]),
    ];
    assert_eq!(got, (rows, 2));
}
