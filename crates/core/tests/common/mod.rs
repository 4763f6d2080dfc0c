//! The owned-row join operators as they were before their flat rewrites,
//! kept as reference oracles for the identity suites and allocation
//! baselines for `alloc_budget.rs`.
//!
//! [`ReferenceJoinReduce`] is the reduce-side join reducer before the
//! scratch-arena rewrite (`join_reduce_identity.rs`): it decodes every value
//! into an owned `Vec<RVal>`, rebuilds its buckets and selection per key,
//! collects each merged row and encodes it into a fresh buffer. One
//! deliberate deviation from the old code: a value whose input tag names no
//! input goes through `skip_corrupt` (the old reducer dropped it without
//! counting). Rows narrower than a column the join reads made the old code
//! panic on an index; the tests never feed the reference such a row.
//!
//! [`ReferenceMapJoin`] is the broadcast join before the flat broadcast
//! table (`map_join_identity.rs`): every small side is a
//! `FxHashMap<Option<u64>, Vec<Vec<RVal>>>`, one heap row per broadcast row,
//! a keyless side filing every row under `None`. Its one deviation: a row
//! record narrower than its scan's width is malformed (counted on the
//! stream side, dropped on the build side), where the old code indexed past
//! the row. It reads `Rows` and block-aggregate (`AggRecs`) inputs; an
//! aggregate of another block yields no row, and one of the block with the
//! wrong key or value count is malformed.

#![allow(dead_code)] // each test binary uses its own part

use rapida_core::relops::{IdPred, JoinCycleCfg, MapJoinCfg, PredOnCol, ScanKind};
use rapida_core::rows::{decode_row, encode_row, row_bytes, RVal};
use rapida_mapred::codec::{read_varint, write_varint};
use rapida_mapred::{InputSrc, MapOutput, MapTask, ReduceOutput, ReduceTask, SimDfs};
use rapida_ntga::AggRec;
use rapida_rdf::{Dictionary, FxHashMap, Term, TermId};
use std::sync::Arc;

/// The identity suites' dictionary: ids 0, 1 and 2 are the numbers 0, 10
/// and 20, ids 3 and 4 the literals `t3` and `t4`.
pub fn five_terms() -> Arc<Dictionary> {
    let mut dict = Dictionary::new();
    for i in 0..5 {
        let term = if i < 3 { Term::integer(10 * i) } else { Term::literal(format!("t{i}")) };
        assert_eq!(dict.intern(&term), TermId(i as u64), "one term per id");
    }
    Arc::new(dict)
}

/// How many ids of `dict` `pred` admits, and how many it rejects.
pub fn outcomes(pred: &IdPred, dict: &Dictionary) -> (usize, usize) {
    let ids = 0..dict.len() as u64;
    let admitted = ids.clone().filter(|&id| pred.eval(id, dict)).count();
    (admitted, ids.count() - admitted)
}

/// One shuffled value of a join cycle, as `JoinMapTask` emits it:
/// `varint(input tag) ++ row`.
pub fn value(tag: u64, row: &[RVal]) -> Vec<u8> {
    let mut v = Vec::new();
    write_varint(&mut v, tag);
    encode_row(row, &mut v);
    v
}

pub struct ReferenceJoinReduce {
    pub cfg: Arc<JoinCycleCfg>,
}

fn eval_pred(p: &PredOnCol, row: &[RVal], dict: &Dictionary) -> bool {
    match row[p.col] {
        RVal::Id(id) => p.pred.eval(id, dict),
        RVal::Num(_) | RVal::Null => false,
    }
}

impl ReduceTask for ReferenceJoinReduce {
    fn reduce(&mut self, _key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let n = self.cfg.inputs.len();
        let mut buckets: Vec<Vec<Vec<RVal>>> = vec![Vec::new(); n];
        for v in values {
            let mut rec = *v;
            let Some(tag) = read_varint(&mut rec) else {
                out.skip_corrupt();
                continue;
            };
            if let Some(row) = decode_row(rec) {
                match buckets.get_mut(tag as usize) {
                    Some(b) => b.push(row),
                    None => out.skip_corrupt(),
                }
            } else {
                out.skip_corrupt();
            }
        }
        // Required inputs must all be present for this key.
        for (i, input) in self.cfg.inputs.iter().enumerate() {
            if !input.optional && buckets[i].is_empty() {
                return;
            }
        }
        // Cartesian across buckets; empty optional buckets pad with None.
        let mut selection: Vec<Option<usize>> = vec![None; n];
        self.combine(0, &mut selection, &buckets, out);
    }
}

impl ReferenceJoinReduce {
    fn combine(
        &self,
        i: usize,
        selection: &mut Vec<Option<usize>>,
        buckets: &[Vec<Vec<RVal>>],
        out: &mut ReduceOutput,
    ) {
        if i == buckets.len() {
            self.emit(selection, buckets, out);
            return;
        }
        if buckets[i].is_empty() {
            selection[i] = None;
            self.combine(i + 1, selection, buckets, out);
        } else {
            for r in 0..buckets[i].len() {
                selection[i] = Some(r);
                self.combine(i + 1, selection, buckets, out);
            }
        }
    }

    fn emit(
        &self,
        selection: &[Option<usize>],
        buckets: &[Vec<Vec<RVal>>],
        out: &mut ReduceOutput,
    ) {
        let cell = |inp: usize, col: usize| -> RVal {
            match selection[inp] {
                Some(r) => buckets[inp][r][col],
                None => RVal::Null,
            }
        };
        for ((i1, c1), (i2, c2)) in &self.cfg.eq_checks {
            let a = cell(*i1, *c1);
            let b = cell(*i2, *c2);
            if let (RVal::Id(x), RVal::Id(y)) = (a, b) {
                if x != y {
                    return;
                }
            }
        }
        let row: Vec<RVal> = self
            .cfg
            .output_cols
            .iter()
            .map(|(i, c)| cell(*i, *c))
            .collect();
        out.write(&row_bytes(&row));
    }
}

/// Decode one record of a `Rows(w)` or `AggRecs` input: `None` =
/// malformed, `Some(None)` = an aggregate of another block (no row).
fn scan_row(scan: &ScanKind, rec: &[u8]) -> Option<Option<Vec<RVal>>> {
    match *scan {
        ScanKind::Rows(w) => decode_row(rec).filter(|row| row.len() >= w).map(Some),
        ScanKind::AggRecs { block, keys, aggs } => {
            let r = AggRec::decode(rec)?;
            if r.id != block {
                return Some(None);
            }
            if r.key.len() != keys || r.values.len() != aggs {
                return None;
            }
            let values = r.values.iter().map(|v| match v {
                Some(x) => RVal::Num(*x),
                None => RVal::Null,
            });
            let keys = r.key.iter().map(|&k| RVal::Id(k));
            Some(Some(keys.chain(values).collect()))
        }
        _ => panic!("the reference map-join reads row and aggregate datasets only"),
    }
}

pub struct ReferenceMapJoin {
    cfg: Arc<MapJoinCfg>,
    tables: Vec<FxHashMap<Option<u64>, Vec<Vec<RVal>>>>,
}

impl ReferenceMapJoin {
    /// Load every broadcast side into an owned map, one `Vec` per row.
    pub fn load(cfg: Arc<MapJoinCfg>, dfs: &SimDfs) -> Self {
        let mut tables = Vec::with_capacity(cfg.smalls.len());
        for small in &cfg.smalls {
            let mut map: FxHashMap<Option<u64>, Vec<Vec<RVal>>> = FxHashMap::default();
            if let Some(ds) = dfs.peek(&small.dataset) {
                let scan = |r| scan_row(&small.scan, r).flatten();
                for row in ds.iter_records().filter_map(scan) {
                    let keep = |p: &PredOnCol| eval_pred(p, &row, &cfg.dict);
                    if !small.scan_preds.iter().all(keep) {
                        continue;
                    }
                    match small.key {
                        None => map.entry(None).or_default().push(row),
                        Some((col, _)) => {
                            if let RVal::Id(k) = row[col] {
                                map.entry(Some(k)).or_default().push(row);
                            }
                        }
                    }
                }
            }
            tables.push(map);
        }
        ReferenceMapJoin { cfg, tables }
    }

    fn probe(&self, i: usize, acc: &mut Vec<RVal>, out: &mut MapOutput) {
        let cfg = &self.cfg;
        if i == cfg.smalls.len() {
            for (a, b) in &cfg.eq_checks {
                if let (RVal::Id(x), RVal::Id(y)) = (acc[*a], acc[*b]) {
                    if x != y {
                        return;
                    }
                }
            }
            let row: Vec<RVal> = cfg.output_cols.iter().map(|&c| acc[c]).collect();
            out.write(&row_bytes(&row));
            return;
        }
        let small = &cfg.smalls[i];
        let rows = match small.key {
            None => self.tables[i].get(&None),
            Some((_, probe)) => acc[probe].id().and_then(|k| self.tables[i].get(&Some(k))),
        };
        match rows {
            Some(rows) => {
                for r in rows {
                    let base = acc.len();
                    acc.extend_from_slice(r);
                    self.probe(i + 1, acc, out);
                    acc.truncate(base);
                }
            }
            None if small.optional => {
                let base = acc.len();
                acc.extend(std::iter::repeat_n(RVal::Null, small.scan.width()));
                self.probe(i + 1, acc, out);
                acc.truncate(base);
            }
            None => {}
        }
    }
}

impl MapTask for ReferenceMapJoin {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let Some(row) = scan_row(&self.cfg.stream, record) else {
            out.skip_corrupt();
            return;
        };
        let Some(row) = row else {
            return;
        };
        let keep = |p: &PredOnCol| eval_pred(p, &row, &self.cfg.dict);
        if !self.cfg.stream_preds.iter().all(keep) {
            return;
        }
        let mut acc = row.clone();
        self.probe(0, &mut acc, out);
    }
}
