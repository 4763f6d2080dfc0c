//! The reduce-side join reducer as it was before the scratch-arena rewrite,
//! kept as the reference oracle for `join_reduce_identity.rs` and the
//! allocation baseline for `alloc_budget.rs`: it decodes every value into an
//! owned `Vec<RVal>`, rebuilds its buckets and selection per key, collects
//! each merged row and encodes it into a fresh buffer.
//!
//! One deliberate deviation from the old code: a value whose input tag names
//! no input goes through `skip_corrupt` (the old reducer dropped it without
//! counting). Rows narrower than a column the join reads made the old code
//! panic on an index; the tests never feed the reference such a row.

use rapida_core::relops::{JoinCycleCfg, PredOnCol};
use rapida_core::rows::{decode_row, encode_row, row_bytes, RVal};
use rapida_mapred::codec::{read_varint, write_varint};
use rapida_mapred::{ReduceOutput, ReduceTask};
use std::sync::Arc;

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

fn eval_pred(p: &PredOnCol, row: &[RVal], cfg: &JoinCycleCfg) -> bool {
    match row[p.col] {
        RVal::Id(id) => p.pred.eval(id, &cfg.numeric, &cfg.lexical),
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
        if !self
            .cfg
            .post_preds
            .iter()
            .all(|p| eval_pred(p, &row, &self.cfg))
        {
            return;
        }
        out.write(&row_bytes(&row));
    }
}
