//! Binding-row representation and codec for the relational (Hive-style)
//! engines.

use rapida_mapred::codec::{read_f64, read_varint, write_f64, write_varint};

/// One row cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RVal {
    /// Unbound (outer-join padding).
    Null,
    /// A dictionary-encoded term.
    Id(u64),
    /// A computed numeric value.
    Num(f64),
}

impl RVal {
    /// The id, if bound to a term.
    pub fn id(&self) -> Option<u64> {
        match self {
            RVal::Id(i) => Some(*i),
            _ => None,
        }
    }

    /// Is this cell unbound?
    pub fn is_null(&self) -> bool {
        matches!(self, RVal::Null)
    }
}

/// Encode a row as a DFS record.
pub fn encode_row(row: &[RVal], out: &mut Vec<u8>) {
    write_varint(out, row.len() as u64);
    for v in row {
        encode_cell(*v, out);
    }
}

/// Encode one row cell (the per-cell body of [`encode_row`]). Exposed so
/// operators can project + encode without materializing the output row.
pub fn encode_cell(v: RVal, out: &mut Vec<u8>) {
    match v {
        RVal::Null => out.push(0),
        RVal::Id(i) => {
            out.push(1);
            write_varint(out, i);
        }
        RVal::Num(n) => {
            out.push(2);
            write_f64(out, n);
        }
    }
}

/// Decode a row record.
pub fn decode_row(rec: &[u8]) -> Option<Vec<RVal>> {
    let mut out = Vec::new();
    decode_row_into(rec, &mut out).then_some(out)
}

/// Decode a row record into a reused buffer (cleared first). Returns
/// `false` on malformed input, leaving `out` in an unspecified cleared
/// state. The scratch-row form of [`decode_row`] for per-record hot paths.
pub fn decode_row_into(rec: &[u8], out: &mut Vec<RVal>) -> bool {
    out.clear();
    decode_row_append(rec, out).is_some()
}

/// Decode a row record onto the end of a cell arena, returning the row's
/// width. On malformed input `out` is truncated back to its length on entry
/// and `None` is returned — the arena never holds a half-decoded row.
pub fn decode_row_append(mut rec: &[u8], out: &mut Vec<RVal>) -> Option<usize> {
    let start = out.len();
    let cells = (|| {
        let n = read_varint(&mut rec)?;
        out.reserve((n as usize).min(64));
        for _ in 0..n {
            let (tag, rest) = rec.split_first()?;
            rec = rest;
            out.push(match tag {
                0 => RVal::Null,
                1 => RVal::Id(read_varint(&mut rec)?),
                2 => RVal::Num(read_f64(&mut rec)?),
                _ => return None,
            });
        }
        Some(n as usize)
    })();
    if cells.is_none() {
        out.truncate(start);
    }
    cells
}

/// Encode a row into a fresh buffer.
pub fn row_bytes(row: &[RVal]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(row.len() * 4 + 2);
    encode_row(row, &mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_row() {
        let row = vec![RVal::Id(42), RVal::Null, RVal::Num(1.25), RVal::Id(0)];
        assert_eq!(decode_row(&row_bytes(&row)), Some(row));
    }

    #[test]
    fn roundtrip_empty_row() {
        let row: Vec<RVal> = vec![];
        assert_eq!(decode_row(&row_bytes(&row)), Some(row));
    }

    #[test]
    fn truncated_row_fails() {
        let mut b = row_bytes(&[RVal::Id(9000)]);
        b.pop();
        assert_eq!(decode_row(&b), None);
    }
}
