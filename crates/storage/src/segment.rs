//! Compressed columnar segments for vertical-partition tables — the ORC
//! stand-in.
//!
//! A segment holds a run of `(subject, object)` id pairs sorted by subject,
//! encoded as delta varints for the subject column and plain varints for the
//! object column, with a small header of light-weight statistics (row count,
//! object min/max, numeric object min/max) enabling ORC-style row-group
//! skipping. Compression is *real*: the bytes written are the bytes the
//! simulator's cost model sees, so the paper's "ORC initializes fewer
//! mappers" effect emerges naturally.

use rapida_mapred::codec::{read_f64, read_varint, write_f64, write_varint};

/// Per-segment statistics (ORC "light-weight index").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentStats {
    /// Number of rows in the segment.
    pub rows: u64,
    /// Minimum object id.
    pub o_min: u64,
    /// Maximum object id.
    pub o_max: u64,
    /// Numeric min/max over object literals, when every object is numeric.
    ///
    /// **`None` contract:** this field is `Some((lo, hi))` iff the segment is
    /// non-empty and *every* object resolves to a numeric value. A single
    /// non-numeric object — no matter where it sits in the row run — poisons
    /// the whole segment to `None`, and an empty segment is `None`. There is
    /// no partial range: consumers (zone-map pruning in the scan path) may
    /// treat `Some` as a sound bound over all rows, and `None` as
    /// "unknown, never skip". The poisoning is order-independent, so two
    /// segments holding the same multiset of rows encode the same header.
    pub numeric: Option<(f64, f64)>,
}

/// Encode a segment. `rows` must be sorted by subject id. `numeric_of`
/// resolves the numeric value of an object id (dictionary lookup) for the
/// stats header.
pub fn encode_segment(
    rows: &[(u64, u64)],
    numeric_of: impl Fn(u64) -> Option<f64>,
    out: &mut Vec<u8>,
) {
    debug_assert!(rows.windows(2).all(|w| w[0].0 <= w[1].0), "rows sorted by s");
    let o_min = rows.iter().map(|r| r.1).min().unwrap_or(0);
    let o_max = rows.iter().map(|r| r.1).max().unwrap_or(0);
    // Numeric zone map: `Some` only when every object is numeric (see the
    // `SegmentStats::numeric` contract). The fold short-circuits on the
    // first non-numeric object — nothing accumulated up to that point
    // survives, so a poisoned segment can never publish a stale partial
    // range. Starting from `None` also makes the empty segment fall out of
    // the same rule instead of needing an (INF, -INF) sentinel fixup.
    let mut numeric: Option<(f64, f64)> = None;
    for (_, o) in rows {
        let Some(v) = numeric_of(*o) else {
            numeric = None;
            break;
        };
        numeric = Some(match numeric {
            None => (v, v),
            Some((lo, hi)) => (lo.min(v), hi.max(v)),
        });
    }

    write_varint(out, rows.len() as u64);
    write_varint(out, o_min);
    write_varint(out, o_max);
    match numeric {
        Some((lo, hi)) => {
            out.push(1);
            write_f64(out, lo);
            write_f64(out, hi);
        }
        None => out.push(0),
    }
    // Subject column: delta varints.
    let mut prev = 0u64;
    for (s, _) in rows {
        write_varint(out, s - prev);
        prev = *s;
    }
    // Object column: plain varints.
    for (_, o) in rows {
        write_varint(out, *o);
    }
}

/// Decode just the stats header of a segment.
pub fn decode_stats(mut rec: &[u8]) -> Option<SegmentStats> {
    let rows = read_varint(&mut rec)?;
    let o_min = read_varint(&mut rec)?;
    let o_max = read_varint(&mut rec)?;
    let numeric = match rec.split_first()? {
        (1, rest) => {
            let mut rest = rest;
            let lo = read_f64(&mut rest)?;
            let hi = read_f64(&mut rest)?;
            Some((lo, hi))
        }
        _ => None,
    };
    Some(SegmentStats {
        rows,
        o_min,
        o_max,
        numeric,
    })
}

/// Decode a full segment into `(subject, object)` pairs.
pub fn decode_segment(mut rec: &[u8]) -> Option<Vec<(u64, u64)>> {
    let rows = read_varint(&mut rec)? as usize;
    let _o_min = read_varint(&mut rec)?;
    let _o_max = read_varint(&mut rec)?;
    let (flag, rest) = rec.split_first()?;
    rec = rest;
    if *flag == 1 {
        read_f64(&mut rec)?;
        read_f64(&mut rec)?;
    }
    let mut subjects = Vec::with_capacity(rows);
    let mut prev = 0u64;
    for _ in 0..rows {
        prev += read_varint(&mut rec)?;
        subjects.push(prev);
    }
    let mut out = Vec::with_capacity(rows);
    for s in subjects {
        out.push((s, read_varint(&mut rec)?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rows: &[(u64, u64)]) {
        let mut buf = Vec::new();
        encode_segment(rows, |_| None, &mut buf);
        assert_eq!(decode_segment(&buf).unwrap(), rows);
    }

    #[test]
    fn empty_segment() {
        roundtrip(&[]);
    }

    #[test]
    fn simple_roundtrip() {
        roundtrip(&[(1, 100), (1, 200), (5, 3), (900, 900)]);
    }

    #[test]
    fn stats_header() {
        let rows = [(1u64, 10u64), (2, 5), (3, 99)];
        let mut buf = Vec::new();
        encode_segment(&rows, |_| None, &mut buf);
        let st = decode_stats(&buf).unwrap();
        assert_eq!(st.rows, 3);
        assert_eq!(st.o_min, 5);
        assert_eq!(st.o_max, 99);
        assert_eq!(st.numeric, None);
    }

    #[test]
    fn numeric_stats_computed_when_all_numeric() {
        let rows = [(1u64, 10u64), (2, 11), (3, 12)];
        let mut buf = Vec::new();
        encode_segment(&rows, |o| Some(o as f64 * 2.0), &mut buf);
        let st = decode_stats(&buf).unwrap();
        assert_eq!(st.numeric, Some((20.0, 24.0)));
        // Full decode still works past the numeric header.
        assert_eq!(decode_segment(&buf).unwrap(), rows);
    }

    #[test]
    fn single_non_numeric_object_poisons_numeric_stats() {
        // Object id 2 is the lone non-numeric; wherever it sits in the run,
        // the segment's numeric zone map must be None — never a partial
        // range over the numeric prefix or suffix.
        let numeric_of = |o: u64| if o == 2 { None } else { Some(o as f64) };
        let poisoned_first: [(u64, u64); 3] = [(1, 2), (2, 10), (3, 20)];
        let poisoned_mid: [(u64, u64); 3] = [(1, 10), (2, 2), (3, 20)];
        let poisoned_last: [(u64, u64); 3] = [(1, 10), (2, 20), (3, 2)];
        for rows in [&poisoned_first, &poisoned_mid, &poisoned_last] {
            let mut buf = Vec::new();
            encode_segment(rows, numeric_of, &mut buf);
            let st = decode_stats(&buf).unwrap();
            assert_eq!(st.numeric, None, "poisoned segment {rows:?}");
            // Non-numeric headers stay intact.
            assert_eq!(st.rows, 3);
            assert_eq!(st.o_min, 2);
            assert_eq!(st.o_max, 20);
        }
    }

    #[test]
    fn numeric_poisoning_is_order_independent() {
        // Same multiset of objects, different subject-run layouts: the
        // numeric header bytes must agree (all Some with the same range, or
        // all None) regardless of where the poison lands.
        let numeric_of = |o: u64| if o.is_multiple_of(3) { None } else { Some(o as f64) };
        let a: [(u64, u64); 4] = [(1, 1), (2, 3), (3, 5), (4, 7)];
        let b: [(u64, u64); 4] = [(1, 7), (2, 5), (3, 1), (4, 3)];
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        encode_segment(&a, numeric_of, &mut ba);
        encode_segment(&b, numeric_of, &mut bb);
        assert_eq!(
            decode_stats(&ba).unwrap().numeric,
            decode_stats(&bb).unwrap().numeric
        );
        assert_eq!(decode_stats(&ba).unwrap().numeric, None);
    }

    #[test]
    fn empty_segment_has_no_numeric_stats() {
        let mut buf = Vec::new();
        encode_segment(&[], |o| Some(o as f64), &mut buf);
        let st = decode_stats(&buf).unwrap();
        assert_eq!(st.rows, 0);
        assert_eq!(st.numeric, None, "empty segment must not claim a range");
    }

    #[test]
    fn all_numeric_single_row_range_is_degenerate() {
        let mut buf = Vec::new();
        encode_segment(&[(7, 42)], |o| Some(o as f64), &mut buf);
        assert_eq!(decode_stats(&buf).unwrap().numeric, Some((42.0, 42.0)));
    }

    #[test]
    fn delta_encoding_compresses_sorted_subjects() {
        // Dense sorted subjects compress far better than random ones would
        // with fixed-width encoding (16 bytes/row).
        let rows: Vec<(u64, u64)> = (0..10_000u64).map(|i| (1_000_000 + i, i % 50)).collect();
        let mut buf = Vec::new();
        encode_segment(&rows, |_| None, &mut buf);
        assert!(
            buf.len() < rows.len() * 4,
            "expected < 4 bytes/row, got {} for {} rows",
            buf.len(),
            rows.len()
        );
    }
}
