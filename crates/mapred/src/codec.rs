//! Varint-based binary record encoding.
//!
//! The sanctioned dependency list contains no serde *format* crate, so the
//! workspace uses this small hand-rolled codec: LEB128 varints for integers,
//! length-prefixed byte strings, and length-prefixed records inside blocks.
//! Shuffle data and materialized intermediates are genuinely serialized
//! through this module, which keeps the simulator's byte counts honest.
//!
//! The shuffle's emit arena, [`KvBuffer`], keeps pairs in emit order: a map
//! task's output and each of its per-partition spills alike. Nothing here
//! orders keys — the reduce-side merge does ([`crate::merge`]).

use crate::radix;

/// Append a LEB128 varint.
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing the slice. Returns `None` on truncation.
#[inline]
pub fn read_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Append an `f64` as fixed 8 bytes (little endian).
#[inline]
pub fn write_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Read an `f64`.
#[inline]
pub fn read_f64(buf: &mut &[u8]) -> Option<f64> {
    if buf.len() < 8 {
        return None;
    }
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(head);
    Some(f64::from_bits(u64::from_le_bytes(bytes)))
}

/// Append a length-prefixed byte string.
#[inline]
pub fn write_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    write_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

/// Read a length-prefixed byte string.
#[inline]
pub fn read_bytes<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = read_varint(buf)? as usize;
    if buf.len() < len {
        return None;
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Some(head)
}

/// Append a length-prefixed list of u64s.
pub fn write_u64_list(buf: &mut Vec<u8>, xs: &[u64]) {
    write_varint(buf, xs.len() as u64);
    for &x in xs {
        write_varint(buf, x);
    }
}

/// Read a length-prefixed list of u64s.
pub fn read_u64_list(buf: &mut &[u8]) -> Option<Vec<u64>> {
    let n = read_varint(buf)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(read_varint(buf)?);
    }
    Some(out)
}

/// A builder for a block of length-prefixed records.
#[derive(Default, Clone)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    records: usize,
}

impl BlockBuilder {
    /// New empty block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record.
    pub fn push(&mut self, record: &[u8]) {
        write_bytes(&mut self.buf, record);
        self.records += 1;
    }

    /// Append every record of `other`: framed bytes concatenate as they are.
    pub fn append(&mut self, other: &BlockBuilder) {
        self.buf.extend_from_slice(&other.buf);
        self.records += other.records;
    }

    /// Current encoded size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of records.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Finish, returning the raw block bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// One key/value pair borrowed from a [`KvBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvRef<'a> {
    /// The key bytes.
    pub key: &'a [u8],
    /// The value bytes.
    pub value: &'a [u8],
}

/// Offset-table entry of a [`KvBuffer`]: where one pair's payload lives.
#[derive(Debug, Clone, Copy)]
struct KvEnt {
    /// Byte offset of the key in the arena (the value follows it).
    off: u64,
    /// Key length in bytes.
    klen: u32,
    /// Value length in bytes.
    vlen: u32,
}

/// An arena-backed key/value buffer: every pair's payload lives in one
/// contiguous `data` arena (`key` immediately followed by `value`), located
/// through a compact offset table. This replaces per-record
/// `(Vec<u8>, Vec<u8>)` heap pairs on the shuffle path — emitting a pair is
/// two `extend_from_slice` calls into an amortized arena. Pairs stay in emit
/// order; the reduce-side merge orders 16-byte sort entries over them, never
/// the payload.
#[derive(Default, Clone)]
pub struct KvBuffer {
    data: Vec<u8>,
    ents: Vec<KvEnt>,
    /// The length of the prefix every key shares, when the writer measured
    /// it ([`KvBuffer::record_shared_prefix`]); every later write clears it.
    shared: Option<usize>,
}

impl KvBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New buffer with pre-reserved capacity.
    pub fn with_capacity(records: usize, payload_bytes: usize) -> Self {
        KvBuffer {
            data: Vec::with_capacity(payload_bytes),
            ents: Vec::with_capacity(records),
            shared: None,
        }
    }

    /// Append one pair (copies both slices into the arena).
    #[inline]
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let off = self.data.len() as u64;
        self.data.extend_from_slice(key);
        self.data.extend_from_slice(value);
        self.ents.push(KvEnt {
            off,
            klen: key.len() as u32,
            vlen: value.len() as u32,
        });
        self.shared = None;
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.ents.len()
    }

    /// True if no pairs have been pushed.
    pub fn is_empty(&self) -> bool {
        self.ents.is_empty()
    }

    /// Total payload bytes (sum of key + value lengths, no framing) — the
    /// quantity the shuffle byte counters are defined over.
    pub fn payload_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Key bytes of pair `i`.
    #[inline]
    pub fn key(&self, i: usize) -> &[u8] {
        let e = self.ents[i];
        &self.data[e.off as usize..e.off as usize + e.klen as usize]
    }

    /// Value bytes of pair `i`.
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        let e = self.ents[i];
        let start = e.off as usize + e.klen as usize;
        &self.data[start..start + e.vlen as usize]
    }

    /// Iterate pairs in emit order.
    pub fn iter(&self) -> impl Iterator<Item = KvRef<'_>> {
        self.ents.iter().map(|e| {
            let (key, rest) = self.data[e.off as usize..].split_at(e.klen as usize);
            KvRef { key, value: &rest[..e.vlen as usize] }
        })
    }

    /// Flip one bit inside pair `i`'s key (`in_value == false`) or value
    /// payload — the fault injector's spill-corruption primitive (see
    /// `integrity::corrupt_kv`). `bit` is an offset into the chosen span;
    /// callers guarantee the span is non-empty.
    pub fn flip_pair_bit(&mut self, i: usize, in_value: bool, bit: usize) {
        let e = self.ents[i];
        let start = if in_value {
            e.off as usize + e.klen as usize
        } else {
            e.off as usize
        };
        let span = if in_value { e.vlen } else { e.klen } as usize;
        debug_assert!(span > 0, "flip target span must be non-empty");
        self.data[start + (bit % (span * 8)) / 8] ^= 1 << (bit % 8);
        self.shared = None;
    }

    /// Length of the prefix every key shares: the recorded value, else one
    /// pass over the keys.
    pub(crate) fn shared_prefix(&self) -> usize {
        self.shared.unwrap_or_else(|| radix::shared_prefix(self.iter().map(|kv| kv.key)))
    }

    /// Record `n` as the length of the prefix every key shares, measured by
    /// a writer that read every key anyway (`engine::spill`).
    pub(crate) fn record_shared_prefix(&mut self, n: usize) {
        debug_assert_eq!(n, radix::shared_prefix(self.iter().map(|kv| kv.key)));
        self.shared = Some(n);
    }
}

/// An arena-backed record list: the direct-output twin of [`KvBuffer`],
/// replacing `Vec<Vec<u8>>` on map-only and reduce output paths.
#[derive(Default, Clone)]
pub struct RecBuffer {
    data: Vec<u8>,
    /// End offset of each record; record `i` spans `ends[i-1]..ends[i]`.
    ends: Vec<u64>,
}

impl RecBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one record (copies the slice into the arena).
    #[inline]
    pub fn push(&mut self, record: &[u8]) {
        self.data.extend_from_slice(record);
        self.ends.push(self.data.len() as u64);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if no records have been pushed.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total payload bytes (no framing).
    pub fn payload_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Record `i`.
    #[inline]
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.data[start..self.ends[i] as usize]
    }

    /// Iterate records in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Iterate the records of a block produced by [`BlockBuilder`].
pub struct RecordIter<'a> {
    buf: &'a [u8],
}

impl<'a> RecordIter<'a> {
    /// Iterate over `block`.
    pub fn new(block: &'a [u8]) -> Self {
        RecordIter { buf: block }
    }
}

impl<'a> Iterator for RecordIter<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.buf.is_empty() {
            return None;
        }
        read_bytes(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16383, 16384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(read_varint(&mut slice), Some(v));
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_truncation_detected() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 40);
        buf.pop();
        let mut slice = buf.as_slice();
        assert_eq!(read_varint(&mut slice), None);
    }

    #[test]
    fn f64_roundtrip() {
        for v in [0.0, -1.5, 1e300, f64::MIN_POSITIVE] {
            let mut buf = Vec::new();
            write_f64(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_f64(&mut s), Some(v));
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"hello");
        write_bytes(&mut buf, b"");
        write_bytes(&mut buf, b"world");
        let mut s = buf.as_slice();
        assert_eq!(read_bytes(&mut s), Some(&b"hello"[..]));
        assert_eq!(read_bytes(&mut s), Some(&b""[..]));
        assert_eq!(read_bytes(&mut s), Some(&b"world"[..]));
        assert_eq!(read_bytes(&mut s), None);
    }

    #[test]
    fn u64_list_roundtrip() {
        let xs = vec![5u64, 0, 999999, 42];
        let mut buf = Vec::new();
        write_u64_list(&mut buf, &xs);
        let mut s = buf.as_slice();
        assert_eq!(read_u64_list(&mut s), Some(xs));
    }

    #[test]
    fn block_roundtrip() {
        let mut b = BlockBuilder::new();
        b.push(b"one");
        b.push(b"two");
        b.push(b"");
        assert_eq!(b.records(), 3);
        let block = b.finish();
        let recs: Vec<&[u8]> = RecordIter::new(&block).collect();
        assert_eq!(recs, vec![&b"one"[..], &b"two"[..], &b""[..]]);
    }

    #[test]
    fn empty_block_iterates_nothing() {
        assert_eq!(RecordIter::new(&[]).count(), 0);
    }

    #[test]
    fn kvbuffer_push_and_read_back() {
        let mut b = KvBuffer::new();
        b.push(b"alpha", b"1");
        b.push(b"", b"empty-key");
        b.push(b"beta", b"");
        assert_eq!(b.len(), 3);
        assert_eq!(b.payload_bytes(), (5 + 1 + 9 + 4) as u64);
        let got: Vec<KvRef<'_>> = b.iter().collect();
        assert_eq!(
            got,
            [
                KvRef { key: b"alpha", value: b"1" },
                KvRef { key: b"", value: b"empty-key" },
                KvRef { key: b"beta", value: b"" },
            ]
        );
        assert_eq!((b.key(1), b.value(1)), (&b""[..], &b"empty-key"[..]));
    }

    #[test]
    fn block_append_concatenates_framed_records() {
        let mut a = BlockBuilder::new();
        a.push(b"one");
        let mut b = BlockBuilder::new();
        b.push(b"");
        b.push(b"three");
        a.append(&b);
        assert_eq!(a.records(), 3);
        let block = a.finish();
        let got: Vec<&[u8]> = RecordIter::new(&block).collect();
        assert_eq!(got, vec![&b"one"[..], &b""[..], &b"three"[..]]);
    }

    #[test]
    fn recbuffer_roundtrip() {
        let mut r = RecBuffer::new();
        r.push(b"one");
        r.push(b"");
        r.push(b"three");
        assert_eq!(r.len(), 3);
        assert_eq!(r.payload_bytes(), 8);
        let got: Vec<&[u8]> = r.iter().collect();
        assert_eq!(got, vec![&b"one"[..], &b""[..], &b"three"[..]]);
    }
}
