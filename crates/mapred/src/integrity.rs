//! Data-integrity primitives: in-tree checksums over DFS blocks (word-wise,
//! [`block_checksum`]) and shuffle spill runs (FNV-1a, [`kv_checksum`]),
//! plus the deterministic bit-flip corruption the fault plan injects *on
//! read* (storage itself is never mutated — the same block read through a
//! clean replica is always pristine).
//!
//! ## Why flips land inside record payloads
//!
//! Corruption helpers walk the varint record framing and flip a bit inside
//! one record's *payload*, never a length prefix. A real bit flip could of
//! course hit framing too, but the checksum layer detects either case
//! identically (any flipped bit changes the sum), while the
//! payload-only discipline keeps the *checksums-disabled* counterfactual
//! well-defined: downstream operators see records that frame correctly but
//! decode to different (or undecodable) values, so the divergence test can
//! demonstrate silent wrong answers rather than tripping over torn framing.
//!
//! All corruption is a pure function of a caller-provided hash — no RNG, no
//! global state — so every chaos run replays bit-for-bit at any worker
//! count.

use crate::bytes::Bytes;
use crate::codec::{read_varint, KvBuffer};

/// FNV-1a over a byte string — the shuffle partitioner hash, and the
/// construction [`kv_checksum`] folds spill runs with. 64 bits are plenty
/// for fault *detection* in a simulator: a single flipped bit always changes
/// the sum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Checksum of one DFS block (its full framed byte stream): an
/// xor-multiply-rotate fold over little-endian 8-byte words — FNV-1a's
/// construction at one step per word instead of one per byte — with the
/// zero-padded byte tail as the last word and the length mixed into the
/// seed (so padding cannot alias a real trailing zero byte).
///
/// Every step `h -> ((h ^ w) * M).rotl(R)` is a bijection of `h` for fixed
/// `w` and of `w` for fixed `h` (xor, multiplication by an odd constant and
/// rotation all are), so a block that differs from another of the same
/// length in exactly one word — any single flipped bit — always gets a
/// different sum. [`fnv1a`] itself is untouched: the shuffle partitioner
/// hashes keys with it, and that fixes every job's output layout.
pub fn block_checksum(block: &[u8]) -> u64 {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(M).rotate_left(29);
    let mut words = block.chunks_exact(8);
    let mut h = step(0xcbf2_9ce4_8422_2325, block.len() as u64);
    for w in &mut words {
        let w: [u8; 8] = w.try_into().expect("chunks_exact(8) yields 8-byte chunks");
        h = step(h, u64::from_le_bytes(w));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

/// Checksum of one shuffle spill run: the payload arena plus each pair's
/// key/value lengths, so both payload flips and (hypothetical) offset-table
/// tampering change the sum.
pub fn kv_checksum(kvs: &KvBuffer) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for i in 0..kvs.len() {
        for &b in (kvs.key(i).len() as u32).to_le_bytes().iter() {
            mix(b);
        }
        for &b in (kvs.value(i).len() as u32).to_le_bytes().iter() {
            mix(b);
        }
        for &b in kvs.key(i) {
            mix(b);
        }
        for &b in kvs.value(i) {
            mix(b);
        }
    }
    h
}

/// Byte spans `(offset, len)` of every non-empty record payload in a framed
/// block. Returns an empty vec when the block holds no flippable byte.
fn payload_spans(block: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut buf = block;
    while !buf.is_empty() {
        let Some(len) = read_varint(&mut buf) else {
            break;
        };
        let len = len as usize;
        if len > buf.len() {
            break;
        }
        let off = block.len() - buf.len();
        if len > 0 {
            spans.push((off, len));
        }
        buf = &buf[len..];
    }
    spans
}

/// Produce a corrupted copy of `block` with exactly one bit flipped inside a
/// record payload, both chosen by `h`. Returns `None` when the block has no
/// non-empty record (nothing to flip without touching framing) — callers
/// treat that as "the flip landed nowhere" and read the block clean.
pub fn corrupt_block(block: &[u8], h: u64) -> Option<Bytes> {
    let spans = payload_spans(block);
    if spans.is_empty() {
        return None;
    }
    let (off, len) = spans[(h % spans.len() as u64) as usize];
    let bit = ((h >> 17) % (len as u64 * 8)) as usize;
    let mut v = block.to_vec();
    v[off + bit / 8] ^= 1 << (bit % 8);
    Some(Bytes::from(v))
}

/// Flip one payload bit of one pair in a spill run, both chosen by `h`. The
/// flip prefers the pair's *value* bytes (keys order the merge; a value flip
/// reaches the reducer as silently wrong data, the failure mode checksums
/// exist to catch). Returns `false` when every pair is zero-length.
pub fn corrupt_kv(kvs: &mut KvBuffer, h: u64) -> bool {
    if kvs.is_empty() {
        return false;
    }
    let n = kvs.len();
    let start = (h % n as u64) as usize;
    for probe in 0..n {
        let i = (start + probe) % n;
        let (klen, vlen) = (kvs.key(i).len(), kvs.value(i).len());
        if klen + vlen == 0 {
            continue;
        }
        // Flip inside the value when it has bytes, else inside the key.
        let (in_value, span) = if vlen > 0 { (true, vlen) } else { (false, klen) };
        let bit = ((h >> 17) % (span as u64 * 8)) as usize;
        kvs.flip_pair_bit(i, in_value, bit);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(records: &[&[u8]]) -> Vec<u8> {
        let mut bb = crate::codec::BlockBuilder::new();
        for r in records {
            bb.push(r);
        }
        bb.finish()
    }

    #[test]
    fn checksum_detects_any_payload_flip() {
        let block = framed(&[b"hello", b"world", b""]);
        let clean = block_checksum(&block);
        for h in [0u64, 1, 99, u64::MAX, 0xdead_beef] {
            let bad = corrupt_block(&block, h).expect("non-empty records exist");
            assert_ne!(bad.as_ref(), &block[..], "flip must change bytes");
            assert_ne!(block_checksum(&bad), clean, "flip must change the sum");
        }
    }

    #[test]
    fn block_checksum_detects_every_single_bit_flip() {
        // Every length across the word/tail boundaries, every bit.
        for len in 0..=33usize {
            let block: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let clean = block_checksum(&block);
            for bit in 0..len * 8 {
                let mut bad = block.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(block_checksum(&bad), clean, "len {len} bit {bit}");
            }
            // The zero-padded tail must not alias a real trailing zero.
            let mut longer = block.clone();
            longer.push(0);
            assert_ne!(block_checksum(&longer), clean, "len {len} ++ [0]");
        }
    }

    #[test]
    fn corruption_preserves_framing() {
        let block = framed(&[b"alpha", b"beta", b"gamma"]);
        for h in [3u64, 7, 1 << 40] {
            let bad = corrupt_block(&block, h).unwrap();
            let recs: Vec<&[u8]> = crate::codec::RecordIter::new(&bad).collect();
            assert_eq!(recs.len(), 3, "record framing must survive the flip");
        }
    }

    #[test]
    fn empty_or_zero_length_blocks_are_unflippable() {
        assert!(corrupt_block(&[], 5).is_none());
        let block = framed(&[b"", b""]);
        assert!(corrupt_block(&block, 5).is_none());
    }

    #[test]
    fn corruption_is_deterministic() {
        let block = framed(&[b"abc", b"defg"]);
        assert_eq!(
            corrupt_block(&block, 42).unwrap().as_ref(),
            corrupt_block(&block, 42).unwrap().as_ref()
        );
    }

    #[test]
    fn kv_checksum_detects_value_flip() {
        let mut kvs = KvBuffer::new();
        kvs.push(b"key1", b"value1");
        kvs.push(b"key2", b"value2");
        let clean = kv_checksum(&kvs);
        assert!(corrupt_kv(&mut kvs, 9));
        assert_ne!(kv_checksum(&kvs), clean);
        // Keys untouched (the flip prefers values), so sort order held.
        assert_eq!(kvs.key(0), b"key1");
        assert_eq!(kvs.key(1), b"key2");
    }

    #[test]
    fn kv_with_no_payload_is_unflippable() {
        let mut empty = KvBuffer::new();
        assert!(!corrupt_kv(&mut empty, 1));
        let mut zero = KvBuffer::new();
        zero.push(b"", b"");
        assert!(!corrupt_kv(&mut zero, 1));
    }
}
