//! Allocation budget of the shuffle's ordering.
//!
//! Installs [`rapida_testkit::alloc_gauge::CountingAlloc`] as this test
//! binary's global allocator and measures the two places the radix kernel
//! runs: the map-side sort of one [`KvBuffer`] and the reduce-side merge of
//! eight sorted runs. Each must allocate a fixed number of blocks — the
//! same at 2 000 and at 20 000 pairs — so nothing is allocated per record,
//! per radix digit or per tie run:
//!
//! * sort: the entries, the scatter buffer, the permuted offset table (3);
//! * merge: the gathered pairs, their entries, the scatter buffer, the
//!   value slices the groups borrow (4).
//!
//! The keys mix 1–2-byte varints with 12-byte keys whose first 8 bytes
//! repeat, so every measurement scatters several digits and finishes one
//! tie run per distinct head — 20 heads at 2 000 pairs, 200 at 20 000.
//! Everything runs single-threaded in one `#[test]`: the gauge's counters
//! are global.

use rapida_mapred::codec::write_varint;
use rapida_mapred::{merge_key_groups, KvBuffer, Run};
use rapida_testkit::alloc_gauge::{self, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Pair `i` of an `n`-pair workload: every fourth key is long (a head
/// shared by ≈ 25 keys, then a 4-byte tail), the rest short varints.
fn pair(i: usize, n: usize) -> (Vec<u8>, [u8; 4]) {
    let mut key = Vec::new();
    if i.is_multiple_of(4) {
        let head = (i / 4) % (n / 100);
        key.extend_from_slice(b"long");
        key.extend_from_slice(&(head as u32).to_be_bytes());
        key.extend_from_slice(&((i * 7) as u32 % 37).to_be_bytes());
    } else {
        write_varint(&mut key, (i as u64 * 7919) % 5000);
    }
    (key, (i as u32).to_le_bytes())
}

fn buffer(n: usize, pick: impl Fn(usize) -> bool) -> KvBuffer {
    let mut buf = KvBuffer::new();
    for i in (0..n).filter(|&i| pick(i)) {
        let (k, v) = pair(i, n);
        buf.push(&k, &v);
    }
    buf
}

/// Allocations of one map-side sort of `n` pairs.
fn sort_allocs(n: usize) -> u64 {
    let mut buf = buffer(n, |_| true);
    alloc_gauge::reset();
    buf.sort_unstable();
    let (allocs, _) = alloc_gauge::counters();
    assert!(buf.key(0) <= buf.key(n - 1));
    allocs
}

/// Allocations of one merge of `n` pairs spread over 8 sorted runs.
fn merge_allocs(n: usize) -> u64 {
    let bufs: Vec<KvBuffer> = (0..8)
        .map(|r| {
            let mut b = buffer(n, |i| i % 8 == r);
            b.sort_unstable();
            b
        })
        .collect();
    let runs: Vec<Run<'_>> = bufs.iter().map(Run::sorted).collect();
    let mut groups = 0usize;
    alloc_gauge::reset();
    let consumed = merge_key_groups(&runs, None, |key, values| {
        black_box((key, values));
        groups += 1;
    });
    let (allocs, _) = alloc_gauge::counters();
    assert_eq!(consumed, n);
    assert!(groups > 100, "the workload must group, got {groups} groups");
    allocs
}

#[test]
fn shuffle_ordering_allocates_a_constant_number_of_blocks() {
    let (sort_small, sort_big) = (sort_allocs(2_000), sort_allocs(20_000));
    let (merge_small, merge_big) = (merge_allocs(2_000), merge_allocs(20_000));
    assert_eq!(sort_small, sort_big, "sort allocations grew with the input");
    assert_eq!(
        merge_small, merge_big,
        "merge allocations grew with the input"
    );
    assert_eq!(sort_small, 3, "sort: entries, scatter buffer, offset table");
    assert_eq!(
        merge_small, 4,
        "merge: pairs, entries, scatter buffer, values"
    );
}
