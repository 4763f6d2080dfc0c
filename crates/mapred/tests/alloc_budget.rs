//! Allocation budget of the shuffle.
//!
//! Installs [`rapida_testkit::alloc_gauge::CountingAlloc`] as this test
//! binary's global allocator and measures the places the shuffle moves
//! pairs: the spill of one combiner-less map task's output, the routing of
//! eight emit-order runs to four key-range shards, and the reduce-side merge
//! of those runs, whole and per shard. Each must allocate a fixed number of
//! blocks — the same at 2 000 and at 20 000 pairs — so nothing is allocated
//! per record, per radix digit or per tie run:
//!
//! * spill over 8 partitions: the partition index, the counts, the arena
//!   list, and one arena per partition — its payload and its offset table
//!   (3 + 2 × 8 = 19);
//! * route of one run: its pairs' shard indices, the shard ends, the write
//!   cursors and the routed positions (4);
//! * merge, whole or one shard: the gathered pairs, their entries, the
//!   scatter buffer, the value slices the groups borrow (4), each sized by
//!   the pairs the unit holds.
//!
//! The keys mix 1–2-byte varints with 12-byte keys whose first 8 bytes
//! repeat, so the merge scatters several digits and finishes one tie run
//! per distinct head — 20 heads at 2 000 pairs, 200 at 20 000. Everything
//! runs single-threaded in one `#[test]`: the gauge's counters are global.

use rapida_mapred::codec::write_varint;
use rapida_mapred::engine::spill;
use rapida_mapred::{merge_key_groups, plan_shards, KvBuffer, Route, Run};
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

/// Allocations of one spill of `n` pairs into 8 partitions.
fn spill_allocs(n: usize) -> u64 {
    let buf = buffer(n, |_| true);
    alloc_gauge::reset();
    let parts = spill(&buf, 8);
    let (allocs, _) = alloc_gauge::counters();
    assert_eq!(parts.iter().map(KvBuffer::len).sum::<usize>(), n);
    assert!(parts.iter().all(|p| !p.is_empty()), "every partition must hold pairs");
    allocs
}

/// Allocations of one merge of `runs`, which hold `n` pairs.
fn merge_allocs(runs: &[Run<'_>], n: usize) -> u64 {
    let mut groups = 0usize;
    alloc_gauge::reset();
    let consumed = merge_key_groups(runs, None, |key, values| {
        black_box((key, values));
        groups += 1;
    });
    let (allocs, _) = alloc_gauge::counters();
    assert_eq!(consumed, n);
    assert!(groups > 10, "the workload must group, got {groups} groups");
    allocs
}

/// Allocations of `n` pairs spread over 8 emit-order runs: the whole merge,
/// the route of the first run to 4 shards, and the merge of shard 1.
fn shuffle_allocs(n: usize) -> (u64, u64, u64) {
    let bufs: Vec<KvBuffer> = (0..8).map(|r| buffer(n, |i| i % 8 == r)).collect();
    let runs: Vec<Run<'_>> = bufs.iter().map(Run::new).collect();
    let whole = merge_allocs(&runs, n);
    let cuts = plan_shards(&bufs.iter().collect::<Vec<_>>(), 4);
    assert_eq!(cuts.len(), 3);
    alloc_gauge::reset();
    let first = Route::new(&bufs[0], &cuts);
    let (route, _) = alloc_gauge::counters();
    let routes: Vec<Route<'_>> =
        std::iter::once(first).chain(bufs[1..].iter().map(|b| Route::new(b, &cuts))).collect();
    let shard: Vec<Run<'_>> = routes.iter().map(|r| r.shard(1)).collect();
    let held = (bufs.iter().flat_map(KvBuffer::iter))
        .filter(|kv| cuts[0] <= kv.key && kv.key < cuts[1])
        .count();
    (whole, route, merge_allocs(&shard, held))
}

#[test]
fn shuffle_allocates_a_constant_number_of_blocks() {
    let (spill_small, spill_big) = (spill_allocs(2_000), spill_allocs(20_000));
    let (small, big) = (shuffle_allocs(2_000), shuffle_allocs(20_000));
    assert_eq!(spill_small, spill_big, "spill allocations grew with the input");
    assert_eq!(small, big, "merge or route allocations grew with the input");
    assert_eq!(spill_small, 19, "spill: index, counts, arena list, 8 arenas of 2");
    assert_eq!(small.0, 4, "merge: pairs, entries, scatter buffer, values");
    assert_eq!(small.1, 4, "route: shard indices, ends, cursors, positions");
    assert_eq!(small.2, 4, "shard merge: pairs, entries, scatter buffer, values");
}
