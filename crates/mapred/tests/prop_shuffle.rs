//! Property test for the arena-backed shuffle data path: random jobs run
//! through the real [`Engine`] must produce byte-identical `Dataset` output
//! and identical data-flow metrics to a reference implementation that keeps
//! the pre-rewrite semantics — per-record `(Vec<u8>, Vec<u8>)` pairs,
//! reduce-side concatenation of task outputs in task order, and one stable
//! sort per partition.

use rapida_testkit::prelude::*;

use rapida_mapred::codec::BlockBuilder;
use rapida_mapred::job::ReduceTaskFactory;
use rapida_mapred::{
    shuffle_partition, DatasetWriter, Engine, FnMapFactory, FnReduceFactory, InputSrc, Job,
    JobBuilder, KvBuffer, MapOutput, MapTask, ReduceOutput, ReduceTask, SimDfs,
};
use rapida_mapred::{merge_key_groups, plan_shards, Route, Run};
use std::sync::Arc;

/// Mapper used by both engines: writes records through (map-only output)
/// and emits one `(byte % 5, 1u32)` count pair per record byte, so runs
/// carry plenty of equal keys across tasks.
struct ByteCountMap;
impl MapTask for ByteCountMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        if !record.is_empty() {
            out.write(record);
        }
        for &b in record {
            out.emit(&[b % 5], &1u32.to_le_bytes());
        }
    }
}

/// Sums u32 counts; writes `key \0 sum` as a reducer, re-emits as combiner.
struct Sum {
    to_output: bool,
}
impl ReduceTask for Sum {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let total: u32 = values
            .iter()
            .map(|v| {
                let mut b = [0u8; 4];
                b.copy_from_slice(v);
                u32::from_le_bytes(b)
            })
            .sum();
        if self.to_output {
            let mut rec = key.to_vec();
            rec.push(0);
            rec.extend_from_slice(&total.to_le_bytes());
            out.write(&rec);
        } else {
            out.emit(key, &total.to_le_bytes());
        }
    }
}

fn build_job(combiner: bool, map_only: bool, reducers: usize) -> Job {
    let mut b = JobBuilder::new("prop-shuffle")
        .input("in")
        .mapper(Arc::new(FnMapFactory(|| ByteCountMap)))
        .output("out")
        .num_reducers(reducers);
    if !map_only {
        b = b.reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })));
        if combiner {
            b = b.combiner(Arc::new(FnReduceFactory(|| Sum { to_output: false })));
        }
    }
    b.build()
}

/// Signature of everything the run committed: output block bytes plus the
/// data-flow counters the cost model consumes.
#[derive(Debug, PartialEq, Eq)]
struct RunSig {
    blocks: Vec<Vec<u8>>,
    records: usize,
    block_records: Vec<usize>,
    map_tasks: usize,
    input_records: u64,
    input_bytes: u64,
    map_output_records: u64,
    map_output_bytes: u64,
    shuffle_records: u64,
    shuffle_bytes: u64,
    reduce_tasks: usize,
    output_records: u64,
    output_bytes: u64,
}

/// Group runs of equal keys in a key-sorted pair list (the old engine's
/// `run_key_groups`, kept verbatim in the reference).
fn pair_key_groups<F: FnMut(&[u8], &[&[u8]])>(kvs: &[(Vec<u8>, Vec<u8>)], mut f: F) {
    let mut i = 0;
    let mut values: Vec<&[u8]> = Vec::new();
    while i < kvs.len() {
        let key = &kvs[i].0;
        values.clear();
        let mut j = i;
        while j < kvs.len() && &kvs[j].0 == key {
            values.push(&kvs[j].1);
            j += 1;
        }
        f(key, &values);
        i = j;
    }
}

/// The pre-rewrite engine, single-threaded: materialized pairs, reduce-side
/// stable sort per partition, task-ordered concatenation.
fn reference_run(job: &Job, records: &[Vec<u8>], split: usize) -> RunSig {
    let mut w = DatasetWriter::new(split);
    for r in records {
        w.push(r);
    }
    let input = w.finish();
    let input_bytes = input.total_bytes() as u64;
    let input_records = input.records as u64;

    // Map phase, in task (= split) order.
    let mut task_pairs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();
    let mut task_records: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut map_output_records = 0u64;
    let mut map_output_bytes = 0u64;
    for block in &input.blocks {
        let mut task = job.mapper.create(&SimDfs::new());
        let mut out = MapOutput::default();
        for rec in rapida_mapred::codec::RecordIter::new(block) {
            task.map(InputSrc { dataset: 0 }, rec, &mut out);
        }
        task.cleanup(&mut out);
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = out
            .kvs
            .iter()
            .map(|kv| (kv.key.to_vec(), kv.value.to_vec()))
            .collect();
        map_output_records += pairs.len() as u64;
        map_output_bytes += pairs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>();
        if let (Some(comb), false) = (&job.combiner, job.is_map_only()) {
            if !pairs.is_empty() {
                pairs.sort_by(|a, b| a.0.cmp(&b.0)); // stable, key-only: old contract
                let mut ctask = ReduceTaskFactory::create(comb.as_ref());
                let mut cout = ReduceOutput::default();
                pair_key_groups(&pairs, |key, values| {
                    ctask.reduce(key, values, &mut cout);
                });
                ctask.cleanup(&mut cout);
                pairs = cout
                    .kvs
                    .iter()
                    .map(|kv| (kv.key.to_vec(), kv.value.to_vec()))
                    .collect();
            }
        }
        task_pairs.push(pairs);
        task_records.push(out.records.iter().map(|r| r.to_vec()).collect());
    }

    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let mut block_records: Vec<usize> = Vec::new();
    let mut shuffle_records = 0u64;
    let mut shuffle_bytes = 0u64;
    let mut reduce_tasks = 0usize;
    if job.is_map_only() {
        for recs in &task_records {
            if recs.is_empty() {
                continue;
            }
            let mut bb = BlockBuilder::new();
            for r in recs {
                bb.push(r);
            }
            block_records.push(bb.records());
            blocks.push(bb.finish());
        }
    } else {
        let num_partitions = job.num_reducers.max(1);
        let mut shuffled: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
            (0..num_partitions).map(|_| Vec::new()).collect();
        for pairs in task_pairs {
            for (k, v) in pairs {
                let p = shuffle_partition(&k, num_partitions);
                shuffled[p].push((k, v));
            }
        }
        for p in &mut shuffled {
            p.sort_by(|a, b| a.0.cmp(&b.0)); // stable, key-only: old contract
        }
        shuffle_records = shuffled.iter().map(|p| p.len() as u64).sum();
        shuffle_bytes = shuffled
            .iter()
            .flat_map(|p| p.iter())
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum();
        reduce_tasks = shuffled.iter().filter(|p| !p.is_empty()).count();
        let reducer = job.reducer.as_ref().unwrap();
        for kvs in &shuffled {
            if kvs.is_empty() {
                continue;
            }
            let mut task = ReduceTaskFactory::create(reducer.as_ref());
            let mut out = ReduceOutput::default();
            pair_key_groups(kvs, |key, values| {
                task.reduce(key, values, &mut out);
            });
            task.cleanup(&mut out);
            if !out.records.is_empty() {
                let mut bb = BlockBuilder::new();
                for r in out.records.iter() {
                    bb.push(r);
                }
                block_records.push(bb.records());
                blocks.push(bb.finish());
            }
        }
    }

    let records = block_records.iter().sum();
    let output_bytes = blocks.iter().map(|b| b.len() as u64).sum();
    RunSig {
        records,
        block_records,
        map_tasks: input.blocks.len(),
        input_records,
        input_bytes,
        map_output_records,
        map_output_bytes,
        shuffle_records,
        shuffle_bytes,
        reduce_tasks,
        output_records: records as u64,
        output_bytes,
        blocks,
    }
}

/// The real engine under test.
fn engine_run(job: &Job, records: &[Vec<u8>], split: usize, workers: usize) -> RunSig {
    let dfs = SimDfs::new();
    let mut w = DatasetWriter::new(split);
    for r in records {
        w.push(r);
    }
    dfs.put("in", w.finish());
    let engine = Engine::with_workers(dfs.clone(), workers);
    let m = engine.run_job(job);
    let out = dfs.peek("out").unwrap();
    RunSig {
        blocks: out.blocks.iter().map(|b| b.as_ref().to_vec()).collect(),
        records: out.records,
        block_records: out.block_records.clone(),
        map_tasks: m.map_tasks,
        input_records: m.input_records,
        input_bytes: m.input_bytes,
        map_output_records: m.map_output_records,
        map_output_bytes: m.map_output_bytes,
        shuffle_records: m.shuffle_records,
        shuffle_bytes: m.shuffle_bytes,
        reduce_tasks: m.reduce_tasks,
        output_records: m.output_records,
        output_bytes: m.output_bytes,
    }
}

proptest! {
    #[test]
    fn arena_shuffle_matches_pair_sort_reference(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..10), 0..120),
        split in 1usize..96,
        reducers in 1usize..6,
        combiner in any::<bool>(),
        map_only in any::<bool>(),
        workers in 1usize..9,
    ) {
        let job = build_job(combiner, map_only, reducers);
        let expect = reference_run(&job, &records, split);
        let got = engine_run(&job, &records, split, workers);
        prop_assert_eq!(got, expect);
    }
}

/// Eight bytes every long key shares; its own prefixes differ from one
/// another only by trailing zero bytes (`"a"`, `"a\0"`, `"a\0a"`, ...), and
/// `SHARED[..6]` zero-padded is `SHARED` itself.
const SHARED: &[u8; 8] = b"a\0a\0\0a\0\0";

/// Tail bytes over a zero-heavy three-letter alphabet.
fn letters(tail: &[u8]) -> impl Iterator<Item = u8> + '_ {
    tail.iter().map(|t| [0x00, b'a', 0xff][usize::from(t % 3)])
}

/// Keys the prefix-keyed sort entries can get wrong: empty keys, keys that
/// differ only by trailing `0x00` bytes, keys of at most 8 bytes that are a
/// prefix of a longer key, and keys longer than 8 bytes that share their
/// first 8.
fn hostile_key((mode, tail): &(u8, Vec<u8>)) -> Vec<u8> {
    match mode % 4 {
        0 => letters(tail).collect(),
        1 => SHARED[..(usize::from(*mode / 4) % 9)].to_vec(),
        _ => SHARED.iter().copied().chain(letters(tail)).collect(),
    }
}

/// A key pool of one `shape`, every key opening with `tag`:
///
/// * 0 — the hostile mix of [`hostile_key`];
/// * 1 — every key at most 8 bytes past `tag`, so the sort entries alone
///   decide and no tail is compared: the empty key, the trailing-zero twins
///   `a` / `a\0`, the all-`0xFF` 8-byte key and short letter keys;
/// * 2 — one key, repeated: every digit has a single bucket and is skipped;
/// * 3 — tie fix-ups: keys longer than 8 bytes sharing their first 8, the
///   ≤ 8-byte keys whose zero-padded form equals that head (`SHARED[..6]`,
///   `SHARED`), and the empty key so the shared prefix stays `tag`.
fn key_pool(shape: u8, raw: &[(u8, Vec<u8>)], tag: &[u8]) -> Vec<Vec<u8>> {
    let pool: Vec<Vec<u8>> = match shape % 4 {
        0 => raw.iter().map(hostile_key).collect(),
        1 => [&b""[..], b"a", b"a\0", &[0xff; 8]]
            .iter()
            .map(|k| k.to_vec())
            .chain(raw.iter().map(|(_, tail)| letters(tail).take(8).collect()))
            .collect(),
        2 => vec![raw[0].1.clone()],
        _ => [&b""[..], &SHARED[..6], SHARED]
            .iter()
            .map(|k| k.to_vec())
            .chain(raw.iter().map(|(mode, tail)| {
                let first = letters(std::slice::from_ref(mode));
                SHARED.iter().copied().chain(first).chain(letters(tail)).collect()
            }))
            .collect(),
    };
    pool.into_iter().map(|k| [tag, &k].concat()).collect()
}

/// `n` pairs drawn from `pool` by a seeded LCG, each value its emit index.
fn drawn(pool: &[Vec<u8>], n: usize, seed: u64) -> KvBuffer {
    let mut buf = KvBuffer::new();
    let mut state = seed;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        buf.push(&pool[(state >> 33) as usize % pool.len()], &(i as u32).to_le_bytes());
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The merge of one emit-order run — the radix kernel alone, as a map
    /// task's combiner pass runs it — equals a plain `(key bytes, emit
    /// index)` sort at every size from empty, through the small-n cut-over,
    /// to one well past the histograms' fixed cost, with every key drawn
    /// from a small pool (so duplicates are heavy) of each shape, with and
    /// without a buffer-wide shared prefix.
    #[test]
    fn prefix_entry_sort_matches_bytewise_reference(
        raw in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..12)), 1..24),
        shape in 0u8..4,
        tag in proptest::collection::vec(any::<u8>(), 0..10),
        seed in any::<u64>(),
    ) {
        let pool = key_pool(shape, &raw, &tag);
        for n in [0, 1, 2, 300, 18_000] {
            let buf = drawn(&pool, n, seed);
            let mut want: Vec<usize> = (0..n).collect();
            want.sort_by(|&a, &b| buf.key(a).cmp(buf.key(b)).then(a.cmp(&b)));
            let want: Vec<(Vec<u8>, Vec<u8>)> = want
                .iter()
                .map(|&i| (buf.key(i).to_vec(), buf.value(i).to_vec()))
                .collect();
            let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            merge_key_groups(&[Run::new(&buf)], None, |k, vs| {
                got.extend(vs.iter().map(|v| (k.to_vec(), v.to_vec())));
            });
            prop_assert_eq!(&got, &want, "n = {}", n);
        }
    }
}

/// Key groups as `merge_key_groups` reports them.
type Groups = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

/// A key range `[lo, hi)`; an open bound is `None`.
type Range<'a> = (Option<&'a [u8]>, Option<&'a [u8]>);

/// The reference merge: concatenate the spills in run order, keep the pairs
/// whose keys lie in `range`, stable-sort by key alone, keep the first
/// `limit` pairs, group.
fn reference_groups(bufs: &[KvBuffer], (lo, hi): Range<'_>, limit: usize) -> Groups {
    let admits = |k: &[u8]| lo.is_none_or(|lo| k >= lo) && hi.is_none_or(|hi| k < hi);
    let mut pairs: Vec<(&[u8], &[u8])> = (bufs.iter().flat_map(KvBuffer::iter))
        .filter(|kv| admits(kv.key))
        .map(|kv| (kv.key, kv.value))
        .collect();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let mut out: Groups = Vec::new();
    for (k, v) in pairs.into_iter().take(limit) {
        match out.last_mut() {
            Some((last, vs)) if last.as_slice() == k => vs.push(v.to_vec()),
            _ => out.push((k.to_vec(), vec![v.to_vec()])),
        }
    }
    out
}

fn merged_groups(runs: &[Run<'_>], limit: Option<usize>) -> (usize, Groups) {
    let mut out: Groups = Vec::new();
    let n = merge_key_groups(runs, limit, |k, vs| {
        out.push((k.to_vec(), vs.iter().map(|v| v.to_vec()).collect()));
    });
    (n, out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `merge_key_groups` equals the reference merge on hostile emit-order
    /// runs — empty runs, runs of a few pairs (whose own shared prefix is
    /// often longer than the unit's), runs over every key-pool shape, and
    /// each shard of `plan_shards`' cuts as its `Route`s gather it, checked
    /// against the shard's own half-open key range — at `limit` none, 0, one
    /// pair into the first group of two or more, and the total. The shards,
    /// merged in order, also concatenate to the whole merge.
    #[test]
    fn merge_key_groups_matches_stable_sort_reference(
        raw in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..12)), 1..16),
        shape in 0u8..4,
        tag in proptest::collection::vec(any::<u8>(), 0..6),
        sizes in proptest::collection::vec(prop_oneof![0usize..4, 0usize..300], 0..9),
        shards in 1usize..6,
        seed in any::<u64>(),
    ) {
        let pool = key_pool(shape, &raw, &tag);
        let bufs: Vec<KvBuffer> = sizes
            .iter()
            .enumerate()
            .map(|(r, &n)| drawn(&pool, n, seed ^ r as u64))
            .collect();
        let spills: Vec<&KvBuffer> = bufs.iter().collect();
        let cuts = plan_shards(&spills, shards);
        let routes: Vec<Route<'_>> = bufs.iter().map(|b| Route::new(b, &cuts)).collect();
        // The whole partition, then each shard with the range it must hold.
        let mut units: Vec<(Vec<Run<'_>>, Range<'_>)> =
            vec![(bufs.iter().map(Run::new).collect(), (None, None))];
        for s in 0..=cuts.len() {
            let range = (s.checked_sub(1).map(|i| cuts[i]), cuts.get(s).copied());
            units.push((routes.iter().map(|rt| rt.shard(s)).collect(), range));
        }
        let whole = reference_groups(&bufs, (None, None), usize::MAX);
        let concat: Groups =
            units[1..].iter().flat_map(|(u, _)| merged_groups(u, None).1).collect();
        prop_assert_eq!(&concat, &whole, "shards concatenate to the whole merge");
        for (unit, range) in &units {
            let all = reference_groups(&bufs, *range, usize::MAX);
            let total: usize = all.iter().map(|(_, vs)| vs.len()).sum();
            let mid = all
                .iter()
                .scan(0, |start, (_, vs)| {
                    let at = *start;
                    *start += vs.len();
                    Some((at, vs.len()))
                })
                .find(|&(_, len)| len > 1)
                .map_or(total / 2, |(at, _)| at + 1);
            prop_assert_eq!(merged_groups(unit, None), (total, all.clone()));
            for limit in [0, mid, total] {
                let want = reference_groups(&bufs, *range, limit);
                prop_assert_eq!(merged_groups(unit, Some(limit)), (limit, want), "limit {}", limit);
            }
        }
    }
}
