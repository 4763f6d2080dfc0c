//! Shuffle data-path microbench: the arena-backed emit-order run merge engine
//! against an in-bench reimplementation of the legacy shuffle (per-record
//! `(Vec<u8>, Vec<u8>)` pairs, reduce-side concatenation + one stable sort
//! per partition) over the same 1M-record workload.
//!
//! Both sides run single-threaded end to end — dataset scan, map emit,
//! partition, sort/merge, grouped reduction, output block build — so the
//! ratio isolates the data-path rewrite, not parallelism. Results land in
//! `BENCH_mapred.json` (group `mapred`); outside smoke mode the bench fails
//! unless the arena path is at least 2x faster than the legacy one.

use rapida_mapred::codec::{BlockBuilder, RecordIter};
use rapida_mapred::{
    shuffle_partition, DatasetWriter, Engine, FnMapFactory, FnReduceFactory, InputSrc, Job,
    JobBuilder, MapOutput, MapTask, ReduceOutput, ReduceTask, SimDfs,
};
use rapida_testkit::bench::{smoke_mode, Criterion};
use rapida_testkit::rng::StdRng;
use rapida_testkit::{criterion_group, criterion_main};
use std::sync::Arc;
use std::time::Duration;

const KEY_LEN: usize = 16;
const VAL_LEN: usize = 8;

/// Records are pre-framed `key ++ value`; the mapper re-emits the two
/// halves — a pure shuffle workload with zero map-side compute.
struct SplitMap;
impl MapTask for SplitMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(&record[..KEY_LEN], &record[KEY_LEN..]);
    }
}

/// Sums little-endian u64 values per key and writes `key ++ sum`.
struct SumReduce;
impl ReduceTask for SumReduce {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let total: u64 = values
            .iter()
            .map(|v| {
                let mut b = [0u8; 8];
                b.copy_from_slice(v);
                u64::from_le_bytes(b)
            })
            .sum();
        let mut rec = Vec::with_capacity(KEY_LEN + 8);
        rec.extend_from_slice(key);
        rec.extend_from_slice(&total.to_le_bytes());
        out.write(&rec);
    }
}

/// A seeded dataset of `n` records over a 64Ki key space (≈16 values per
/// key at 1M records), written at the engine's default split size.
fn dataset(n: usize) -> rapida_mapred::Dataset {
    let mut rng = StdRng::seed_from_u64(0x50FF1E);
    let mut w = DatasetWriter::new(256 * 1024);
    let mut rec = [0u8; KEY_LEN + VAL_LEN];
    for _ in 0..n {
        let key = rng.gen_range(0u64..65_536);
        rec[..KEY_LEN].copy_from_slice(format!("key-{key:012}").as_bytes());
        rec[KEY_LEN..].copy_from_slice(&rng.gen_range(0u64..1000).to_le_bytes());
        w.push(&rec);
    }
    w.finish()
}

fn job(reducers: usize) -> Job {
    JobBuilder::new("shuffle-bench")
        .input("in")
        .mapper(Arc::new(FnMapFactory(|| SplitMap)))
        .reducer(Arc::new(FnReduceFactory(|| SumReduce)))
        .output("out")
        .num_reducers(reducers)
        .build()
}

/// The pre-rewrite data path, single-threaded: heap pairs per record,
/// task-order concatenation per partition, one stable sort per partition,
/// grouped reduction over the materialized list.
fn legacy_run(ds: &rapida_mapred::Dataset, reducers: usize) -> usize {
    let mut shuffled: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
        (0..reducers).map(|_| Vec::new()).collect();
    for block in &ds.blocks {
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for rec in RecordIter::new(block) {
            pairs.push((rec[..KEY_LEN].to_vec(), rec[KEY_LEN..].to_vec()));
        }
        for (k, v) in pairs {
            let p = shuffle_partition(&k, reducers);
            shuffled[p].push((k, v));
        }
    }
    let mut out_records = 0usize;
    for kvs in &mut shuffled {
        kvs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut bb = BlockBuilder::new();
        let mut i = 0;
        let mut rec = Vec::with_capacity(KEY_LEN + 8);
        while i < kvs.len() {
            let key = &kvs[i].0;
            let mut total = 0u64;
            let mut j = i;
            while j < kvs.len() && &kvs[j].0 == key {
                let mut b = [0u8; 8];
                b.copy_from_slice(&kvs[j].1);
                total += u64::from_le_bytes(b);
                j += 1;
            }
            rec.clear();
            rec.extend_from_slice(key);
            rec.extend_from_slice(&total.to_le_bytes());
            bb.push(&rec);
            out_records += 1;
            i = j;
        }
        std::hint::black_box(bb.finish());
    }
    out_records
}

fn bench(c: &mut Criterion) {
    let (n, tag) = if smoke_mode() {
        (50_000, "50k")
    } else {
        (1_000_000, "1M")
    };
    let reducers = 4;
    let ds = dataset(n);

    let mut group = c.benchmark_group("mapred");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8));

    let (legacy_id, arena_id) = (format!("shuffle_legacy_pairs/{tag}"), format!("shuffle_arena_merge/{tag}"));
    group.bench_function(legacy_id.as_str(), |b| b.iter(|| legacy_run(&ds, reducers)));

    group.bench_function(arena_id.as_str(), |b| {
        b.iter(|| {
            let dfs = SimDfs::new();
            dfs.put("in", ds.clone()); // blocks are refcounted: cheap
            let engine = Engine::with_workers(dfs.clone(), 1);
            let m = engine.run_job(&job(reducers));
            std::hint::black_box(m.output_records)
        })
    });

    let ratio = group.median_ns(&legacy_id).expect("legacy id recorded")
        / group.median_ns(&arena_id).expect("arena id recorded");
    println!("  arena shuffle speedup over legacy pairs: {ratio:.2}x");
    group.finish();
    assert!(smoke_mode() || ratio >= 2.0, "arena shuffle speedup {ratio:.2}x is below the 2x floor");
}

criterion_group!(benches, bench);
criterion_main!(benches);
