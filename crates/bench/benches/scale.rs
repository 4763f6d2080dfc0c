//! Worker-count scaling bench over the 1M-record shuffle workload.
//!
//! The build container may expose a single CPU, where wall-clock parallel
//! speedup is physically impossible — so each sample is the job's *busy-time
//! makespan*: the busiest worker's CPU time through the map phase plus the
//! busiest worker's through the reduce phase, measured per worker with the
//! thread CPU clock (`JobMetrics::busy_makespan_ns`). That is exactly the
//! wall time the run would take on a machine with one core per worker, and
//! it is what the work-stealing pool + shard-parallel reduce merge are
//! supposed to shrink as workers grow.
//!
//! Results land in `BENCH_scale.json` (ids `shuffle_1m/w{1,2,4,8}`); outside
//! smoke mode the bench fails below a 2x speedup at 4 workers.

use rapida_mapred::{
    DatasetWriter, Engine, FnMapFactory, FnReduceFactory, InputSrc, Job, JobBuilder, KeyLocal,
    MapOutput, MapTask, ReduceOutput, ReduceTask, SimDfs,
};
use rapida_testkit::bench::{smoke_mode, Criterion};
use rapida_testkit::rng::StdRng;
use rapida_testkit::{criterion_group, criterion_main};
use std::sync::Arc;
use std::time::Duration;

const KEY_LEN: usize = 16;
const VAL_LEN: usize = 8;

/// Records are pre-framed `key ++ value`; the mapper re-emits the two
/// halves — a pure shuffle workload, same shape as `benches/shuffle.rs`.
struct SplitMap;
impl MapTask for SplitMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(&record[..KEY_LEN], &record[KEY_LEN..]);
    }
}

/// Sums little-endian u64 values per key and writes `key ++ sum` —
/// key-local by construction, so the reduce merge shards.
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

/// The shuffle bench's seeded dataset: `n` records over a 64Ki key space.
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

fn job() -> Job {
    JobBuilder::new("scale-bench")
        .input("in")
        .mapper(Arc::new(FnMapFactory(|| SplitMap)))
        .reducer(Arc::new(KeyLocal(FnReduceFactory(|| SumReduce))))
        .output("out")
        .num_reducers(4)
        .build()
}

fn bench(c: &mut Criterion) {
    let (n, tag) = if smoke_mode() {
        (50_000, "shuffle_50k")
    } else {
        (1_000_000, "shuffle_1m")
    };
    let ds = dataset(n);

    let mut group = c.benchmark_group("scale");
    group
        .sample_size(5)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(6));

    const WORKERS: [usize; 4] = [1, 2, 4, 8];
    for workers in WORKERS {
        group.bench_function(format!("{tag}/w{workers}"), |b| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    let dfs = SimDfs::new();
                    dfs.put("in", ds.clone()); // blocks are refcounted: cheap
                    let engine = Engine::with_workers(dfs.clone(), workers);
                    let m = engine.run_job(&job());
                    std::hint::black_box(m.output_records);
                    total += Duration::from_nanos(m.busy_makespan_ns());
                }
                total
            })
        });
    }

    let makespan = |w: usize| group.median_ns(&format!("{tag}/w{w}")).expect("every worker count recorded");
    for w in WORKERS {
        println!("  w{w}: busy makespan {:.1} ms ({:.2}x vs w1)", makespan(w) / 1e6, makespan(1) / makespan(w));
    }
    let ratio = makespan(1) / makespan(4);
    group.finish();
    assert!(smoke_mode() || ratio >= 2.0, "4-worker speedup {ratio:.2}x is below the 2x floor");
}

criterion_group!(benches, bench);
criterion_main!(benches);
