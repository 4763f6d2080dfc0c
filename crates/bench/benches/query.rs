//! End-to-end Fig. 8 query benchmark: MG1–MG4 on RAPIDAnalytics, the
//! wall-clock cost of the NTGA operator path recorded as `views/MG*` in
//! `BENCH_query.json` and tracked PR over PR as absolute times.
//!
//! Measured on the Fig. 8(b) BSBM-2M workbench — large enough that
//! per-record operator cost dominates plan construction — with a
//! single-worker MR engine so the number reflects operator cost, not
//! scheduler jitter.

use rapida_bench::Workbench;
use rapida_core::engines::RapidAnalytics;
use rapida_datagen::query;
use rapida_mapred::Engine;
use rapida_testkit::bench::{smoke_mode, BenchmarkId, Criterion};
use rapida_testkit::{criterion_group, criterion_main};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut wb = if smoke_mode() {
        Workbench::bsbm_tiny()
    } else {
        Workbench::bsbm_2m()
    };
    wb.mr = Engine::with_workers(wb.cat.dfs.clone(), 1);

    let engine = RapidAnalytics::default();

    let mut group = c.benchmark_group("query");
    group
        .sample_size(16)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(8));
    for id in ["MG1", "MG2", "MG3", "MG4"] {
        let q = query(id);
        group.bench_with_input(BenchmarkId::new("views", id), &q, |b, q| {
            b.iter(|| wb.run(&engine, q).expect("query runs"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
