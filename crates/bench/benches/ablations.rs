//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! map-side hash aggregation (Algorithm 3), α-join pruning (Table 2),
//! parallel vs sequential Agg-Join (Fig. 6), and composite-GP sharing
//! (RAPIDAnalytics vs RAPID+).

use rapida_testkit::bench::{BenchmarkId, Criterion};
use rapida_testkit::{criterion_group, criterion_main};
use rapida_bench::Workbench;
use rapida_core::engines::{RapidAnalytics, RapidPlus};
use rapida_core::{PlanRules, QueryEngine};
use rapida_datagen::query;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let wb = Workbench::bsbm_500k();
    let q = query("MG3");
    let variants: Vec<(&str, Box<dyn QueryEngine>)> = vec![
        ("full", Box::new(RapidAnalytics::default())),
        (
            "no-map-side-hash-agg",
            Box::new(PlanRules {
                map_side_agg: false,
                ..PlanRules::rapida()
            }),
        ),
        (
            "no-alpha-pruning",
            Box::new(PlanRules {
                alpha_pruning: false,
                ..PlanRules::rapida()
            }),
        ),
        (
            "sequential-agg-join",
            Box::new(PlanRules {
                parallel_agg: false,
                ..PlanRules::rapida()
            }),
        ),
        ("no-composite-gp", Box::new(RapidPlus::default())),
    ];
    let mut group = c.benchmark_group("ablations_mg3");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for (label, engine) in &variants {
        group.bench_with_input(BenchmarkId::new(*label, "MG3"), &q, |b, q| {
            b.iter(|| wb.run(engine.as_ref(), q).expect("runs"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
