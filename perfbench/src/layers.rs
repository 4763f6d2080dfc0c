//! The per-layer metrics of the traced run, all taken from outside: spans
//! around public calls, the public fields of the `WorkflowMetrics` /
//! `JobMetrics` a call returns, `Enumerated::candidates`, `ServeLedger` and
//! `Server::cache_stats`.

use crate::inputs::Inputs;
use crate::trace::{totals_by_name, Recorder, Span, Tracer};
use crate::workload::{RoundOut, State};
use rapida_core::LoadConfig;
use rapida_mapred::{ClusterModel, ScanCacheStats, SimDfs};
use rapida_storage::{decode_tg, StatsCatalog, TgStore, VpStore};
use std::collections::BTreeMap;

/// Every per-layer metric: name, unit and which direction is better. A traced
/// run reports all of them on every workload; one a workload does not exercise
/// reads 0. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("rdf.parse_ntriples_ms", "ms", "lower"),
    ("rdf.encode_ms", "ms", "lower"),
    ("rdf.dict_terms", "count", "lower"),
    ("core.catalog_load_ms", "ms", "lower"),
    ("storage.vp_load_ms", "ms", "lower"),
    ("storage.tg_load_ms", "ms", "lower"),
    ("storage.stats_ms", "ms", "lower"),
    ("storage.vp_bytes", "B", "lower"),
    ("storage.extvp_bytes", "B", "lower"),
    ("storage.extvp_tables", "count", "lower"),
    ("storage.tg_bytes", "B", "lower"),
    ("storage.vp_decode_ms", "ms", "lower"),
    ("storage.tg_decode_ms", "ms", "lower"),
    ("sparql.parse_ms", "ms", "lower"),
    ("core.extract_ms", "ms", "lower"),
    ("core.plan_ms", "ms", "lower"),
    ("core.enumerate_ms", "ms", "lower"),
    ("core.enumerate_candidates", "count", "lower"),
    ("core.enumerate_dry_runs", "count", "lower"),
    ("core.execute_ms", "ms", "lower"),
    ("core.execute_self_ms", "ms", "lower"),
    ("core.assemble_ms", "ms", "lower"),
    ("core.cleanup_ms", "ms", "lower"),
    ("core.final_join_ms", "ms", "lower"),
    ("core.relops_jobs_ms", "ms", "lower"),
    ("ntga.tg_join_ms", "ms", "lower"),
    ("ntga.agg_join_ms", "ms", "lower"),
    ("mapred.jobs", "count", "lower"),
    ("mapred.full_cycles", "count", "lower"),
    ("mapred.map_only_cycles", "count", "lower"),
    ("mapred.jobs_wall_ms", "ms", "lower"),
    ("mapred.map_busy_ms", "ms", "lower"),
    ("mapred.reduce_busy_ms", "ms", "lower"),
    ("mapred.busy_makespan_ms", "ms", "lower"),
    ("mapred.sched_overhead_ms", "ms", "lower"),
    ("mapred.input_mb", "MB", "lower"),
    ("mapred.shuffle_mb", "MB", "lower"),
    ("mapred.output_mb", "MB", "lower"),
    ("mapred.input_records", "count", "lower"),
    ("mapred.shuffle_records", "count", "lower"),
    ("mapred.segments_skipped", "count", "higher"),
    ("mapred.steals", "count", "lower"),
    ("mapred.task_attempts", "count", "lower"),
    ("mapred.failed_attempts", "count", "lower"),
    ("mapred.sim_s", "s", "lower"),
    ("mapred.cache_hits", "count", "higher"),
    ("mapred.cache_misses", "count", "lower"),
    ("mapred.cache_evictions", "count", "lower"),
    ("mapred.cache_hit_ratio", "ratio", "higher"),
    ("mapred.cache_resident_mb", "MB", "lower"),
    ("serve.enqueue_ms", "ms", "lower"),
    ("serve.drain_ms", "ms", "lower"),
    ("serve.drain_us_per_request", "us", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.windows", "count", "lower"),
    ("serve.unique_per_window", "count", "lower"),
    ("serve.fused_members", "count", "higher"),
    ("serve.shared_jobs", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.sim_qps", "1/s", "higher"),
    ("serve.sim_p50_ms", "ms", "lower"),
    ("harness.rounds", "count", "higher"),
    ("harness.round_ms_p50", "ms", "lower"),
    ("harness.round_ms_p50_traced", "ms", "lower"),
    ("harness.round_ms_p90", "ms", "lower"),
    ("harness.cpu_ms_per_round", "ms", "lower"),
    ("harness.attributed_pct", "%", "higher"),
    ("harness.trace_overhead_pct", "%", "lower"),
];

pub type Values = BTreeMap<&'static str, f64>;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

const MB: f64 = 1e6;

/// Total time of the named spans among `spans[from..]`, in ms, as metrics.
fn insert_span_ms(
    spans: &[Span],
    from: usize,
    pairs: &[(&'static str, &'static str)],
    into: &mut Values,
) {
    let totals = totals_by_name(spans, from);
    for &(metric, span) in pairs {
        into.insert(metric, totals.get(span).map_or(0.0, |t| ms(t.0)));
    }
}

/// The traced set-up's spans (`rdf.*`, `core.catalog_load`) as metrics.
pub fn setup_layers(tracer: &Tracer, state: &State, into: &mut Values) {
    let pairs = [
        ("rdf.parse_ntriples_ms", "rdf.parse_ntriples"),
        ("rdf.encode_ms", "rdf.encode"),
        ("core.catalog_load_ms", "core.catalog_load"),
    ];
    insert_span_ms(&tracer.spans, 0, &pairs, into);
    into.insert("rdf.dict_terms", state.cat.dict.len() as f64);
}

/// What `DataCatalog::load` is made of, each part run once more on a scratch
/// DFS, and a full decode of both layouts as loaded.
pub fn storage_probes(state: &State, tracer: &mut Tracer, into: &mut Values) {
    let from = tracer.spans.len();
    tracer.span("probes", |rec| {
        let cfg = LoadConfig::default();
        let scratch = SimDfs::new();
        let threshold = cfg.extvp.then_some(cfg.extvp_threshold);
        rec.span("storage.vp_load", |_| {
            VpStore::load_ext(&state.graph, &scratch, cfg.vp_segment_rows, threshold)
        });
        rec.span("storage.tg_load", |_| {
            TgStore::load(&state.graph, &scratch, cfg.tg_split_bytes)
        });
        rec.span("storage.stats", |_| StatsCatalog::compute(&state.graph));
        drop(scratch);

        let cat = &state.cat;
        rec.span("storage.vp_decode", |_| {
            for table in cat.vp.tables() {
                std::hint::black_box(cat.vp.read_table(&cat.dfs, table.key));
            }
        });
        rec.span("storage.tg_decode", |_| {
            for class in cat.tg.classes() {
                if let Some(ds) = cat.dfs.peek(&class.dataset) {
                    for rec in ds.iter_records() {
                        std::hint::black_box(decode_tg(rec));
                    }
                }
            }
        });
    });
    let pairs = [
        ("storage.vp_load_ms", "storage.vp_load"),
        ("storage.tg_load_ms", "storage.tg_load"),
        ("storage.stats_ms", "storage.stats"),
        ("storage.vp_decode_ms", "storage.vp_decode"),
        ("storage.tg_decode_ms", "storage.tg_decode"),
    ];
    insert_span_ms(&tracer.spans, from, &pairs, into);
    let vp = &state.cat.vp;
    into.insert("storage.vp_bytes", vp.total_bytes() as f64);
    into.insert(
        "storage.extvp_bytes",
        vp.ext_tables().iter().map(|e| e.bytes as f64).sum(),
    );
    into.insert("storage.extvp_tables", vp.ext_tables().len() as f64);
    into.insert("storage.tg_bytes", state.cat.tg.total_bytes() as f64);
}

/// `sparql.parse` + `core.extract` over the traffic slice's texts: what
/// `Server::drain` pays before signature dedup, which it does out of sight.
pub fn front_end_replay(
    inputs: &Inputs,
    tracer: &mut Tracer,
    into: &mut Values,
) -> Result<(), String> {
    let from = tracer.spans.len();
    tracer.span("probes", |rec| {
        for ev in &inputs.traffic {
            let text = rapida_datagen::traffic::sparql_of(ev);
            let query = rec
                .span("sparql.parse", |_| rapida_sparql::parse_query(&text))
                .map_err(|e| e.to_string())?;
            rec.span("core.extract", |_| rapida_core::extract(&query))
                .map_err(|e| e.to_string())?;
        }
        Ok::<(), String>(())
    })?;
    let pairs = [
        ("sparql.parse_ms", "sparql.parse"),
        ("core.extract_ms", "core.extract"),
    ];
    insert_span_ms(&tracer.spans, from, &pairs, into);
    Ok(())
}

/// One traced round as per-round metric values. `spans[from..]` are the
/// round's own (the `round` span first); `cache` is the scan cache's ledger
/// before and after the round.
pub fn round_layers(
    spans: &[Span],
    from: usize,
    out: &RoundOut,
    cache: Option<(&ScanCacheStats, &ScanCacheStats)>,
) -> Values {
    let totals = totals_by_name(spans, from);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.0));
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.1));
    let mut v = Values::new();

    let pairs = [
        ("sparql.parse_ms", "sparql.parse"),
        ("core.extract_ms", "core.extract"),
        ("core.plan_ms", "core.plan"),
        ("core.enumerate_ms", "core.enumerate"),
        ("core.execute_ms", "core.execute"),
        ("core.assemble_ms", "core.assemble"),
        ("core.cleanup_ms", "core.cleanup"),
        ("core.final_join_ms", "job.final_join"),
        ("core.relops_jobs_ms", "job.relops"),
        ("ntga.tg_join_ms", "job.tg_join"),
        ("ntga.agg_join_ms", "job.agg_join"),
        ("serve.enqueue_ms", "serve.enqueue"),
        ("serve.drain_ms", "serve.drain"),
    ];
    insert_span_ms(spans, from, &pairs, &mut v);
    v.insert("core.execute_self_ms", self_ms("core.execute"));
    v.insert("core.enumerate_candidates", out.candidates as f64);
    v.insert("core.enumerate_dry_runs", out.dry_runs as f64);
    // The share of the round that sits in a named layer span: everything but
    // the self time of the harness's own `round` and `op` spans.
    let round_ms = total("round");
    if round_ms > 0.0 {
        v.insert(
            "harness.attributed_pct",
            100.0 * (1.0 - (self_ms("round") + self_ms("op")) / round_ms),
        );
    }

    let jobs = || out.workflows.iter().flat_map(|wf| wf.jobs.iter());
    let sum = |f: &dyn Fn(&rapida_mapred::JobMetrics) -> f64| jobs().map(f).sum::<f64>();
    let jobs_wall_ms = sum(&|j| j.wall.as_secs_f64() * 1e3);
    let makespan_ms = sum(&|j| ms(j.busy_makespan_ns()));
    v.insert("mapred.jobs", jobs().count() as f64);
    v.insert(
        "mapred.full_cycles",
        out.workflows.iter().map(|wf| wf.full_cycles() as f64).sum(),
    );
    v.insert(
        "mapred.map_only_cycles",
        out.workflows
            .iter()
            .map(|wf| wf.map_only_cycles() as f64)
            .sum(),
    );
    v.insert("mapred.jobs_wall_ms", jobs_wall_ms);
    v.insert("mapred.map_busy_ms", sum(&|j| ms(j.map_busy_total_ns)));
    v.insert(
        "mapred.reduce_busy_ms",
        sum(&|j| ms(j.reduce_busy_total_ns)),
    );
    v.insert("mapred.busy_makespan_ms", makespan_ms);
    v.insert("mapred.sched_overhead_ms", jobs_wall_ms - makespan_ms);
    v.insert("mapred.input_mb", sum(&|j| j.input_bytes as f64) / MB);
    v.insert("mapred.shuffle_mb", sum(&|j| j.shuffle_bytes as f64) / MB);
    v.insert("mapred.output_mb", sum(&|j| j.output_bytes as f64) / MB);
    v.insert("mapred.input_records", sum(&|j| j.input_records as f64));
    v.insert("mapred.shuffle_records", sum(&|j| j.shuffle_records as f64));
    v.insert(
        "mapred.segments_skipped",
        sum(&|j| j.segments_skipped as f64),
    );
    v.insert("mapred.steals", sum(&|j| j.steals as f64));
    v.insert("mapred.task_attempts", sum(&|j| j.task_attempts() as f64));
    v.insert("mapred.failed_attempts", sum(&|j| j.failed_attempts as f64));
    // Simulated cluster seconds, beside — never instead of — wall time.
    let model = ClusterModel::nodes10();
    v.insert(
        "mapred.sim_s",
        out.workflows.iter().map(|wf| model.workflow_time(wf)).sum(),
    );

    if let Some((before, after)) = cache {
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        v.insert("mapred.cache_hits", hits);
        v.insert("mapred.cache_misses", misses);
        v.insert(
            "mapred.cache_evictions",
            (after.evictions - before.evictions) as f64,
        );
        v.insert(
            "mapred.cache_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        v.insert("mapred.cache_resident_mb", after.resident_bytes as f64 / MB);
    }
    if let Some(ledger) = &out.ledger {
        let requests = ledger.requests.len() as f64;
        let windows = ledger.windows.len().max(1) as f64;
        v.insert("serve.requests", requests);
        v.insert("serve.windows", ledger.windows.len() as f64);
        v.insert(
            "serve.unique_per_window",
            ledger.windows.iter().map(|w| w.unique as f64).sum::<f64>() / windows,
        );
        v.insert(
            "serve.fused_members",
            ledger.windows.iter().map(|w| w.fused_members as f64).sum(),
        );
        v.insert(
            "serve.shared_jobs",
            ledger.windows.iter().map(|w| w.shared_jobs as f64).sum(),
        );
        v.insert("serve.rejected", ledger.rejected as f64);
        v.insert("serve.sim_qps", ledger.qps);
        v.insert("serve.sim_p50_ms", ledger.p50_ms);
        if requests > 0.0 {
            v.insert(
                "serve.drain_us_per_request",
                total("serve.drain") * 1e3 / requests,
            );
        }
    }
    v
}
