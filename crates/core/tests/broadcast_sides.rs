//! A map-join job reads each broadcast side as it is stored when the job
//! runs: a side replaced under the same name is read as its new copy, a
//! removed side is empty (a required side drops every stream row, an
//! optional one pads them with `Null`), and engines sharing one DFS write
//! the same bytes whether they run one after the other or side by side.
//!
//! And the side is built once per stored copy ([`SimDfs::derived_builds`]
//! counts the builds): the jobs and engines that broadcast it share one
//! table, whatever column they probe it with and whether it is optional,
//! and the enumerator's dry runs share the base tables' sides across
//! queries and rounds.

use rapida_core::relops::{MapJoinCfg, MapJoinFactory, MapJoinSmall, ScanKind};
use rapida_core::rows::{decode_row, row_bytes, RVal};
use rapida_core::{enumerate_best, extract, DataCatalog, Family};
use rapida_datagen::{generate_bsbm, query, BsbmConfig};
use rapida_mapred::{ClusterModel, Dataset, DatasetWriter, Engine, JobBuilder, SimDfs};
use rapida_sparql::parse_query;
use std::sync::Arc;

/// Stream rows `[key, i]`: keys cycle through `0..KEYS`.
const STREAM_ROWS: u64 = 240;
const KEYS: u64 = 6;

fn rows_dataset(rows: impl IntoIterator<Item = [u64; 2]>) -> Dataset {
    // Small splits, so a job runs several map tasks.
    let mut w = DatasetWriter::new(96);
    for [a, b] in rows {
        w.push(&row_bytes(&[RVal::Id(a), RVal::Id(b)]));
    }
    w.finish()
}

/// Side copy `version`: rows `[key, 100 * version + key]` for the even keys,
/// two rows for key 0.
fn side(version: u64) -> Dataset {
    let even = (0..KEYS).step_by(2).map(|k| [k, 100 * version + k]);
    rows_dataset(even.chain([[0, 100 * version + 50]]))
}

fn dfs_with_stream() -> SimDfs {
    let dfs = SimDfs::new();
    dfs.put("stream", rows_dataset((0..STREAM_ROWS).map(|i| [i % KEYS, i])));
    dfs
}

/// A map-join of `stream` with `side` on the key column: `[key, i, value]`.
fn map_join(out: &str, optional: bool) -> rapida_mapred::Job {
    let cfg = Arc::new(MapJoinCfg {
        stream: ScanKind::Rows(2),
        stream_preds: Vec::new(),
        smalls: vec![MapJoinSmall {
            dataset: "side".into(),
            scan: ScanKind::Rows(2),
            key: Some((0, 0)),
            optional,
            scan_preds: Vec::new(),
        }],
        output_cols: vec![0, 1, 3],
        eq_checks: Vec::new(),
        dict: Arc::default(),
    });
    JobBuilder::new(format!("{out} [map-join]"))
        .input("stream")
        .mapper(Arc::new(MapJoinFactory::new(cfg)))
        .output(out)
        .build()
}

/// Run the map-join into `out` and read its rows back, sorted.
fn run(engine: &Engine, out: &str, optional: bool) -> Vec<Vec<RVal>> {
    engine.run_job(&map_join(out, optional));
    let mut rows: Vec<Vec<RVal>> = engine
        .dfs
        .peek(out)
        .expect("the job wrote its output")
        .iter_records()
        .map(|r| decode_row(r).expect("a row"))
        .collect();
    rows.sort_by_key(|r| r.iter().map(|c| c.id()).collect::<Vec<_>>());
    rows
}

/// What the join of the stream with side copy `version` writes.
fn expected(version: Option<u64>, optional: bool) -> Vec<Vec<RVal>> {
    let mut rows = Vec::new();
    for i in 0..STREAM_ROWS {
        let key = i % KEYS;
        let matched: Vec<u64> = match version {
            Some(v) if key == 0 => vec![100 * v, 100 * v + 50],
            Some(v) if key.is_multiple_of(2) => vec![100 * v + key],
            _ => Vec::new(),
        };
        let cells = |value: RVal| vec![RVal::Id(key), RVal::Id(i), value];
        if matched.is_empty() && optional {
            rows.push(cells(RVal::Null));
        }
        rows.extend(matched.into_iter().map(|v| cells(RVal::Id(v))));
    }
    rows.sort_by_key(|r| r.iter().map(|c| c.id()).collect::<Vec<_>>());
    rows
}

#[test]
fn a_job_reads_its_side_as_stored_when_it_runs() {
    let dfs = dfs_with_stream();
    let engine = Engine::with_workers(dfs.clone(), 2);

    dfs.put("side", side(1));
    let a = run(&engine, "a", false);
    assert_eq!(a, expected(Some(1), false), "job A reads v1");
    assert!(!a.is_empty());

    dfs.put("side", side(2));
    assert_eq!(run(&engine, "b", false), expected(Some(2), false), "job B reads v2");
    assert_eq!(run(&engine, "b_opt", true), expected(Some(2), true));

    dfs.remove("side");
    assert_eq!(run(&engine, "c", false), Vec::<Vec<RVal>>::new(), "a required side drops every row");
    let padded = run(&engine, "c_opt", true);
    assert_eq!(padded, expected(None, true), "an optional side pads with Null");
    assert_eq!(padded.len() as u64, STREAM_ROWS);

    dfs.put("side", side(3));
    assert_eq!(run(&engine, "d", true), expected(Some(3), true), "a side put back is read again");
}

#[test]
fn engines_sharing_a_dfs_write_identical_bytes_side_by_side() {
    let dfs = dfs_with_stream();
    dfs.put("side", side(1));
    let engines = [Engine::with_workers(dfs.clone(), 2), Engine::with_workers(dfs.clone(), 2)];
    let outputs: [Vec<&str>; 2] = [vec!["x0", "x1", "x2"], vec!["y0", "y1", "y2"]];
    std::thread::scope(|s| {
        for (engine, outs) in engines.iter().zip(&outputs) {
            s.spawn(move || {
                for (n, out) in outs.iter().enumerate() {
                    engine.run_job(&map_join(out, !n.is_multiple_of(2)));
                }
            });
        }
    });
    let bytes = |name: &str| -> Vec<Vec<u8>> {
        let ds = dfs.peek(name).expect("written");
        ds.blocks.iter().map(|b| b.to_vec()).collect()
    };
    for (x, y) in outputs[0].iter().zip(&outputs[1]) {
        assert_eq!(bytes(x), bytes(y), "{x} and {y} differ");
    }
    // And the same as a lone engine writes.
    let lone = Engine::with_workers(dfs.clone(), 2);
    lone.run_job(&map_join("z0", false));
    assert_eq!(bytes("z0"), bytes("x0"));
    assert_eq!(run(&lone, "z1", true), expected(Some(1), true));
}

#[test]
fn the_jobs_broadcasting_one_stored_side_build_it_once() {
    let dfs = dfs_with_stream();
    let engine = Engine::with_workers(dfs.clone(), 2);
    dfs.put("side", side(1));
    // Required and optional probes of the same side, several map tasks
    // each: one build.
    assert_eq!(run(&engine, "a", false), expected(Some(1), false));
    assert_eq!(run(&engine, "b", true), expected(Some(1), true));
    assert_eq!(run(&engine, "c", false), expected(Some(1), false));
    assert_eq!(dfs.derived_builds(), 1);
    // A new copy is built once more; a republished one too, since the memo
    // belongs to the stored copy.
    dfs.put("side", side(2));
    assert_eq!(run(&engine, "d", true), expected(Some(2), true));
    assert_eq!(run(&engine, "e", false), expected(Some(2), false));
    assert_eq!(dfs.derived_builds(), 2);
    dfs.put_sealed("side", dfs.peek_sealed("side").expect("stored"));
    assert_eq!(run(&engine, "f", false), expected(Some(2), false));
    assert_eq!(dfs.derived_builds(), 3);
    // A missing side is empty and builds nothing.
    dfs.remove("side");
    assert_eq!(run(&engine, "g", true), expected(None, true));
    assert_eq!(dfs.derived_builds(), 3);
}

#[test]
fn engines_running_side_by_side_build_a_shared_side_once() {
    let dfs = dfs_with_stream();
    dfs.put("side", side(1));
    // Two engines on one DFS, as the enumerator's dry-run lanes are.
    let lanes = [Engine::with_workers(dfs.clone(), 1), Engine::with_workers(dfs.clone(), 1)];
    let rows: Vec<Vec<Vec<RVal>>> = std::thread::scope(|s| {
        let runs: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(l, lane)| s.spawn(move || run(lane, &format!("lane{l}"), l == 1)))
            .collect();
        runs.into_iter().map(|r| r.join().expect("lane ran")).collect()
    });
    assert_eq!(rows, vec![expected(Some(1), false), expected(Some(1), true)]);
    assert_eq!(dfs.derived_builds(), 1);
}

/// Broadcast sides built by one round of MG1–MG4 on tiny BSBM, each query
/// planned by `enumerate_best` over the Hive family (dry runs included)
/// and its chosen plan executed: the sides read from stored VP/ExtVP
/// tables, then the sides read from a round's intermediate outputs. The
/// base sides are built in the first round only, and the chosen plans'
/// executions build none: each replays the dry run that priced it.
/// (Building one table per job and side, as each map-join once did, built
/// 50 tables a round; executing the chosen plans again built 24, and
/// dry-running the other ExtVP arm of MG2 and MG4 as well built 16.)
const BASE_SIDES: u64 = 4;
const INTERMEDIATE_SIDES_PER_ROUND: u64 = 12;

#[test]
fn hive_plans_build_each_base_side_once() {
    let g = generate_bsbm(&BsbmConfig::tiny());
    let cat = DataCatalog::load(&g);
    let mr = Engine::new(cat.dfs.clone());
    let model = ClusterModel::nodes10();
    let round = || -> (u64, Vec<usize>) {
        let before = cat.dfs.derived_builds();
        let mut rows = Vec::new();
        for id in ["MG1", "MG2", "MG3", "MG4"] {
            let aq = extract(&parse_query(&query(id).sparql).expect("parse")).expect("extract");
            let best = enumerate_best(Family::Hive, &aq, &cat, &model).expect("a plan");
            let (rel, _) = best.plan.try_execute(&mr, &aq, &cat.dict).expect("it runs");
            best.plan.cleanup(&cat.dfs);
            cat.dfs.remove(&best.plan.output_dataset);
            rows.push(rel.len());
        }
        (cat.dfs.derived_builds() - before, rows)
    };
    let (first, rows) = round();
    let (second, again) = round();
    assert_eq!(again, rows, "a round answers the same");
    assert_eq!(first, BASE_SIDES + INTERMEDIATE_SIDES_PER_ROUND);
    assert_eq!(second, INTERMEDIATE_SIDES_PER_ROUND);
    // Republishing every stored table (a new copy) drops their sides: the
    // next round builds them again, once.
    for name in cat.dfs.names() {
        cat.dfs.put_sealed(&name, cat.dfs.peek_sealed(&name).expect("stored"));
    }
    assert_eq!(round(), (first, rows));
}
