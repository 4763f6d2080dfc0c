//! Allocation-budget tests for the Hive joins.
//!
//! Installs [`rapida_testkit::alloc_gauge::CountingAlloc`] as this test
//! binary's global allocator.
//!
//! **Reduce-side join.** Drives [`JoinReduceTask`] directly over
//! 2 000 three-value key groups (the shape of the VP joins: a couple of
//! rows per subject), comparing allocator traffic with the owned reducer
//! it replaced ([`common::ReferenceJoinReduce`]):
//!
//! * once its scratch is warm the task must stay under 0.05 allocations per
//!   shuffled value (steady state is zero: values decode onto a cleared
//!   arena and rows encode into a cleared buffer; only the output sink
//!   grows, amortized);
//! * the owned reducer allocates per value and per emitted row (bucket
//!   vectors, decoded rows, selection, merged row, encode buffer), so the
//!   task must come in at least 3x below it on identical input.
//!
//! **Map-side join.** Builds the broadcast table of [`MapJoinFactory`] from
//! a 20 000-row side, probes it with 20 000 stream records and drops it,
//! beside the owned map it replaced ([`common::ReferenceMapJoin`], one heap
//! row per broadcast row):
//!
//! * the build allocates per buffer growth — at most 64 times, and at least
//!   100x less often than the owned map;
//! * a second factory over the same side (another job) allocates no table
//!   block: its task shares the table the DFS keeps for the side;
//! * a warm task allocates nothing per stream record (only the output sink
//!   grows, amortized);
//! * the table dies with its dataset: removing the side frees the table's
//!   three buffers and its `Arc`, and exactly three blocks of the DFS memo's
//!   bookkeeping, where the owned map frees a block per row.
//!
//! **Empty-ALL fixup.** [`AllGroupFixup::apply`] scans a block dataset for
//! a record of its block: it reads only the ids, so the scan allocates
//! nothing per record, and the fixup's allocations do not grow with the
//! dataset — whether it finds its block or appends the synthesized record.
//!
//! The gauge's counters are global, so the tests take [`GAUGE`] and measure
//! one at a time.

mod common;

use common::{value, ReferenceJoinReduce, ReferenceMapJoin};
use rapida_core::relops::{
    JoinCycleCfg, JoinInputCfg, JoinReduceTask, MapJoinCfg, MapJoinFactory, MapJoinSmall, ScanKind,
};
use rapida_core::plan::AllGroupFixup;
use rapida_core::rows::{row_bytes, RVal};
use rapida_mapred::{
    Dataset, DatasetWriter, InputSrc, MapOutput, MapTask, MapTaskFactory, ReduceOutput, ReduceTask,
    SimDfs,
};
use rapida_ntga::{AggOp, AggRec};
use rapida_testkit::alloc_gauge::{self, CountingAlloc};
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Held by whichever test is measuring.
static GAUGE: Mutex<()> = Mutex::new(());

const GROUPS: usize = 2_000;
const VALUES: usize = 3 * GROUPS;

fn cfg() -> Arc<JoinCycleCfg> {
    let input = |optional| JoinInputCfg {
        scan: ScanKind::Rows(2),
        key_col: 0,
        scan_preds: Vec::new(),
        optional,
    };
    Arc::new(JoinCycleCfg {
        inputs: vec![input(false), input(false), input(true)],
        output_cols: vec![(0, 0), (0, 1), (1, 1), (2, 1)],
        eq_checks: Vec::new(),
        dict: Arc::default(),
    })
}

/// Per key: one left row and two right rows, or one row on every input.
fn groups() -> Vec<Vec<Vec<u8>>> {
    (0..GROUPS as u64)
        .map(|s| {
            let tags: [u64; 3] = if s % 2 == 0 { [0, 1, 1] } else { [0, 1, 2] };
            tags.iter()
                .enumerate()
                .map(|(j, &tag)| value(tag, &[RVal::Id(s), RVal::Id(1_000 + 3 * s + j as u64)]))
                .collect()
        })
        .collect()
}

/// One warm-up pass (fills the task's scratch), then a measured pass into a
/// fresh sink. Returns `(allocations, output records)`.
fn measure(task: &mut dyn ReduceTask, groups: &[Vec<Vec<u8>>]) -> (u64, Vec<Vec<u8>>) {
    let groups: Vec<Vec<&[u8]>> = groups
        .iter()
        .map(|g| g.iter().map(Vec::as_slice).collect())
        .collect();
    let mut warm = ReduceOutput::default();
    for (k, values) in groups.iter().enumerate() {
        task.reduce(&[k as u8], values, &mut warm);
    }
    let mut out = ReduceOutput::default();
    alloc_gauge::reset();
    for (k, values) in groups.iter().enumerate() {
        task.reduce(&[k as u8], values, &mut out);
    }
    let (allocs, _bytes) = alloc_gauge::counters();
    assert_eq!(
        out.records.len(),
        warm.records.len(),
        "passes must write identically"
    );
    (allocs, out.records.iter().map(<[u8]>::to_vec).collect())
}

#[test]
fn join_reduce_allocations_bounded() {
    let _measuring = GAUGE.lock().unwrap();
    let groups = groups();
    let (arena_allocs, arena_out) = measure(&mut JoinReduceTask::new(cfg()), &groups);
    let (owned_allocs, owned_out) = measure(&mut ReferenceJoinReduce { cfg: cfg() }, &groups);
    assert_eq!(arena_out, owned_out, "variants must agree on output");
    assert_eq!(
        arena_out.len(),
        GROUPS + GROUPS / 2,
        "two rows per even key, one per odd"
    );

    let ceiling = (VALUES / 20) as u64;
    assert!(
        arena_allocs <= ceiling,
        "warm join reducer allocated {arena_allocs} times over {VALUES} values \
         (ceiling {ceiling})"
    );
    assert!(
        owned_allocs >= 3 * VALUES as u64 / 2,
        "owned reducer should allocate per value, got {owned_allocs}"
    );
    assert!(
        arena_allocs * 3 <= owned_allocs,
        "join reducer ({arena_allocs}) must allocate at least 3x less than \
         the owned one ({owned_allocs})"
    );
}

const SIDE_ROWS: u64 = 20_000;

/// Run `f` and return `(its result, allocations, frees)`.
fn gauged<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    alloc_gauge::reset();
    let out = f();
    (out, alloc_gauge::counters().0, alloc_gauge::frees())
}

/// Probe `task` with every stream record, warm first, and return the
/// allocations of the second pass and what it wrote.
fn probe(task: &mut dyn MapTask, stream: &[Vec<u8>]) -> (u64, Vec<Vec<u8>>) {
    let pass = |task: &mut dyn MapTask| {
        let mut out = MapOutput::default();
        for rec in stream {
            task.map(InputSrc { dataset: 0 }, rec, &mut out);
        }
        out
    };
    pass(task);
    let (out, allocs, _) = gauged(|| pass(task));
    (allocs, out.records.iter().map(<[u8]>::to_vec).collect())
}

#[test]
fn map_join_table_allocations_bounded() {
    let _measuring = GAUGE.lock().unwrap();
    let id_row = |a: u64, b: u64| row_bytes(&[RVal::Id(a), RVal::Id(b)]);
    // Two broadcast rows per key, the pair split far apart in arrival order.
    let dfs = SimDfs::new();
    let mut side = DatasetWriter::new(4096);
    for i in 0..SIDE_ROWS {
        side.push(&id_row(i % (SIDE_ROWS / 2), 1_000_000 + i));
    }
    let side = side.finish();
    dfs.put("side", side.clone());
    // One stream record in four probes a key the side does not have.
    let stream: Vec<Vec<u8>> = (0..SIDE_ROWS)
        .map(|i| id_row(if i % 4 == 0 { SIDE_ROWS + i } else { i / 2 }, i))
        .collect();
    let cfg = Arc::new(MapJoinCfg {
        stream: ScanKind::Rows(2),
        stream_preds: Vec::new(),
        smalls: vec![MapJoinSmall {
            dataset: "side".into(),
            scan: ScanKind::Rows(2),
            key: Some((0, 0)),
            optional: false,
            scan_preds: Vec::new(),
        }],
        output_cols: vec![0, 1, 3],
        eq_checks: Vec::new(),
        dict: Arc::default(),
    });

    let factory = MapJoinFactory::new(cfg.clone());
    let (mut flat, flat_build, _) = gauged(|| factory.create(&dfs));
    let (mut owned, owned_build, _) = gauged(|| ReferenceMapJoin::load(cfg.clone(), &dfs));
    assert!(
        flat_build <= 64,
        "building the flat table allocated {flat_build} times"
    );
    assert!(
        flat_build * 100 <= owned_build,
        "flat build ({flat_build}) must allocate at least 100x less than the owned map \
         ({owned_build})"
    );

    // Another job's factory over the same side shares the built table: its
    // task allocates its box and its list of table handles, nothing more.
    let second = MapJoinFactory::new(cfg.clone());
    let (second_task, second_build, _) = gauged(|| second.create(&dfs));
    assert!(
        second_build <= 2,
        "a second factory over the same side allocated {second_build} times"
    );

    let (flat_probe, flat_out) = probe(&mut *flat, &stream);
    let (_, owned_out) = probe(&mut owned, &stream);
    assert_eq!(flat_out, owned_out, "variants must agree on output");
    assert_eq!(flat_out.len() as u64, SIDE_ROWS / 4 * 3 * 2);
    assert!(
        flat_probe <= 64,
        "warm map-join task allocated {flat_probe} times over {SIDE_ROWS} stream records"
    );

    // The table lives in the DFS's memo of the side, so tasks and factories
    // hold handles only: it dies when the side is removed. What a removal
    // frees besides the table is measured on two more copies of the side,
    // one bare and one holding a one-byte artefact.
    drop((flat, second_task, factory, second));
    dfs.put("bare", side.clone());
    dfs.put("marked", side);
    let marker = dfs.derived("marked", &0u8, |_| 0u8);
    assert_eq!(marker.as_deref(), Some(&0));
    drop(marker);
    let (_, _, bare_frees) = gauged(|| dfs.remove("bare"));
    let (_, _, marked_frees) = gauged(|| dfs.remove("marked"));
    let (removed, _, side_frees) = gauged(|| dfs.remove("side"));
    assert!(removed.is_some());
    // The memo's vector, its slot's boxed key and shared cell; the marker's
    // `Arc` is its one other block.
    let bookkeeping = marked_frees - bare_frees - 1;
    assert_eq!(bookkeeping, 3, "the memo's bookkeeping freed {bookkeeping} blocks");
    let flat_frees = side_frees - bare_frees - bookkeeping;
    let ((), _, owned_frees) = gauged(|| drop(owned));
    assert!(
        flat_frees <= 3 + 2,
        "dropping the flat table freed {flat_frees} blocks"
    );
    assert!(
        owned_frees >= SIDE_ROWS,
        "the owned map should free a block per row, freed {owned_frees}"
    );
}

/// `n` aggregate records of block 2, then one of block 0.
fn block_records(n: u64) -> Dataset {
    let mut w = DatasetWriter::new(4096);
    let mut buf = Vec::new();
    for (id, k) in (0..n).map(|k| (2, k)).chain([(0, n)]) {
        let rec = AggRec {
            id,
            key: vec![k, k + 1],
            values: vec![Some(k as f64), None],
        };
        buf.clear();
        rec.encode(&mut buf);
        w.push(&buf);
    }
    w.finish()
}

#[test]
fn all_group_fixup_allocations_do_not_grow_with_the_dataset() {
    let _measuring = GAUGE.lock().unwrap();
    let fixup = |block_id| AllGroupFixup {
        dataset: "blk".into(),
        block_id,
        aggs: vec![AggOp::Count, AggOp::Sum],
    };
    // Measured alone: 4 allocations to find the block, 18 to append, at
    // either size. The bound leaves room for the test harness's threads,
    // which share the gauge; a decode per record would allocate thousands.
    for n in [2_000, 8_000] {
        let dfs = SimDfs::new();
        dfs.put("blk", block_records(n));
        // Block 0's record is the last one: the scan reads every record.
        let ((), found, _) = gauged(|| fixup(0).apply(&dfs));
        assert_eq!(dfs.peek("blk").unwrap().records as u64, n + 1, "block 0 is there");
        let ((), appended, _) = gauged(|| fixup(1).apply(&dfs));
        assert_eq!(dfs.peek("blk").unwrap().records as u64, n + 2, "block 1 was added");
        assert!(found <= 32, "{n} records: finding the block allocated {found}");
        assert!(appended <= 64, "{n} records: appending allocated {appended}");
    }
}
