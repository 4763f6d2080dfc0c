//! Allocation-budget test for the Hive reduce-side join.
//!
//! Installs [`rapida_testkit::alloc_gauge::CountingAlloc`] as this test
//! binary's global allocator and drives [`JoinReduceTask`] directly over
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
//! Everything is measured single-threaded in one `#[test]` — the gauge's
//! counters are global.

mod common;

use common::{value, ReferenceJoinReduce};
use rapida_core::relops::{JoinCycleCfg, JoinInputCfg, JoinReduceTask, ScanKind};
use rapida_core::rows::RVal;
use rapida_mapred::{ReduceOutput, ReduceTask};
use rapida_testkit::alloc_gauge::{self, CountingAlloc};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

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
        post_preds: Vec::new(),
        numeric: Arc::new(Vec::new()),
        lexical: Arc::new(Vec::new()),
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
