//! The job-metrics formatter the chaos and determinism suites share: one
//! text line per job holding every [`JobMetrics`] counter except the
//! measured, machine- or worker-count-dependent ones (`wall`, the
//! `*_busy_*` times, `steals`, `merge_shards`). `chaos.rs` pins these lines
//! by value in `tests/snapshots/fault_ledger_golden.txt`; `determinism.rs`
//! compares them across reruns and worker counts.

use rapida_mapred::JobMetrics;

/// The committed (data-flow) counters: what a fault-free run's cost
/// depends on. A fault plan that recovers must leave them unchanged.
pub fn committed(m: &JobMetrics) -> String {
    format!(
        "{} map_only={} tasks={}m/{}r in={}r/{}B pruned={}seg/{}B map_out={}r/{}B \
         shuffle={}r/{}B out={}r/{}B corrupt_records={} cache={}h/{}m/{}e",
        m.name,
        m.map_only,
        m.map_tasks,
        m.reduce_tasks,
        m.input_records,
        m.input_bytes,
        m.segments_skipped,
        m.input_bytes_pruned,
        m.map_output_records,
        m.map_output_bytes,
        m.shuffle_records,
        m.shuffle_bytes,
        m.output_records,
        m.output_bytes,
        m.corrupt_records_skipped,
        m.scan_cache_hits,
        m.scan_cache_misses,
        m.scan_cache_evictions,
    )
}

/// The attempt and integrity ledger: what a fault plan costs. Differs
/// between plans, never between worker counts.
pub fn ledger(m: &JobMetrics) -> String {
    format!(
        "attempts={}m/{}r failed={} node_loss={} stragglers={} speculative={} \
         wasted={}r/{}B backoff_s={:?} corrupt={}blk/{}spill reread={}B silent={}",
        m.map_attempts,
        m.reduce_attempts,
        m.failed_attempts,
        m.lost_node_tasks,
        m.straggler_tasks,
        m.speculative_attempts,
        m.wasted_input_records,
        m.wasted_output_bytes,
        m.backoff_s,
        m.corrupt_blocks_detected,
        m.corrupt_spills_detected,
        m.integrity_reread_bytes,
        m.silent_corruptions,
    )
}

/// Both halves: every counter of the determinism contract.
pub fn signature(m: &JobMetrics) -> String {
    format!("{} | {}", committed(m), ledger(m))
}
