//! `DataCatalog::load` allocates per table, not per subject or per row:
//! loading a generated BSBM graph peaks below a budget of live bytes per
//! triple above the graph, and makes fewer than a budgeted number of
//! allocations. The peak counts what the load keeps (the stored datasets,
//! the catalogs) and its transients at their highest.
//!
//! The gauge's live and peak counts are process-wide, so this binary holds
//! this one test and nothing else.

use rapida_core::DataCatalog;
use rapida_datagen::{generate_bsbm, BsbmConfig};
use rapida_testkit::alloc_gauge::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes per triple of the load, above the loaded graph: 23.4
/// at bsbm-24k, of which the load keeps 10.3 (52.8 while the triplegroups
/// were grouped per subject and the VP rows per key in growing vectors).
const PEAK_BUDGET: f64 = 24.0;
/// Allocations of the whole load: 3 618 at bsbm-24k (255 173 with a
/// vector and a property set per subject).
const ALLOC_BUDGET: u64 = 4_000;

#[test]
fn catalog_load_peak_bytes_and_allocations_stay_in_budget() {
    let graph = generate_bsbm(&BsbmConfig { products: 24_000, seed: 7, ..BsbmConfig::large() });
    let triples = graph.len();
    alloc_gauge::reset();
    let before = alloc_gauge::live_bytes();
    let catalog = DataCatalog::load(&graph);
    let peak = (alloc_gauge::peak_live_bytes() - before) as f64 / triples as f64;
    let kept = (alloc_gauge::live_bytes() - before) as f64 / triples as f64;
    let (allocs, _) = alloc_gauge::counters();
    assert!(!catalog.tg.classes().is_empty());
    println!("{triples} triples: load peak {peak:.1} B/triple, kept {kept:.1} B/triple, {allocs} allocations");
    assert!(
        peak <= PEAK_BUDGET,
        "the load peaked at {peak:.1} B/triple above the graph; the budget is {PEAK_BUDGET}"
    );
    assert!(
        allocs <= ALLOC_BUDGET,
        "the load made {allocs} allocations; the budget is {ALLOC_BUDGET}"
    );
}
