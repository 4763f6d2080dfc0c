//! Ingest holds a bounded number of bytes per triple: parsing the
//! generated document and loading it with `Graph::insert_term_triples`
//! peaks below one budget, and the loaded `Graph` keeps below another.
//! The text is the caller's and is not counted.
//!
//! The gauge's live and peak counts are process-wide, so this binary holds
//! this one test and nothing else.

use rapida_rdf::{parse_ntriples, Graph};
use rapida_testkit::alloc_gauge::{self, CountingAlloc};

mod generated;
use generated::document;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Peak live bytes per triple of parse + load: 118.0 at 16 000 triples
/// (163.4 while a parsed term took 20 bytes and the dictionary kept a hash
/// and a 16-byte numeric cell per term, 206.4 while the dedup was a hash
/// set of triples).
const PEAK_BUDGET: f64 = 119.0;
/// Live bytes per triple the loaded graph keeps once the parse is dropped:
/// 72.1 (88.5 with the per-term hash and 16-byte numeric cell, 139.7 while
/// that hash set outlived the load).
const KEPT_BUDGET: f64 = 73.0;

#[test]
fn ingest_peak_and_kept_bytes_per_triple_stay_in_budget() {
    const N: usize = 16_000;
    let text = document(N);
    alloc_gauge::reset();
    let before = alloc_gauge::live_bytes();
    let doc = parse_ntriples(&text).expect("generated N-Triples parse");
    let mut graph = Graph::new();
    graph.insert_term_triples(&doc);
    drop(doc);
    let peak = (alloc_gauge::peak_live_bytes() - before) as f64 / N as f64;
    let kept = (alloc_gauge::live_bytes() - before) as f64 / N as f64;
    assert_eq!(graph.len(), N, "every generated triple is distinct");
    println!("{N} triples: peak {peak:.1} B/triple, kept {kept:.1} B/triple");
    assert!(
        peak <= PEAK_BUDGET,
        "parse + load peaked at {peak:.1} B/triple; the budget is {PEAK_BUDGET}"
    );
    assert!(
        kept <= KEPT_BUDGET,
        "the loaded graph keeps {kept:.1} B/triple; the budget is {KEPT_BUDGET}"
    );
}
