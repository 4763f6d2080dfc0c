//! Ingest allocates per document, not per triple: parsing an escape-free
//! N-Triples document and loading it with `Graph::insert_term_triples`
//! costs nearly the same number of allocations at n and at 4n triples —
//! only the growth steps of a few buffers differ.

use rapida_rdf::{parse_ntriples, Graph};
use rapida_testkit::alloc_gauge::{self, CountingAlloc};

mod generated;
use generated::document;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocations of parsing `text` and loading it into a fresh graph.
fn ingest_allocations(text: &str) -> u64 {
    alloc_gauge::reset();
    let doc = parse_ntriples(text).expect("generated N-Triples parse");
    let mut graph = Graph::new();
    graph.insert_term_triples(&doc);
    let (allocs, _) = alloc_gauge::counters();
    assert_eq!(graph.len(), doc.len(), "every generated triple is distinct");
    allocs
}

#[test]
fn ingest_allocations_do_not_grow_with_the_document() {
    const N: usize = 4_000;
    let (small, large) = (document(N), document(4 * N));
    let at_n = ingest_allocations(&small);
    let at_4n = ingest_allocations(&large);
    assert!(
        at_n.abs_diff(at_4n) < 64,
        "{at_n} allocations for {N} triples, {at_4n} for {}",
        4 * N
    );
}
