//! Allocation-budget test for the drain's front end.
//!
//! Installs [`rapida_testkit::alloc_gauge::CountingAlloc`] as this test
//! binary's global allocator and drains one batching window of N = 1 and of
//! N = 200 requests carrying the same MG1 text, on a server whose scan cache
//! is already warm. Everything but the duplicates is equal between the two
//! drains (one unique query, the same cache-hit jobs), so the difference,
//! per extra duplicate, is what the server pays *per request*:
//!
//! * it must stay under one `Relation::clone` of the answer (the copy
//!   `deliver` hands each duplicate) plus a small constant for the
//!   request's own bookkeeping — so the answer is copied into the board
//!   once and moved out of it, never copied again;
//! * it must stay strictly under one `parse_query` + `extract` of the text
//!   — so the text is resolved once per drain, not once per request.
//!
//! Measured in one `#[test]`: the gauge's counters are global.

use rapida_core::extract;
use rapida_datagen::{generate_bsbm, query, BsbmConfig};
use rapida_serve::{RequestStatus, ServeConfig, Server};
use rapida_sparql::parse_query;
use rapida_testkit::alloc_gauge::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const DUPLICATES: usize = 200;
/// Per-request bookkeeping outside the answer: the ledger's copy of the
/// query id, and amortised growth of the window, board and outcome vectors.
const BOOKKEEPING: u64 = 4;

/// Allocations of one drain of `n` MG1 requests inside one window, and the
/// answer the last of them received.
fn drain_allocs(server: &Server, n: usize) -> (u64, rapida_sparql::Relation) {
    let session = server.session(0);
    for k in 0..n {
        session.submit_catalog(k as u64 % 100, "MG1");
    }
    alloc_gauge::reset();
    let report = server.drain();
    let (allocs, _bytes) = alloc_gauge::counters();
    assert_eq!(report.ledger.completed, n);
    assert_eq!(report.ledger.windows.len(), 1);
    assert_eq!(report.ledger.windows[0].unique, 1);
    match report.outcomes.into_iter().last().map(|o| o.status) {
        Some(RequestStatus::Completed { relation }) => (allocs, relation),
        other => panic!("MG1 did not complete: {other:?}"),
    }
}

#[test]
fn a_duplicate_request_costs_one_answer_copy_not_one_parse() {
    let server = Server::new(&generate_bsbm(&BsbmConfig::tiny()), ServeConfig::default());
    drain_allocs(&server, 1); // warm the scan cache
    let (one, answer) = drain_allocs(&server, 1);
    let (many, _) = drain_allocs(&server, DUPLICATES);
    let per_duplicate = many.saturating_sub(one) / (DUPLICATES as u64 - 1);

    assert!(!answer.is_empty(), "MG1 must have rows for the copy to cost something");
    alloc_gauge::reset();
    let copy = answer.clone();
    let (clone_allocs, _bytes) = alloc_gauge::counters();
    drop(copy);

    let text = query("MG1").sparql;
    alloc_gauge::reset();
    let aq = extract(&parse_query(&text).unwrap()).unwrap();
    let (front_end_allocs, _bytes) = alloc_gauge::counters();
    drop(aq);

    assert!(
        per_duplicate <= clone_allocs + BOOKKEEPING,
        "a duplicate request allocated {per_duplicate} times: more than one copy of its \
         answer ({clone_allocs}) plus {BOOKKEEPING} for bookkeeping"
    );
    assert!(
        per_duplicate < front_end_allocs,
        "a duplicate request allocated {per_duplicate} times, as much as parsing and \
         extracting its text ({front_end_allocs}): the text is being resolved per request"
    );
}
