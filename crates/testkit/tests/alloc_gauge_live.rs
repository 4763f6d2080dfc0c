//! The gauge's live and peak byte counts follow allocations,
//! reallocations and frees. The counts are process-wide, so this binary
//! holds this one test and nothing else.

use rapida_testkit::alloc_gauge::{self, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn live_and_peak_bytes_follow_alloc_realloc_and_free() {
    alloc_gauge::reset();
    let base = alloc_gauge::live_bytes();
    assert_eq!(
        alloc_gauge::peak_live_bytes(),
        base,
        "reset starts the peak from the live bytes"
    );

    let mut v: Vec<u8> = black_box(Vec::with_capacity(1000));
    assert_eq!(alloc_gauge::live_bytes(), base + 1000);
    v.reserve_exact(3000);
    assert_eq!(
        alloc_gauge::live_bytes(),
        base + 3000,
        "a grown reallocation adds the difference"
    );
    v.shrink_to(200);
    assert_eq!(
        alloc_gauge::live_bytes(),
        base + 200,
        "a shrunk reallocation subtracts it"
    );
    assert_eq!(alloc_gauge::peak_live_bytes(), base + 3000);

    drop(black_box(v));
    assert_eq!(alloc_gauge::live_bytes(), base, "a free subtracts its size");
    assert_eq!(
        alloc_gauge::peak_live_bytes(),
        base + 3000,
        "the peak stays until the next reset"
    );
    alloc_gauge::reset();
    assert_eq!(alloc_gauge::peak_live_bytes(), base);
}
