//! A counting global allocator for allocation-budget tests.
//!
//! Install [`CountingAlloc`] as the `#[global_allocator]` of a test binary,
//! then bracket the code under measurement with [`reset`] / [`counters`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rapida_testkit::alloc_gauge::CountingAlloc =
//!     rapida_testkit::alloc_gauge::CountingAlloc::new();
//!
//! rapida_testkit::alloc_gauge::reset();
//! run_hot_path();
//! let (allocs, bytes) = rapida_testkit::alloc_gauge::counters();
//! ```
//!
//! Counters are global and relaxed-atomic: measurements are only meaningful
//! when the bracketed section runs single-threaded (the typical shape is a
//! single `#[test]` driving an operator loop directly). Reallocation counts
//! as one allocation; [`frees`] counts deallocations, so a test can bound
//! what dropping a structure costs.
//!
//! Besides the traffic, the gauge tracks live bytes: an allocation adds its
//! size, a deallocation subtracts it, a reallocation adds the difference.
//! [`live_bytes`] reads them now and [`peak_live_bytes`] the most live at
//! once since the last [`reset`], which starts the peak from what is live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Count `size` more live bytes and raise the peak to match.
#[inline]
fn grow_live(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn shrink_live(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

/// A [`System`]-backed allocator counting every allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for `#[global_allocator]` statics.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every operation to `System`; the counter updates have
// no allocator-visible side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow_live(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        shrink_live(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow_live(more),
                None => shrink_live(layout.size() - new_size),
            }
        }
        moved
    }
}

/// Zero the global counters and start the peak from the live bytes.
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    FREES.store(0, Ordering::Relaxed);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Read the global counters: `(allocation count, bytes requested)` since
/// the last [`reset`].
pub fn counters() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Deallocations since the last [`reset`].
pub fn frees() -> u64 {
    FREES.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed, process-wide.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
