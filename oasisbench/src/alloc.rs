//! A counting global allocator: the system allocator plus per-thread
//! counts of allocations and bytes requested.
//!
//! Counts are kept per thread, so a call timed on one pool lane is
//! never charged for what another lane allocates at the same moment,
//! and a count taken around a call repeats exactly from run to run.
//! Process-wide totals cover work the library hands to pool workers
//! outside the benchmark's own closures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps [`System`] and counts every `alloc`, `alloc_zeroed` and
/// `realloc` made on the calling thread. Install it with
/// `#[global_allocator]`.
pub struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates and never fails at thread
    // exit.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// Statistics only, publishing no other data: `Relaxed`.
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    GLOBAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counting touches only thread-local cells and
// atomics, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, which is
        // `System`, for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract
        // and `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes)` made on this thread so far. Both stay 0
/// when [`CountingAlloc`] is not the global allocator.
pub fn thread_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// `(allocations, bytes)` made by every thread of the process so far.
pub fn global_counts() -> (u64, u64) {
    (
        GLOBAL_ALLOCS.load(Ordering::Relaxed),
        GLOBAL_BYTES.load(Ordering::Relaxed),
    )
}
