//! A counting `#[global_allocator]` wrapper: per-thread allocation
//! accounting with zero dependencies.
//!
//! Every allocation that goes through the global allocator bumps two
//! thread-local cells (bytes, count) when the allocating thread's TLS is
//! alive, and nothing else; there are no process-wide totals. The cells
//! are what attribution scopes diff: a [`TraceGuard`](crate::TraceGuard)
//! snapshots them on entry and adds the delta to its trace on drop, so
//! heap traffic lands on the query that caused it even when several
//! queries run concurrently on different workers.
//!
//! The wrapper delegates to [`std::alloc::System`] and adds one TLS
//! lookup plus two `Cell` bumps per allocation, with no shared cache line
//! on the alloc fast path — cheap enough to leave on in production
//! (perfbench's `bench.trace_overhead_ratio` measures the whole telemetry
//! stack).
//!
//! Frees are intentionally not tracked: the interesting per-query number
//! is allocation *pressure* (how much the query churned), not live heap,
//! and skipping `dealloc` keeps the wrapper off the free fast path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The counting allocator, installed as the `#[global_allocator]` of
/// every binary that links this crate.
pub struct CountingAlloc;

/// Per-thread allocation state: the exact monotonic counters the
/// attribution scopes diff.
struct ThreadAllocState {
    bytes: Cell<u64>,
    count: Cell<u64>,
}

thread_local! {
    static THREAD_ALLOC: ThreadAllocState = const {
        ThreadAllocState {
            bytes: Cell::new(0),
            count: Cell::new(0),
        }
    };
}

/// Records one allocation of `size` bytes. Must not allocate itself:
/// it runs inside the allocator. `try_with` skips allocations made
/// during TLS teardown at thread exit, which no scope can observe.
#[inline]
fn note(size: usize) {
    let _ = THREAD_ALLOC.try_with(|s| {
        s.bytes.set(s.bytes.get().wrapping_add(size as u64));
        s.count.set(s.count.get().wrapping_add(1));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns its result
// unchanged; the only addition, `note`, allocates nothing and touches
// only this thread's cells, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            note(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            note(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        // Count only growth: a grow-in-place or move both make new bytes
        // available to the caller; a shrink allocates nothing new.
        if !new_ptr.is_null() && new_size > layout.size() {
            note(new_size - layout.size());
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// `(bytes, allocations)` performed by the current thread since it
/// started. Monotonic per thread; diffs of successive calls measure the
/// traffic in between.
pub fn thread_allocated() -> (u64, u64) {
    THREAD_ALLOC
        .try_with(|s| (s.bytes.get(), s.count.get()))
        .unwrap_or((0, 0))
}
