//! A counting `#[global_allocator]` wrapper: per-process and per-thread
//! allocation accounting with zero dependencies.
//!
//! Every allocation that goes through the global allocator bumps two
//! process-wide atomics (bytes, count) and, when the allocating thread's
//! TLS is alive, two thread-local cells. The thread-local counters are
//! what attribution scopes diff: a [`TraceGuard`](crate::TraceGuard)
//! snapshots them on entry and adds the delta to its trace on drop, so
//! heap traffic lands on the query that caused it even when several
//! queries run concurrently on different workers.
//!
//! The wrapper delegates to [`std::alloc::System`] and adds one TLS
//! lookup plus a few `Cell` bumps per allocation; the process-wide
//! atomics are only touched every [`FLUSH_EVERY`] allocations per thread
//! (batched flush), keeping contended cache-line traffic off the alloc
//! fast path. That is cheap enough to leave on in production (perfbench's
//! `bench.trace_overhead_ratio` holds the whole telemetry stack under 2%).
//!
//! Frees are intentionally not tracked: the interesting per-query number
//! is allocation *pressure* (how much the query churned), not live heap,
//! and skipping `dealloc` keeps the wrapper off the free fast path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The counting allocator, installed as the `#[global_allocator]` of
/// every binary that links this crate.
pub struct CountingAlloc;

static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);

/// Allocations a thread accumulates locally before folding them into the
/// process-wide atomics. The process totals therefore lag each thread by
/// at most this many allocations — fine for the export-time gauges they
/// feed, and it keeps the shared cache line out of the alloc fast path.
const FLUSH_EVERY: u64 = 64;

/// Per-thread allocation state: the exact monotonic counters the
/// attribution scopes diff, plus the not-yet-flushed share of the
/// process-wide totals.
struct ThreadAllocState {
    bytes: Cell<u64>,
    count: Cell<u64>,
    pending_bytes: Cell<u64>,
    pending_count: Cell<u64>,
}

thread_local! {
    static THREAD_ALLOC: ThreadAllocState = const {
        ThreadAllocState {
            bytes: Cell::new(0),
            count: Cell::new(0),
            pending_bytes: Cell::new(0),
            pending_count: Cell::new(0),
        }
    };
}

/// Records one allocation of `size` bytes. Must not allocate itself:
/// it runs inside the allocator. `try_with` covers TLS teardown during
/// thread exit, when only the process-wide totals can be updated.
#[inline]
fn note(size: usize) {
    let in_tls = THREAD_ALLOC.try_with(|s| {
        s.bytes.set(s.bytes.get().wrapping_add(size as u64));
        s.count.set(s.count.get().wrapping_add(1));
        let pending_bytes = s.pending_bytes.get().wrapping_add(size as u64);
        let pending_count = s.pending_count.get() + 1;
        if pending_count >= FLUSH_EVERY {
            TOTAL_BYTES.fetch_add(pending_bytes, Ordering::Relaxed);
            TOTAL_COUNT.fetch_add(pending_count, Ordering::Relaxed);
            s.pending_bytes.set(0);
            s.pending_count.set(0);
        } else {
            s.pending_bytes.set(pending_bytes);
            s.pending_count.set(pending_count);
        }
    });
    if in_tls.is_err() {
        TOTAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        TOTAL_COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

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

/// `(bytes, allocations)` performed process-wide since start. Monotonic;
/// this is cumulative allocation pressure, not the live heap size, and
/// it may lag the per-thread truth by up to [`FLUSH_EVERY`] allocations
/// per live thread (batched flush).
pub fn process_allocated() -> (u64, u64) {
    (
        TOTAL_BYTES.load(Ordering::Relaxed),
        TOTAL_COUNT.load(Ordering::Relaxed),
    )
}
