//! RAII span timers with hierarchical nesting.
//!
//! [`span`] starts a timer on the current thread and bumps the thread's
//! nesting depth; dropping the returned [`SpanGuard`] records a
//! [`SpanRecord`] with the span's depth relative to its enclosing spans.
//!
//! Completed spans are delivered to every [`TraceContext`] the current
//! thread has entered (see [`TraceContext::enter`]); a span that
//! completes while no trace is entered is dropped. Opening and closing
//! a span touches only thread-locals and the clock: no lock, no
//! allocation.
//!
//! Durations come from [`std::time::Instant`], the monotonic clock, so
//! they are immune to wall-clock adjustments. Span start times are
//! stored as offsets from a per-process epoch (the first telemetry
//! event), which lets reports reassemble a waterfall without shipping
//! `Instant`s around.
//!
//! [`TraceContext`]: crate::TraceContext
//! [`TraceContext::enter`]: crate::TraceContext::enter

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// One completed span on the thread that created it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `sketchql.matcher.search`.
    pub name: &'static str,
    /// Nesting depth when the span ran: 0 for top-level spans, 1 for
    /// spans opened inside a depth-0 span, and so on.
    pub depth: usize,
    /// When the span started, nanoseconds since the process telemetry
    /// epoch. Only ordering and differences are meaningful.
    pub start_nanos: u64,
    /// Elapsed monotonic time in nanoseconds.
    pub nanos: u64,
}

thread_local! {
    /// How many spans are open on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The per-process telemetry epoch: fixed at the first telemetry event.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds between the process epoch and `at` (0 if `at` precedes
/// the epoch, which can only happen for the instant that seeded it).
pub(crate) fn nanos_since_epoch(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Live span; records itself when dropped.
///
/// Guards must drop in reverse creation order (normal lexical scoping)
/// for depths to nest correctly — the usual RAII pattern:
///
/// ```
/// let _outer = sketchql_telemetry::span("sketchql.matcher.search");
/// {
///     let _inner = sketchql_telemetry::span("sketchql.matcher.prepare");
///     // ... timed work ...
/// } // _inner records at depth 1
/// // _outer records at depth 0 when it goes out of scope
/// ```
#[must_use = "a span measures the scope holding its guard; binding it to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
}

/// Opens a span on the current thread.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    epoch(); // pin the epoch no later than the first span
    DEPTH.with(|d| d.set(d.get() + 1));
    SpanGuard {
        name,
        start: Instant::now(),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        let start_nanos = nanos_since_epoch(self.start);
        let depth = DEPTH.with(|d| {
            d.set(d.get().saturating_sub(1));
            d.get()
        });
        crate::trace::deliver(SpanRecord {
            name: self.name,
            depth,
            start_nanos,
            nanos,
        });
    }
}
