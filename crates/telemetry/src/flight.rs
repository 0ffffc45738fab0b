//! The flight recorder: a fixed-size, lock-light ring buffer retaining
//! the last N complete query traces.
//!
//! Always on (capacity is small and writes are one slot-mutex store),
//! so when a query misbehaves in production its trace is already there
//! to fetch — no need to reproduce under instrumentation. The server
//! exposes it through the `Trace` wire request; in-process callers use
//! [`flight_recorder`] directly.
//!
//! Each slot has its own mutex and writers claim slots with one atomic
//! fetch-add, so concurrent workers recording traces never contend on a
//! shared lock (two writers only touch the same mutex when the ring
//! wraps onto a slot mid-read).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::names;
use crate::span::SpanRecord;
use crate::trace::TraceOutcome;

/// Traces retained by the global flight recorder by default; override
/// before first use with [`configure_flight_capacity`].
pub const FLIGHT_CAPACITY: usize = 256;

/// An immutable snapshot of one finished query trace: the one record
/// of what a query did and cost. Everything in it was attributed
/// through the threads that [entered](crate::TraceContext::enter) the
/// trace, so it is exact per query whatever else the process is
/// running.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// The trace id minted at the query's origin.
    pub trace_id: u64,
    /// Human-readable label, usually `dataset/query`.
    pub label: String,
    /// How the query ended.
    pub outcome: TraceOutcome,
    /// When the trace started, nanoseconds since the process telemetry
    /// epoch. Span `start_nanos` values share the same epoch, so
    /// `span.start_nanos - trace.start_nanos` is the span's offset into
    /// the query.
    pub start_nanos: u64,
    /// Wall time from trace creation to finalization, nanoseconds.
    pub total_nanos: u64,
    /// Heap bytes allocated inside the query's attribution scopes (all
    /// threads that entered the trace, summed).
    pub alloc_bytes: u64,
    /// Heap allocations inside the query's attribution scopes.
    pub alloc_count: u64,
    /// CPU nanoseconds burned inside the query's attribution scopes
    /// (wall-clock upper bound on platforms without a thread CPU clock).
    pub cpu_nanos: u64,
    /// What the query's threads added to the registry's counters while
    /// inside the trace: `(counter name, count)` in name order, only
    /// the counters that moved.
    pub counts: Vec<(&'static str, u64)>,
    /// Completed spans, in completion order (children precede parents).
    pub spans: Vec<SpanRecord>,
}

impl QueryTrace {
    /// How much the query added to the counter `name` (0 if it never
    /// touched it), e.g. `trace.count(names::WINDOWS_ENUMERATED)`.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Fraction of candidate-segment look-ups that paid no encoder row
    /// (served by the index's embedding memo or already queued by the
    /// same scan), or `None` when the query never looked one up
    /// (classical similarity, store-served). 0 of N = a cold memo.
    pub fn embed_cache_hit_rate(&self) -> Option<f64> {
        let hits = self.count(names::EMBED_CACHE_HITS);
        let total = hits + self.count(names::EMBED_CACHE_MISSES);
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Per-stage wall times: the depth-0 spans, in completion order.
    pub fn stages(&self) -> Vec<(&'static str, u64)> {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| (s.name, s.nanos))
            .collect()
    }

    /// Wall-clock nanoseconds covered by the depth-0 spans: the length
    /// of the *union* of their intervals, not the plain sum. Nested or
    /// overlapping top-level spans (concurrent threads inside one trace
    /// can both be at depth 0) therefore never push stage coverage past
    /// 100% of
    /// [`total_nanos`](Self::total_nanos). For a fully instrumented
    /// query this lands within a few percent of the total.
    pub fn stage_nanos_sum(&self) -> u64 {
        let mut intervals: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| (s.start_nanos, s.start_nanos.saturating_add(s.nanos)))
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = 0u64;
        for (start, end) in intervals {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        covered
    }

    /// The spans as `(name, depth, offset_nanos, nanos)` sorted by
    /// start offset — the waterfall view. Offsets are relative to the
    /// trace start (saturating at 0 for spans recorded before it).
    pub fn waterfall(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut rows: Vec<_> = self
            .spans
            .iter()
            .map(|s| {
                (
                    s.name,
                    s.depth,
                    s.start_nanos.saturating_sub(self.start_nanos),
                    s.nanos,
                )
            })
            .collect();
        rows.sort_by_key(|&(_, depth, offset, _)| (offset, depth));
        rows
    }
}

struct Slot {
    /// `(sequence, trace)`: the sequence number orders entries across
    /// slots so `recent` can return newest-first after the ring wraps.
    entry: Mutex<Option<(u64, Arc<QueryTrace>)>>,
}

/// Fixed-size ring buffer of finished query traces.
///
/// The global instance behind [`flight_recorder`] serves production;
/// the type is public so tests can hammer a private instance and assert
/// exact retention.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    seq: AtomicU64,
}

impl FlightRecorder {
    /// Creates a recorder retaining the last `capacity` traces
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity)
                .map(|_| Slot {
                    entry: Mutex::new(None),
                })
                .collect(),
            seq: AtomicU64::new(0),
        }
    }

    /// How many traces this recorder retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces recorded over the recorder's lifetime (not capped
    /// by capacity).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records a finished trace, evicting the oldest entry once the
    /// ring is full.
    pub fn record(&self, trace: Arc<QueryTrace>) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.entry.lock().unwrap() = Some((seq, trace));
    }

    /// The most recent traces, newest first, at most `limit`.
    pub fn recent(&self, limit: usize) -> Vec<Arc<QueryTrace>> {
        let mut entries: Vec<(u64, Arc<QueryTrace>)> = self
            .slots
            .iter()
            .filter_map(|s| s.entry.lock().unwrap().clone())
            .collect();
        entries.sort_by_key(|(seq, _)| std::cmp::Reverse(*seq));
        entries.truncate(limit);
        entries.into_iter().map(|(_, t)| t).collect()
    }

    /// Looks up a retained trace by id (the most recent one, should an
    /// id ever collide).
    pub fn find(&self, trace_id: u64) -> Option<Arc<QueryTrace>> {
        self.slots
            .iter()
            .filter_map(|s| s.entry.lock().unwrap().clone())
            .filter(|(_, t)| t.trace_id == trace_id)
            .max_by_key(|(seq, _)| *seq)
            .map(|(_, t)| t)
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// Capacity the global recorder will be built with; read exactly once,
/// inside the `get_or_init` closure.
static CONFIGURED_CAPACITY: AtomicUsize = AtomicUsize::new(FLIGHT_CAPACITY);

/// Sets the capacity of the process-wide flight recorder. Must run
/// before the first call to [`flight_recorder`] (directly or through
/// any trace finalization): returns `true` if the configuration took
/// effect, `false` if the recorder already existed (its capacity is
/// then unchanged — the ring cannot be resized while writers hold
/// slots). `capacity` is clamped to a minimum of 1.
pub fn configure_flight_capacity(capacity: usize) -> bool {
    CONFIGURED_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
    // Initialization is the only consumer of the configured value; if
    // the recorder is already live the store above changed nothing.
    GLOBAL.get().is_none() && {
        // Re-check under the OnceLock by comparing the built capacity:
        // a racing first-use may have initialized between the check and
        // here, but then it read either the old or the new value — only
        // report success when the live ring matches the request.
        flight_recorder().capacity() == capacity.max(1)
    }
}

/// The process-wide flight recorder ([`FLIGHT_CAPACITY`] traces unless
/// [`configure_flight_capacity`] ran before first use).
pub fn flight_recorder() -> &'static FlightRecorder {
    GLOBAL
        .get_or_init(|| FlightRecorder::with_capacity(CONFIGURED_CAPACITY.load(Ordering::Relaxed)))
}
