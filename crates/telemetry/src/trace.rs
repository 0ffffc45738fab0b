//! Per-query trace contexts: the spine of end-to-end query tracing.
//!
//! A [`TraceContext`] is minted where a query is born (the wire client,
//! the engine, or an in-process session's `run_query`) and handed along
//! the query path — wire protocol, admission queue, worker thread, and
//! the helper threads a search fans out to. Any thread that is about to
//! do work on behalf of the query calls [`TraceContext::enter`]; while
//! the returned guard lives, every span completed on that thread is
//! delivered into the trace, and when it drops, the counts, heap and CPU
//! the thread spent inside it are added to the trace. A thread may enter
//! several contexts at once, in which case each completed span and every
//! count is attributed to *all* of them; a helper thread enters what its
//! spawner had entered ([`TraceContext::entered`]), so its work lands in
//! the same trace.
//!
//! When the query is done, [`TraceContext::finalize`] snapshots the
//! spans into an immutable [`QueryTrace`], records it in the global
//! [flight recorder](crate::flight_recorder), and offers it to the
//! [slow-query log](crate::configure_slow_query_log). Finalization is
//! idempotent and also runs from `Drop` as a safety net, so shed or
//! abandoned queries still leave a trace.
//!
//! Trace ids are 48-bit so they survive JSON transports that store
//! numbers as `f64` (exact only up to 2^53).

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::flight::{flight_recorder, QueryTrace};
use crate::slowlog;
use crate::span::nanos_since_epoch;
use crate::span::SpanRecord;

/// How a traced query ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The query ran to completion and returned moments.
    #[default]
    Completed,
    /// The query's deadline expired (in queue or mid-search).
    DeadlineExceeded,
    /// The query was cancelled by the caller.
    Cancelled,
    /// The query was shed at admission (queue full or shutdown).
    Shed,
    /// The query failed with an error.
    Failed,
}

impl TraceOutcome {
    /// Stable lowercase wire/log name for the outcome.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceOutcome::Completed => "completed",
            TraceOutcome::DeadlineExceeded => "deadline_exceeded",
            TraceOutcome::Cancelled => "cancelled",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Failed => "failed",
        }
    }
}

/// Mints a fresh 48-bit trace id: unique within a process, very likely
/// unique across the processes of one deployment. Never 0 (`0` means
/// "no trace").
pub fn mint_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let pid = std::process::id() as u64;
    // FNV-1a over (clock, pid, seq) — cheap, well mixed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [clock, pid, seq] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // 48 bits: exact in an f64, so the id round-trips through JSON.
    let id = h & 0xffff_ffff_ffff;
    if id == 0 {
        1
    } else {
        id
    }
}

/// Formats a trace id the way operators see it: 12 hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:012x}")
}

/// Parses a trace id as printed by [`format_trace_id`] (hex, with or
/// without a `0x` prefix). Returns `None` for malformed or zero ids.
pub fn parse_trace_id(s: &str) -> Option<u64> {
    let s = s.trim();
    let s = s.strip_prefix("0x").unwrap_or(s);
    match u64::from_str_radix(s, 16) {
        Ok(0) | Err(_) => None,
        Ok(id) => Some(id),
    }
}

#[derive(Debug)]
struct TraceMeta {
    label: String,
    outcome: TraceOutcome,
}

#[derive(Debug)]
pub(crate) struct TraceInner {
    id: u64,
    started: Instant,
    start_nanos: u64,
    meta: Mutex<TraceMeta>,
    spans: Mutex<Vec<SpanRecord>>,
    // Attributed by TraceGuard drops: every thread that entered the
    // trace adds what it counted (by counter slot) and the heap and CPU
    // it consumed while inside.
    counts: Mutex<Vec<u64>>,
    alloc_bytes: AtomicU64,
    alloc_count: AtomicU64,
    cpu_nanos: AtomicU64,
    finalized: AtomicBool,
}

impl TraceInner {
    /// Snapshots this trace into a [`QueryTrace`] and publishes it to
    /// the flight recorder and the slow-query log. Idempotent: the
    /// first caller (explicit [`TraceContext::finalize`] or the `Drop`
    /// safety net) wins, later calls return `None`.
    fn do_finalize(&self) -> Option<Arc<QueryTrace>> {
        if self.finalized.swap(true, Ordering::AcqRel) {
            return None;
        }
        let total_nanos = self.started.elapsed().as_nanos() as u64;
        let spans = std::mem::take(&mut *self.spans.lock().unwrap());
        let counts = crate::metrics::named_counts(&self.counts.lock().unwrap());
        let alloc_bytes = self.alloc_bytes.load(Ordering::Relaxed);
        let alloc_count = self.alloc_count.load(Ordering::Relaxed);
        let cpu_nanos = self.cpu_nanos.load(Ordering::Relaxed);
        let trace = {
            let meta = self.meta.lock().unwrap();
            Arc::new(QueryTrace {
                trace_id: self.id,
                label: meta.label.clone(),
                outcome: meta.outcome,
                start_nanos: self.start_nanos,
                total_nanos,
                alloc_bytes,
                alloc_count,
                cpu_nanos,
                counts,
                spans,
            })
        };
        crate::metrics::counter(crate::names::RESOURCE_CPU_NANOS).add(cpu_nanos);
        flight_recorder().record(Arc::clone(&trace));
        slowlog::observe_trace(&trace);
        Some(trace)
    }
}

impl Drop for TraceInner {
    fn drop(&mut self) {
        // Safety net for abandoned queries (shed at admission, handle
        // dropped, worker panicked past the result): they still land in
        // the flight recorder and slow-query log.
        let _ = self.do_finalize();
    }
}

/// A handle on one query's trace: its id plus the span sink that
/// travels with the query. Cheap to clone (an `Arc` bump); all clones
/// share the same span buffer and finalize at most once.
#[derive(Clone, Debug)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl PartialEq for TraceContext {
    fn eq(&self, other: &Self) -> bool {
        self.id() == other.id()
    }
}

impl TraceContext {
    /// Starts a new trace with a freshly minted id.
    pub fn new() -> Self {
        Self::with_id(mint_trace_id())
    }

    /// Starts a new trace under an externally minted id (the id a wire
    /// client sent along with its query).
    pub fn with_id(id: u64) -> Self {
        let started = Instant::now();
        TraceContext {
            inner: Arc::new(TraceInner {
                id,
                started,
                start_nanos: nanos_since_epoch(started),
                meta: Mutex::new(TraceMeta {
                    label: String::new(),
                    outcome: TraceOutcome::Completed,
                }),
                spans: Mutex::new(Vec::new()),
                counts: Mutex::new(Vec::new()),
                alloc_bytes: AtomicU64::new(0),
                alloc_count: AtomicU64::new(0),
                cpu_nanos: AtomicU64::new(0),
                finalized: AtomicBool::new(false),
            }),
        }
    }

    /// The trace id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Registers this trace as a span sink on the current thread; while
    /// the returned guard lives, spans completed on this thread are
    /// delivered into this trace (and into any other traces the thread
    /// has entered). The guard
    /// also scopes attribution: what the thread adds to any
    /// [`Counter`](crate::Counter), the heap it allocates and the CPU it
    /// burns while the guard lives are added to the trace's `counts` /
    /// `alloc_bytes` / `alloc_count` / `cpu_nanos` on drop.
    #[must_use = "spans are only delivered to the trace while the guard is alive"]
    pub fn enter(&self) -> TraceGuard {
        crate::profiler::ensure_registered();
        ACTIVE.with(|a| a.borrow_mut().push(Arc::clone(&self.inner)));
        // The tally copy allocates, so it is taken before the heap base.
        let base_tally = crate::metrics::thread_tally();
        let (base_alloc_bytes, base_alloc_count) = crate::alloc::thread_allocated();
        TraceGuard {
            entered: Arc::clone(&self.inner),
            base_tally,
            base_alloc_bytes,
            base_alloc_count,
            base_cpu: crate::cpu::stamp(),
            _not_send: PhantomData,
        }
    }

    /// The traces the current thread has entered, as independent
    /// contexts — what a worker captures right before handing work to a
    /// helper thread, so the helper can `enter()` them too and its
    /// spans, counts and resources attribute to the same queries. Empty when no
    /// trace is active.
    pub fn entered() -> Vec<TraceContext> {
        ACTIVE.with(|a| {
            a.borrow()
                .iter()
                .map(|inner| TraceContext {
                    inner: Arc::clone(inner),
                })
                .collect()
        })
    }

    /// Sets the human-readable label (usually `dataset/query`).
    pub fn set_label(&self, label: impl Into<String>) {
        self.inner.meta.lock().unwrap().label = label.into();
    }

    /// Sets how the query ended (defaults to [`TraceOutcome::Completed`]).
    pub fn set_outcome(&self, outcome: TraceOutcome) {
        self.inner.meta.lock().unwrap().outcome = outcome;
    }

    /// Records a span directly into this trace, for intervals measured
    /// outside any thread's RAII scope (e.g. time spent in the
    /// admission queue, timed between two threads).
    pub fn record_span(&self, name: &'static str, depth: usize, start: Instant, nanos: u64) {
        self.inner.spans.lock().unwrap().push(SpanRecord {
            name,
            depth,
            start_nanos: nanos_since_epoch(start),
            nanos,
        });
    }

    /// Closes the trace: snapshots its spans into a [`QueryTrace`],
    /// records it in the global flight recorder, and offers it to the
    /// slow-query log. Returns the snapshot, or `None` if the trace was
    /// already finalized (by another clone or the `Drop` safety net).
    pub fn finalize(&self) -> Option<std::sync::Arc<QueryTrace>> {
        self.inner.do_finalize()
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        Self::new()
    }
}

// The traces the current thread has entered, innermost last. Spans
// completed on this thread are delivered to all of them.
thread_local! {
    static ACTIVE: RefCell<Vec<Arc<TraceInner>>> = const { RefCell::new(Vec::new()) };
}

/// Delivers a completed span to every trace entered on this thread
/// (none entered: the span is dropped).
pub(crate) fn deliver(record: SpanRecord) {
    ACTIVE.with(|a| {
        for sink in a.borrow().iter() {
            sink.spans.lock().unwrap().push(record.clone());
        }
    })
}

/// RAII guard from [`TraceContext::enter`]; leaving the scope stops
/// delivering this thread's spans to the trace and attributes the
/// counts, heap and CPU the thread spent inside the scope to it. Not
/// `Send`: the guard must drop on the thread that entered.
#[must_use = "spans are only delivered to the trace while the guard is alive"]
pub struct TraceGuard {
    entered: Arc<TraceInner>,
    base_tally: Vec<u64>,
    base_alloc_bytes: u64,
    base_alloc_count: u64,
    base_cpu: crate::cpu::CpuStamp,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let inner = &self.entered;
        // Attribute this thread's consumption over the guard's
        // lifetime; a thread inside several traces charges each of them
        // the full amount — the same semantics spans already have.
        let (bytes, count) = crate::alloc::thread_allocated();
        inner
            .alloc_bytes
            .fetch_add(bytes.wrapping_sub(self.base_alloc_bytes), Ordering::Relaxed);
        inner
            .alloc_count
            .fetch_add(count.wrapping_sub(self.base_alloc_count), Ordering::Relaxed);
        inner
            .cpu_nanos
            .fetch_add(crate::cpu::nanos_since(&self.base_cpu), Ordering::Relaxed);
        crate::metrics::add_tally_since(&self.base_tally, &mut inner.counts.lock().unwrap());
        ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            // Remove the most recent matching entry (guards usually
            // drop LIFO, but nothing forces them to).
            if let Some(pos) = active.iter().rposition(|s| Arc::ptr_eq(s, inner)) {
                active.remove(pos);
            }
        });
    }
}
