//! Telemetry for the SketchQL query pipeline.
//!
//! Zero external dependencies; everything is built on `std` atomics,
//! thread-locals, and the monotonic clock. Four layers:
//!
//! - [`span`] / [`SpanGuard`]: RAII wall-clock timers with hierarchical
//!   parent/child nesting per thread. Dropping the guard records a
//!   [`SpanRecord`] (name, depth, duration).
//! - [`counter`] / [`gauge`] / [`histogram`]: lock-cheap metrics in a
//!   global named registry. Handles are `&'static`; an increment is one
//!   relaxed atomic op (plus, for a counter, a thread-local add that
//!   per-query attribution reads), so loops can update them directly —
//!   or count locally and add once per loop, as the Matcher does.
//! - [`TraceContext`] / [`QueryTrace`]: the one per-query record. A
//!   trace travels with the query across threads (admission queue,
//!   worker, search helpers); threads [`enter`](TraceContext::enter) it
//!   to route their spans into it and to attribute what they count,
//!   allocate and burn to it. [`TraceContext::finalize`] snapshots it
//!   into a [`QueryTrace`] — spans, [`counts`](QueryTrace::counts),
//!   resources — with [`QueryTrace::to_json`] and
//!   [`QueryTrace::render_table`]; finalized traces land in the global
//!   [`flight_recorder`] ring buffer, and — when configured — in the
//!   slow-query log ([`configure_slow_query_log`]).
//! - Resource attribution and profiling: a counting global allocator
//!   ([`thread_allocated`]) and per-thread CPU clocks
//!   ([`thread_cpu_nanos`]) give every trace `alloc_bytes` /
//!   `alloc_count` / `cpu_nanos` (attributed over `enter` scopes), and
//!   a cooperative sampling profiler ([`collect_profile`],
//!   [`start_continuous_profiler`]) folds live span stacks into
//!   flamegraph-compatible output.
//!
//! Registry-wide state exports as JSON ([`snapshot_json`]) or Prometheus
//! text format ([`snapshot_prometheus`]).
//!
//! Metric and span names follow a dotted convention, `sketchql.<stage>.
//! <what>`; the canonical names live in [`names`].

#![warn(missing_docs)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]

mod alloc;
mod cpu;
mod export;
mod flight;
mod metrics;
mod profiler;
mod slowlog;
mod span;
mod trace;

pub use alloc::{thread_allocated, CountingAlloc};
pub use cpu::{current_tid, thread_cpu_nanos, tid_cpu_nanos};
pub use export::{snapshot_json, snapshot_prometheus};
pub use flight::{
    configure_flight_capacity, flight_recorder, FlightRecorder, QueryTrace, FLIGHT_CAPACITY,
};
pub use metrics::{
    counter, gauge, histogram, reset, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
};
pub use profiler::{
    collect_profile, continuous_profile_snapshot, start_continuous_profiler, ProfileEntry,
    ProfileReport,
};
pub use slowlog::{
    configure_slow_query_log, configure_slow_query_log_path_capped, disable_slow_query_log,
};
pub use span::{span, SpanGuard, SpanRecord};
pub use trace::{
    format_trace_id, mint_trace_id, parse_trace_id, TraceContext, TraceGuard, TraceOutcome,
};

/// Canonical metric and span names used across the pipeline.
///
/// Dotted segments name the subsystem and the quantity; exporters
/// sanitize them for Prometheus (`sketchql.matcher.search` becomes
/// `sketchql_matcher_search`).
pub mod names {
    /// Span: one `VideoIndex::build` run.
    pub const INDEX_BUILD: &str = "sketchql.index.build";
    /// Counter: frames run through detection + preprocessing.
    pub const FRAMES_PREPROCESSED: &str = "sketchql.index.frames_preprocessed";
    /// Counter: object tracks materialized into an index.
    pub const TRACKS_BUILT: &str = "sketchql.index.tracks_built";

    /// Span: one `Matcher::search` run.
    pub const MATCHER_SEARCH: &str = "sketchql.matcher.search";
    /// Span: query preparation (embedding the sketch clip).
    pub const MATCHER_PREPARE: &str = "sketchql.matcher.prepare";
    /// Span: sliding-window enumeration and scoring.
    pub const MATCHER_SCAN: &str = "sketchql.matcher.scan";
    /// Span: ranking, NMS, and boundary refinement.
    pub const MATCHER_RANK: &str = "sketchql.matcher.rank";
    /// Counter: candidate windows enumerated across all scales.
    pub const WINDOWS_ENUMERATED: &str = "sketchql.matcher.windows_enumerated";
    /// Counter: windows discarded before scoring (no eligible tracks).
    pub const WINDOWS_PRUNED: &str = "sketchql.matcher.windows_pruned";
    /// Counter: candidate-segment look-ups that paid no encoder row — the
    /// `(track_ids, start, end)` segment was in the index's embedding
    /// memo (an earlier scan embedded it) or already queued by this scan.
    pub const EMBED_CACHE_HITS: &str = "sketchql.matcher.embed_cache_hits";
    /// Counter: distinct candidate segments neither the index's embedding
    /// memo nor the scan had seen: one encoder row each.
    pub const EMBED_CACHE_MISSES: &str = "sketchql.matcher.embed_cache_misses";
    /// Gauge: payload bytes held by the embedding memos of a serving
    /// engine's datasets, as of its last executed query or reload.
    pub const EMBED_MEMO_BYTES: &str = "sketchql.matcher.embed_memo_bytes";
    /// Gauge: segments remembered by the embedding memos of a serving
    /// engine's datasets, as of its last executed query or reload.
    pub const EMBED_MEMO_SEGMENTS: &str = "sketchql.matcher.embed_memo_segments";
    /// Counter: times an index's embedding memo was emptied because a
    /// publish would have passed its byte budget.
    pub const EMBED_MEMO_RESETS: &str = "sketchql.matcher.embed_memo_resets";

    /// Counter: clip embeddings computed by the learned encoder.
    pub const EMBEDDINGS_COMPUTED: &str = "sketchql.similarity.embeddings_computed";
    /// Counter: similarity evaluations (query vs. candidate).
    pub const SIMILARITY_EVALS: &str = "sketchql.similarity.evals";

    /// Span: one ByteTrack association run over a full detection stream.
    pub const TRACKER_ASSOCIATE: &str = "sketchql.tracker.associate";

    /// Span: one full training run.
    pub const TRAINING_RUN: &str = "sketchql.training.run";

    /// Gauge: queries waiting in the server's admission queue.
    pub const SERVER_QUEUE_DEPTH: &str = "sketchql.server.queue_depth";
    /// Histogram: milliseconds a query waited in the admission queue.
    pub const SERVER_QUEUE_WAIT_MS: &str = "sketchql.server.queue_wait_ms";
    /// Histogram: milliseconds a query spent executing on a worker.
    pub const SERVER_EXECUTE_MS: &str = "sketchql.server.execute_ms";
    /// Counter: queries admitted into the queue.
    pub const SERVER_ACCEPTED: &str = "sketchql.server.queries_accepted";
    /// Counter: queries whose deadline expired (in queue or mid-search).
    pub const SERVER_TIMED_OUT: &str = "sketchql.server.queries_timed_out";
    /// Counter: queries completed successfully.
    pub const SERVER_COMPLETED: &str = "sketchql.server.queries_completed";
    /// Counter: queries that failed with a non-deadline error.
    pub const SERVER_FAILED: &str = "sketchql.server.queries_failed";
    /// Counter: wire requests handled (any type, any outcome).
    pub const SERVER_REQUESTS: &str = "sketchql.server.requests";
    /// Span: time a query spent in the admission queue (recorded into
    /// its trace by the worker that dequeued it).
    pub const SERVER_QUEUE_WAIT: &str = "sketchql.server.queue_wait";
    /// Span: a worker executing a query.
    pub const SERVER_EXECUTE: &str = "sketchql.server.execute";
    /// Span: serializing and writing a query's wire response.
    pub const SERVER_SERIALIZE: &str = "sketchql.server.serialize";
    /// Histogram: milliseconds between a query finishing and its
    /// deadline (negative = the deadline had already passed).
    pub const SERVER_DEADLINE_MARGIN_MS: &str = "sketchql.server.deadline_margin_ms";
    /// Counter: queries shed at admission because the queue was full.
    pub const SERVER_SHED_QUEUE_FULL: &str = "sketchql.server.shed_queue_full";
    /// Counter: queries shed at admission during shutdown.
    pub const SERVER_SHED_SHUTDOWN: &str = "sketchql.server.shed_shutdown";
    /// Counter: queries shed at dequeue because their deadline expired
    /// while still waiting in the admission queue.
    pub const SERVER_SHED_DEADLINE_QUEUE: &str = "sketchql.server.shed_deadline_queue";
    /// Counter: queries abandoned because the caller cancelled them.
    pub const SERVER_SHED_CANCELLED: &str = "sketchql.server.shed_cancelled";

    /// Span: one offline store ingest (window enumeration + embedding +
    /// persistence).
    pub const STORE_BUILD: &str = "sketchql.store.build";
    /// Counter: queries answered from a persistent store (index-backed
    /// path taken end to end).
    pub const STORE_HITS: &str = "sketchql.store.hits";
    /// Counter: queries that had a store available but fell back to the
    /// full scan; each is also counted under one of the
    /// `sketchql.store.fallback.<reason>` names below.
    pub const STORE_FALLBACKS: &str = "sketchql.store.fallbacks";
    /// Counter: fallbacks because the sketch has more than one object
    /// (stores hold single-track rows).
    pub const STORE_FALLBACK_MULTI_OBJECT: &str = "sketchql.store.fallback.multi_object";
    /// Counter: fallbacks because the store was embedded by another model.
    pub const STORE_FALLBACK_MODEL_FINGERPRINT: &str = "sketchql.store.fallback.model_fingerprint";
    /// Counter: fallbacks because the store was built from other tracks.
    pub const STORE_FALLBACK_INDEX_FINGERPRINT: &str = "sketchql.store.fallback.index_fingerprint";
    /// Counter: fallbacks because the store's window grid (stride,
    /// overlap floor, ingested window lengths) does not cover the query's.
    pub const STORE_FALLBACK_WINDOW_GRID: &str = "sketchql.store.fallback.window_grid";
    /// Counter: fallbacks because a probed shard failed to load.
    pub const STORE_FALLBACK_SHARD_LOAD: &str = "sketchql.store.fallback.shard_load";
    /// Counter: store rows probed (retrieved from inverted lists and
    /// exactly re-ranked).
    pub const STORE_PROBED: &str = "sketchql.store.rows_probed";
    /// Span: one ANN probe + exact re-rank against a persistent store.
    pub const STORE_PROBE: &str = "sketchql.store.probe";

    /// Gauge: shards currently resident (checksummed and decoded) across
    /// every attached shard set. Starts at 0 on attach — a shard is
    /// mapped there and verified on first probe.
    pub const SHARD_RESIDENT: &str = "sketchql.shard.resident";
    /// Counter: shard load events (first probes that verified and
    /// decoded a mapped shard).
    pub const SHARD_LOADS: &str = "sketchql.shard.loads";
    /// Counter: shard loads that failed (corrupt, truncated, or
    /// unreadable shard files discovered at first probe).
    pub const SHARD_LOAD_ERRORS: &str = "sketchql.shard.load_errors";
    /// Counter: shards consulted by probes (loaded and their posting
    /// lists gathered).
    pub const SHARD_PROBES: &str = "sketchql.shard.probes";
    /// Gauge: bytes of shard files currently memory-mapped across every
    /// attached shard set (published at attach and on drop).
    pub const SHARD_BYTES_MAPPED: &str = "sketchql.shard.bytes_mapped";
    /// Span: verifying one shard on first probe (checksum + column
    /// decode).
    pub const SHARD_LOAD: &str = "sketchql.shard.load";

    /// Span: one `append_frames` call (enumerate + embed + commit).
    pub const LIVE_APPEND: &str = "sketchql.live.append";
    /// Gauge: standing queries currently registered.
    pub const LIVE_REGISTRATIONS: &str = "sketchql.live.registrations";
    /// Counter: standing-query evaluations (one per registration per
    /// ingest epoch).
    pub const LIVE_EVALUATIONS: &str = "sketchql.live.evaluations";
    /// Counter: matches delivered into notification queues.
    pub const LIVE_NOTIFICATIONS: &str = "sketchql.live.notifications";
    /// Counter: notifications shed because a registration's bounded
    /// queue overflowed (oldest dropped first).
    pub const LIVE_DROPPED: &str = "sketchql.live.dropped";

    /// Span: embedding the candidate clips of one scan (the batched,
    /// possibly parallel encoder pass).
    pub const MATCHER_EMBED: &str = "sketchql.matcher.embed";

    /// Counter: CPU nanoseconds attributed to finalized query traces.
    pub const RESOURCE_CPU_NANOS: &str = "sketchql.resource.cpu_nanos";
}
