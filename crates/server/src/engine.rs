//! The query engine: a fixed worker pool behind a bounded admission queue.
//!
//! [`Engine::start`] takes ownership of a trained model and a set of named
//! [`VideoIndex`]es and spawns `workers` threads. Queries enter through
//! [`Engine::submit`] (non-blocking admission) or [`Engine::execute`]
//! (submit + wait). Admission is strict: a full queue returns
//! [`EngineError::Overloaded`] immediately — the queue never grows beyond
//! [`EngineConfig::queue_depth`], so an overloaded engine sheds load
//! instead of accumulating unbounded latency.
//!
//! ## Scheduling policy
//!
//! Admission and ordering are governed by an explicit [`SchedPolicy`]:
//!
//! - **Admission classes**: every query resolves to a named class
//!   (undeclared wire classes collapse into `"default"`, keeping the
//!   class set — and stats/metric cardinality — fixed at start). A class
//!   can carry a queue quota (its own slice of the admission queue,
//!   rejected with [`EngineError::Overloaded`]) and a token-bucket rate
//!   limit (rejected with [`EngineError::RateLimited`]), so one noisy
//!   tenant can't crowd out the rest.
//! - **Priority with starvation protection**: workers dequeue the
//!   highest *effective* priority — the class/query base priority plus
//!   one promotion credit per [`SchedPolicy::aging_ms`] waited — with
//!   earliest-deadline-first tie-breaks and FIFO order after that. Aging
//!   bounds starvation: any query's effective priority eventually passes
//!   any fixed base. With no priorities or deadlines declared this is
//!   exact arrival order.
//!
//! ## Deadlines and cancellation
//!
//! Every admitted query carries a [`CancelToken`]. Its deadline is the
//! per-query deadline if given, else [`EngineConfig::default_deadline`].
//! Two parties read the token. The *caller*, blocked in
//! [`QueryHandle::wait`], sleeps no longer than its own deadline and
//! answers itself [`EngineError::DeadlineExceeded`] the moment it passes
//! — whether the query is still queued behind a backlog or already in
//! flight — so a deadline is honoured when it expires, not when a worker
//! next frees up. The *work* stops on its own: the token is checked when
//! the query leaves the queue (an expired one never runs) and polled
//! cooperatively inside the Matcher's scan, so a deadline that trips
//! mid-search aborts the remaining work promptly. Caller and worker race
//! through one claim (`Member::claim`); exactly one of them answers and
//! is counted. Callers can also cancel explicitly through the
//! [`QueryHandle`].
//!
//! ## One query, one execution
//!
//! A worker dequeues one query and executes it as one
//! [`Matcher::search_stored`] call under that query's own token and
//! trace — the only search call the engine makes, whether or not the
//! dataset has a store. Queries never fuse. What concurrent queries of
//! one dataset share is the index's window memo: a window's candidates
//! and their embeddings depend only on the index, the model and the
//! window, not on the query, so a window grid any query has scanned
//! costs every later query look-ups, not encoder rows. Every trace
//! therefore records exactly one query's work, and
//! [`QueryResult::batch_size`] is always 1.
//!
//! ## One tally
//!
//! Every traffic event — admitted, completed, timed out, cancelled,
//! failed, drained at shutdown, shed at admission — is counted by one
//! function (`tally`): the per-engine atomics behind [`EngineStats`], the
//! process-wide `sketchql.server.*` counters and the trace's outcome all
//! move there and nowhere else, so the three views cannot drift apart.
//!
//! ## Index-backed datasets
//!
//! [`Engine::start_with_stores`] additionally accepts persistent
//! embedding stores (shard sets built offline by
//! `sketchql::ingest_sharded`). A store is warm-validated at startup —
//! it must name a loaded dataset and carry the model's and index's
//! fingerprints — and mismatches are dropped so every query against
//! that dataset takes the scan. Store effectiveness is mirrored in plain
//! atomics ([`EngineStats::store_hits`] and friends): those are per
//! engine, where the telemetry registry is one per process.
//!
//! ## Live ingest and standing queries
//!
//! Datasets and their stores live behind a swappable snapshot: every
//! query works against one `Arc`'d view for its whole run, and
//! [`Engine::reload_dataset`] replaces the view wholesale — readers
//! never observe a half-swapped dataset. A reload
//! also drives the standing-query registry (see the [`live`]
//! module): each registration behind the new frame count is evaluated
//! as one epoch-scoped query (`min_end` = its watermark) submitted
//! through normal admission under the auto-declared [`LIVE_CLASS`]
//! (base priority [`live::LIVE_PRIORITY`]), so live evaluation shares
//! the queue with interactive traffic but never preempts it. Scoped
//! queries ride the same store probe + exact re-rank path, so a
//! standing query's scores are bit-identical to an offline query over
//! the appended range.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sketchql::{
    CancelReason, CancelToken, LearnedSimilarity, MatchError, Matcher, MatcherConfig,
    RetrievedMoment, ShardSet, SimilarityError, StoreSearch, TrainedModel, VideoIndex,
};
use sketchql_telemetry::{self as telemetry, names, TraceContext, TraceOutcome};
use sketchql_trajectory::Clip;

use crate::live::{
    self, LiveNotifications, LiveRegistration, LiveRegistry, LiveReload, LIVE_CLASS,
};

/// Bucket bounds (milliseconds) for the queue-wait and execute
/// latency histograms. The sub-millisecond bounds resolve store-served
/// queries (~0.3 ms); scans land in the upper buckets.
const LATENCY_MS_BOUNDS: &[f64] = &[
    0.05, 0.1, 0.25, 0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
];

/// Bucket bounds (milliseconds) for the deadline-margin histogram:
/// how much headroom a deadlined query finished with (negative = it
/// finished past its deadline).
const DEADLINE_MARGIN_MS_BOUNDS: &[f64] = &[
    -5000.0, -1000.0, -250.0, -50.0, 0.0, 10.0, 50.0, 100.0, 250.0, 1000.0, 5000.0,
];

/// The class queries resolve to when they name no class (or name one
/// the policy doesn't declare). Always present in the class table.
pub const DEFAULT_CLASS: &str = "default";

/// Admission and priority settings for one class of clients.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassConfig {
    /// Base priority for queries of this class (higher runs first).
    /// A query's own `priority` field overrides it.
    pub priority: i32,
    /// Token-bucket refill rate, queries per second. `0` = unlimited.
    pub rate_per_sec: f64,
    /// Token-bucket capacity (burst size). `0` = `max(rate_per_sec, 1)`.
    pub burst: f64,
    /// Maximum queries of this class waiting in the queue at once.
    /// `0` = bounded only by [`EngineConfig::queue_depth`].
    pub queue_quota: usize,
}

impl ClassConfig {
    fn effective_burst(&self) -> f64 {
        if self.burst > 0.0 {
            self.burst
        } else {
            self.rate_per_sec.max(1.0)
        }
    }
}

/// The scheduling policy: admission classes plus queue ordering. See
/// the [module docs](self).
#[derive(Debug, Clone, PartialEq)]
pub struct SchedPolicy {
    /// Declared admission classes. Queries naming no class (or an
    /// undeclared one) fall into [`DEFAULT_CLASS`], which may itself be
    /// declared here to give it quotas or a base priority.
    pub classes: BTreeMap<String, ClassConfig>,
    /// Milliseconds of queue wait per +1 effective-priority promotion
    /// credit (starvation protection). `0` disables aging.
    pub aging_ms: u64,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        SchedPolicy {
            classes: BTreeMap::new(),
            aging_ms: 100,
        }
    }
}

/// Engine sizing and policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Maximum queries waiting for a worker. A submit that finds the
    /// queue at this depth is rejected with [`EngineError::Overloaded`].
    pub queue_depth: usize,
    /// Deadline applied to queries that don't carry their own.
    pub default_deadline: Option<Duration>,
    /// Matcher search parameters shared by every query. Per-query `top_k`
    /// requests at or below `matcher.top_k` are served by truncating the
    /// ranked list (NMS keeps a greedy prefix, so the truncation is
    /// identical to searching with the smaller `top_k`).
    pub matcher: MatcherConfig,
    /// Admission and ordering policy.
    pub sched: SchedPolicy,
    /// Where the standing-query registry persists (atomic JSON).
    /// `None` keeps registrations in memory only — they die with the
    /// process. Restored registrations whose watermark trails a loaded
    /// dataset are caught up at start.
    pub registry_path: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            queue_depth: 64,
            default_deadline: None,
            matcher: MatcherConfig::default(),
            sched: SchedPolicy::default(),
            registry_path: None,
        }
    }
}

/// Errors a query can be answered with.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The admission queue was full; the query was never enqueued.
    Overloaded {
        /// The configured queue bound that was hit.
        queue_depth: usize,
    },
    /// The engine is shutting down and no longer admits queries.
    ShuttingDown,
    /// The query's admission class exhausted its token-bucket rate
    /// limit; the query was never enqueued. Retry after backoff.
    RateLimited {
        /// The admission class whose bucket ran dry.
        class: String,
    },
    /// No dataset with that name is loaded.
    UnknownDataset(String),
    /// Live registration targets a dataset with no embedding store
    /// attached (epoch-scoped evaluation needs the store's window grid).
    NotStored(String),
    /// A live reload offered a store that doesn't match the
    /// engine's model or the reloaded index.
    StoreMismatch(String),
    /// The query's deadline passed (in the queue or mid-search).
    DeadlineExceeded,
    /// The query was cancelled through its [`QueryHandle`].
    Cancelled,
    /// The similarity rejected the query itself.
    Similarity(SimilarityError),
    /// The worker executing the query disappeared without answering
    /// (a worker panic; should not happen).
    WorkerLost,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "overloaded: admission queue full ({queue_depth} waiting)"
                )
            }
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::RateLimited { class } => {
                write!(f, "rate limited: class {class:?} exceeded its query rate")
            }
            EngineError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            EngineError::NotStored(n) => write!(
                f,
                "dataset {n:?} has no embedding store attached (live registration requires one)"
            ),
            EngineError::StoreMismatch(m) => write!(f, "store mismatch: {m}"),
            EngineError::DeadlineExceeded => write!(f, "deadline exceeded"),
            EngineError::Cancelled => write!(f, "cancelled"),
            EngineError::Similarity(e) => write!(f, "similarity error: {e}"),
            EngineError::WorkerLost => write!(f, "worker lost"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CancelReason> for EngineError {
    fn from(r: CancelReason) -> Self {
        match r {
            CancelReason::Cancelled => EngineError::Cancelled,
            CancelReason::DeadlineExceeded => EngineError::DeadlineExceeded,
        }
    }
}

impl From<MatchError> for EngineError {
    fn from(e: MatchError) -> Self {
        match e {
            MatchError::Similarity(e) => EngineError::Similarity(e),
            MatchError::Cancelled(r) => r.into(),
        }
    }
}

/// One query as submitted to the engine.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Which loaded dataset to search.
    pub dataset: String,
    /// The query clip (a compiled sketch or a canonical event query).
    pub query: Clip,
    /// Truncate results to this many moments (at most the engine's
    /// configured `matcher.top_k`).
    pub top_k: Option<usize>,
    /// Per-query deadline; overrides [`EngineConfig::default_deadline`].
    pub deadline: Option<Duration>,
    /// Trace id to run under (a wire client's id); `None` mints a fresh
    /// one at admission.
    pub trace: Option<u64>,
    /// Admission class. `None` (or a class the policy doesn't declare)
    /// resolves to [`DEFAULT_CLASS`].
    pub class: Option<String>,
    /// Priority override; `None` uses the class's base priority.
    /// Clamped to ±1000 so wire clients can't outrun aging credit
    /// forever.
    pub priority: Option<i32>,
    /// Epoch scope: only windows ending at or after this frame are
    /// considered (the standing-query evaluation range). `None` searches
    /// the whole dataset.
    pub min_end: Option<u32>,
}

impl QuerySpec {
    /// A query with no top-k override, no per-query deadline, a
    /// server-minted trace id, default class/priority, and no epoch
    /// scope.
    pub fn new(dataset: impl Into<String>, query: Clip) -> Self {
        QuerySpec {
            dataset: dataset.into(),
            query,
            top_k: None,
            deadline: None,
            trace: None,
            class: None,
            priority: None,
            min_end: None,
        }
    }
}

/// A successfully executed query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Retrieved moments, best first.
    pub moments: Vec<RetrievedMoment>,
    /// Time spent waiting for a worker.
    pub queue_wait: Duration,
    /// Time spent executing.
    pub execute: Duration,
    /// Always 1: every query executes alone. Kept because the wire's
    /// `Moments` reply carries it for v5 and v6 clients, and the
    /// benchmark reads it.
    pub batch_size: usize,
    /// The live trace the query ran under. The wire server enters it
    /// once more to time response serialization, then finalizes it;
    /// for engine-direct callers it finalizes (into the flight
    /// recorder) when the last clone of this result drops.
    pub trace: TraceContext,
}

/// Per-dataset traffic totals, served inside [`EngineStats`] so a
/// live top view can tell which dataset the load lands on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetTraffic {
    /// Dataset name.
    pub name: String,
    /// Queries against this dataset answered successfully.
    pub completed: u64,
    /// Queries against this dataset that failed or were cancelled.
    pub failed: u64,
    /// Queries against this dataset whose deadline expired.
    pub timed_out: u64,
    /// Queries against this dataset shed at admission.
    pub shed: u64,
    /// Candidate segments whose embeddings the dataset's index
    /// remembers, so scans re-use them instead of re-embedding.
    pub memo_segments: u64,
    /// Payload bytes that memo holds.
    pub memo_bytes: u64,
    /// Times the memo was emptied at its byte budget (the scans that
    /// follow a reset run cold).
    pub memo_resets: u64,
}

/// Per-admission-class queue position and traffic, served inside
/// [`EngineStats`] so fairness is observable from `stats`/`top`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Class name.
    pub name: String,
    /// Base priority from the policy (0 for an undeclared default).
    pub priority: i32,
    /// Queries of this class currently waiting in the queue.
    pub queued: usize,
    /// Queue wait of this class's oldest waiting query, milliseconds
    /// (0 when none are queued).
    pub oldest_wait_ms: u64,
    /// Queries of this class answered successfully.
    pub completed: u64,
    /// Queries of this class rejected by its token-bucket rate limit.
    pub rate_limited: u64,
    /// Queries of this class shed at admission (shutdown, full queue,
    /// or class quota).
    pub shed: u64,
}

/// A point-in-time view of the engine, also served over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Worker threads.
    pub workers: usize,
    /// Queries currently waiting for a worker.
    pub queued: usize,
    /// Queries currently executing.
    pub in_flight: usize,
    /// Queries admitted since start.
    pub accepted: u64,
    /// Queries answered successfully.
    pub completed: u64,
    /// Queries rejected at admission because the queue was full.
    pub rejected_overload: u64,
    /// Queries whose deadline expired.
    pub timed_out: u64,
    /// Queries that failed (similarity error or explicit cancel).
    pub failed: u64,
    /// Queries answered from a persistent embedding store (ANN probe +
    /// exact re-rank, no re-embedding).
    pub store_hits: u64,
    /// Queries against a stored dataset that the store could not serve
    /// (multi-object sketch, window-grid mismatch) and that fell back to
    /// a full scan. A degenerate sketch is settled without consulting
    /// the store and counts as neither a hit nor a fallback.
    pub store_fallbacks: u64,
    /// Total stored rows scored across all store-served queries.
    pub store_probed: u64,
    /// Queries rejected at admission by a class rate limit.
    pub rate_limited: u64,
    /// Per-dataset traffic totals, in dataset-name order.
    pub datasets: Vec<DatasetTraffic>,
    /// Per-class queue position and traffic, in class-name order.
    pub classes: Vec<ClassStats>,
}

/// A loaded dataset, as listed over the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Frames indexed.
    pub frames: u32,
    /// Object trajectories in the index.
    pub tracks: usize,
    /// Whether an ingested embedding store backs this dataset.
    pub stored: bool,
}

/// Handle to an admitted query: wait for the answer or cancel it.
pub struct QueryHandle {
    rx: mpsc::Receiver<Result<QueryResult, EngineError>>,
    member: Arc<Member>,
    shared: Arc<Shared>,
}

impl fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryHandle").finish_non_exhaustive()
    }
}

impl QueryHandle {
    /// Blocks until the query is answered — at the latest, until its own
    /// deadline. The waiter is the one party that is always there when
    /// the deadline passes, so it enforces it: a token already tripped
    /// (cancelled before the wait) or a deadline that runs out during it
    /// is answered here, through the same claim the worker uses, whether
    /// the query is still queued or mid-scan. The loser of the claim is a
    /// no-op, so exactly one answer is in the channel afterwards.
    /// Without a deadline this is a plain `recv`.
    pub fn wait(self) -> Result<QueryResult, EngineError> {
        let token = &self.member.cancel;
        while let (Ok(()), Some(at)) = (token.check(), token.deadline()) {
            let left = at.saturating_duration_since(Instant::now());
            if let Ok(answer) = self.rx.recv_timeout(left) {
                return answer;
            }
        }
        if let Err(reason) = token.check() {
            finish_err(&self.shared, &self.member, reason.into());
        }
        // Every admitted query is answered (worker or shutdown drain),
        // and this handle keeps its own sender alive.
        self.rx.recv().unwrap_or(Err(EngineError::WorkerLost))
    }

    /// Requests cancellation; the query answers [`EngineError::Cancelled`]
    /// at the next [`wait`](Self::wait), and its scan stops once it
    /// observes the token.
    pub fn cancel(&self) {
        self.member.cancel.cancel();
    }
}

/// A queued query: what ordering reads (`priority`, `seq`), what only the
/// executing worker reads (`query`), and the record everyone who may
/// answer it shares.
struct Job {
    priority: i32,
    seq: u64,
    query: Clip,
    member: Arc<Member>,
}

/// The one record of an admitted query, built at admission and shared by
/// its queue entry and its [`QueryHandle`]. A member is answered exactly
/// once: the worker (with its answer, or `WorkerLost` after a panic) and
/// the waiter (on a tripped token) race through [`Member::claim`], and
/// only the winner counts the outcome and sends.
struct Member {
    dataset: String,
    class: String,
    top_k: Option<usize>,
    min_end: Option<u32>,
    cancel: CancelToken,
    enqueued_at: Instant,
    trace: TraceContext,
    tx: mpsc::Sender<Result<QueryResult, EngineError>>,
    claimed: AtomicBool,
}

impl Member {
    /// Wins the right to answer this member. Returns `false` if someone
    /// else already answered it.
    fn claim(&self) -> bool {
        self.claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// Per-class queue occupancy and token bucket, under the state lock.
struct ClassQueue {
    queued: usize,
    tokens: f64,
    last_refill: Instant,
}

struct QueueState {
    queue: VecDeque<Job>,
    accepting: bool,
    in_flight: usize,
    /// Keys are fixed at start: declared classes plus [`DEFAULT_CLASS`].
    classes: BTreeMap<String, ClassQueue>,
    next_seq: u64,
}

impl QueueState {
    /// The admission decision for one query of `class`, in the order the
    /// rejections are documented: shutdown, the global queue bound, the
    /// class's queue quota, the class's token bucket. On success the
    /// class's queue slot (and rate token) is taken and its new queue
    /// occupancy returned.
    fn admit(
        &mut self,
        class: &str,
        cfg: ClassConfig,
        queue_depth: usize,
        now: Instant,
    ) -> Result<usize, EngineError> {
        if !self.accepting {
            return Err(EngineError::ShuttingDown);
        }
        if self.queue.len() >= queue_depth {
            return Err(EngineError::Overloaded { queue_depth });
        }
        let cq = self.classes.get_mut(class).expect("class table is fixed");
        // Per-class queue quota: this class's slice of the queue.
        if cfg.queue_quota > 0 && cq.queued >= cfg.queue_quota {
            return Err(EngineError::Overloaded {
                queue_depth: cfg.queue_quota,
            });
        }
        // Token-bucket rate limit: refill lazily, spend one per query.
        if cfg.rate_per_sec > 0.0 {
            let dt = now.duration_since(cq.last_refill).as_secs_f64();
            cq.tokens = (cq.tokens + dt * cfg.rate_per_sec).min(cfg.effective_burst());
            cq.last_refill = now;
            if cq.tokens < 1.0 {
                return Err(EngineError::RateLimited {
                    class: class.to_string(),
                });
            }
            cq.tokens -= 1.0;
        }
        cq.queued += 1;
        Ok(cq.queued)
    }
}

/// Engine-wide counters with no per-dataset / per-class breakdown to be
/// derived from (the other [`EngineStats`] totals are sums of those
/// tables).
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    // Store effectiveness lives in plain atomics (not only telemetry
    // counters) because `stats()` is per engine and the telemetry
    // registry is one per process.
    store_hits: AtomicU64,
    store_fallbacks: AtomicU64,
    store_probed: AtomicU64,
}

/// Per-dataset slice of the traffic counters. The dataset set is fixed
/// at start, so the map never grows and lookups are lock-free.
#[derive(Default)]
struct DatasetCounters {
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
}

/// Per-class slice of the traffic counters; same fixed-key scheme as
/// [`DatasetCounters`]. The class table being fixed, the class's
/// `sketchql.server.class.<class>.*` registry handles are resolved once
/// here instead of formatting a name per event.
struct ClassCounters {
    completed: AtomicU64,
    rate_limited: AtomicU64,
    shed: AtomicU64,
    completed_metric: &'static telemetry::Counter,
    rate_limited_metric: &'static telemetry::Counter,
    shed_metric: &'static telemetry::Counter,
    queue_depth: &'static telemetry::Gauge,
    queue_wait_ms: &'static telemetry::Histogram,
}

impl ClassCounters {
    fn resolve(class: &str) -> Self {
        let counter = |metric| telemetry::counter(&names::server_class_metric(class, metric));
        ClassCounters {
            completed: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed_metric: counter("completed"),
            rate_limited_metric: counter("rate_limited"),
            shed_metric: counter("shed"),
            queue_depth: telemetry::gauge(&names::server_class_metric(class, "queue_depth")),
            queue_wait_ms: telemetry::histogram(
                &names::server_class_metric(class, "queue_wait_ms"),
                LATENCY_MS_BOUNDS,
            ),
        }
    }
}

/// The engine's swappable dataset view. Readers grab one `Arc` snapshot
/// and work against it for a whole query, so a live
/// reload never tears a scan: [`Engine::reload_dataset`] builds a new
/// `LiveData` and swaps the `Arc` wholesale. The dataset *name set* is
/// fixed at start — reload replaces content, never adds or removes
/// names — which keeps the per-dataset counter tables lock-free.
struct LiveData {
    datasets: BTreeMap<String, Arc<VideoIndex>>,
    stores: BTreeMap<String, Arc<ShardSet>>,
}

struct Shared {
    state: Mutex<QueueState>,
    work_ready: Condvar,
    matcher: Matcher<LearnedSimilarity>,
    data: Mutex<Arc<LiveData>>,
    live: LiveRegistry,
    counters: Counters,
    per_dataset: BTreeMap<String, DatasetCounters>,
    per_class: BTreeMap<String, ClassCounters>,
    /// The configured policy with [`DEFAULT_CLASS`] declared: its
    /// `classes` is the whole fixed class table.
    policy: SchedPolicy,
}

impl Shared {
    /// The current dataset snapshot (one lock hop, then lock-free).
    fn data(&self) -> Arc<LiveData> {
        Arc::clone(&self.data.lock().unwrap())
    }

    /// The per-dataset counter slice for `name` (always present: the
    /// dataset was validated at submit).
    fn dataset_counters(&self, name: &str) -> &DatasetCounters {
        self.per_dataset
            .get(name)
            .expect("dataset validated at submit")
    }

    /// The per-class counter slice for `name` (always present: the
    /// class was resolved against the fixed table at submit).
    fn class_counters(&self, name: &str) -> &ClassCounters {
        self.per_class.get(name).expect("class resolved at submit")
    }
}

/// The concurrent query service. See the [module docs](self).
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: EngineConfig,
}

impl Engine {
    /// Builds the engine and spawns its worker pool.
    pub fn start(
        model: TrainedModel,
        datasets: BTreeMap<String, VideoIndex>,
        config: EngineConfig,
    ) -> Engine {
        Engine::start_with_stores(model, datasets, BTreeMap::new(), config)
    }

    /// Like [`Engine::start`], but attaches persistent embedding
    /// stores keyed by dataset name. Each set is validated here from
    /// its attach-time metadata alone (headers and manifests — no
    /// payload reads, no checksums): it must name a loaded dataset and
    /// carry both the model's and that index's fingerprints. Sets
    /// that don't match are dropped, and queries against their dataset
    /// simply take the scan — per-dataset fallback, never a
    /// startup failure. Payloads (and their deferred checksums) load on
    /// first probe, so startup cost is independent of store size.
    pub fn start_with_stores(
        model: TrainedModel,
        datasets: BTreeMap<String, VideoIndex>,
        stores: BTreeMap<String, ShardSet>,
        config: EngineConfig,
    ) -> Engine {
        let mut config = config;
        config.workers = config.workers.max(1);
        // Standing-query evaluation always has a class to run under:
        // auto-declare the live class (far below interactive priority)
        // unless the policy configured it explicitly.
        config
            .sched
            .classes
            .entry(LIVE_CLASS.to_string())
            .or_insert(ClassConfig {
                priority: live::LIVE_PRIORITY,
                ..Default::default()
            });
        let matcher = Matcher::with_config(model.similarity(), config.matcher.clone());
        let datasets: BTreeMap<String, Arc<VideoIndex>> = datasets
            .into_iter()
            .map(|(name, idx)| (name, Arc::new(idx)))
            .collect();
        let stores: BTreeMap<String, Arc<ShardSet>> = stores
            .into_iter()
            .filter(|(name, set)| {
                set.matches_model(&matcher.sim)
                    && datasets.get(name).is_some_and(|idx| set.matches_index(idx))
            })
            .map(|(name, set)| (name, Arc::new(set)))
            .collect();
        let per_dataset = datasets
            .keys()
            .map(|name| (name.clone(), DatasetCounters::default()))
            .collect();
        // The class table is fixed at start: every declared class plus
        // the default class every unmatched query resolves to (at
        // `ClassConfig::default()` unless the policy declares it).
        let mut policy = config.sched.clone();
        policy.classes.entry(DEFAULT_CLASS.to_string()).or_default();
        let now = Instant::now();
        let class_queues = policy
            .classes
            .iter()
            .map(|(name, cfg)| {
                let queue = ClassQueue {
                    queued: 0,
                    tokens: cfg.effective_burst(),
                    last_refill: now,
                };
                (name.clone(), queue)
            })
            .collect();
        let per_class = policy
            .classes
            .keys()
            .map(|name| (name.clone(), ClassCounters::resolve(name)))
            .collect();
        let registry = LiveRegistry::new(config.registry_path.clone());
        telemetry::gauge(names::LIVE_REGISTRATIONS).set(registry.count() as f64);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                in_flight: 0,
                classes: class_queues,
                next_seq: 0,
            }),
            work_ready: Condvar::new(),
            matcher,
            data: Mutex::new(Arc::new(LiveData { datasets, stores })),
            live: registry,
            counters: Counters::default(),
            per_dataset,
            per_class,
            policy,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sketchql-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn engine worker")
            })
            .collect();
        let engine = Engine {
            shared,
            workers: Mutex::new(workers),
            config,
        };
        // Catch up restored registrations whose watermark trails a
        // loaded dataset — appends committed while the server was down
        // are evaluated (and notified) before the engine is handed out.
        engine.evaluate_live(None);
        engine
    }

    /// The engine's effective configuration (`workers` at least 1, the
    /// live class declared).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Non-blocking admission. Returns a handle to wait on, or an
    /// immediate rejection ([`EngineError::Overloaded`],
    /// [`EngineError::RateLimited`], [`EngineError::ShuttingDown`],
    /// [`EngineError::UnknownDataset`]).
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryHandle, EngineError> {
        if !self.shared.data().datasets.contains_key(&spec.dataset) {
            return Err(EngineError::UnknownDataset(spec.dataset));
        }
        // Undeclared wire classes collapse into the default class: the
        // class table (and stats/metric cardinality) stays fixed.
        let classes = &self.shared.policy.classes;
        let declared = spec.class.as_deref().filter(|c| classes.contains_key(*c));
        let class = declared.unwrap_or(DEFAULT_CLASS).to_string();
        let cfg = classes[&class];
        let priority = spec.priority.unwrap_or(cfg.priority).clamp(-1000, 1000);
        // The trace is born at admission; shed queries finalize it via
        // its drop safety net (after the queue lock below releases), so
        // they still reach the flight recorder and slow-query log.
        let trace = match spec.trace {
            Some(id) => TraceContext::with_id(id),
            None => TraceContext::new(),
        };
        trace.set_label(spec.dataset.as_str());
        let deadline = spec.deadline.or(self.config.default_deadline);
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let member = Arc::new(Member {
            dataset: spec.dataset,
            class,
            top_k: spec.top_k,
            min_end: spec.min_end,
            cancel: match deadline {
                Some(d) => CancelToken::with_timeout(d),
                None => CancelToken::new(),
            },
            enqueued_at: now,
            trace,
            tx,
            claimed: AtomicBool::new(false),
        });
        let mut st = self.shared.state.lock().unwrap();
        let queued = match st.admit(&member.class, cfg, self.config.queue_depth, now) {
            Ok(queued) => queued,
            Err(err) => {
                tally(&self.shared, &member, Event::Shed(&err));
                return Err(err);
            }
        };
        let class_counters = self.shared.class_counters(&member.class);
        class_counters.queue_depth.set(queued as f64);
        st.next_seq += 1;
        let seq = st.next_seq;
        st.queue.push_back(Job {
            priority,
            seq,
            query: spec.query,
            member: Arc::clone(&member),
        });
        telemetry::gauge(names::SERVER_QUEUE_DEPTH).set(st.queue.len() as f64);
        tally(&self.shared, &member, Event::Accepted);
        self.shared.work_ready.notify_one();
        Ok(QueryHandle {
            rx,
            member,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Submits and waits: the blocking convenience path.
    pub fn execute(&self, spec: QuerySpec) -> Result<QueryResult, EngineError> {
        self.submit(spec)?.wait()
    }

    /// Current queue/traffic statistics.
    pub fn stats(&self) -> EngineStats {
        let data = self.shared.data();
        let st = self.shared.state.lock().unwrap();
        let c = &self.shared.counters;
        let classes: Vec<ClassStats> = self
            .shared
            .per_class
            .iter()
            .map(|(name, cc)| {
                let queued = st.classes.get(name).map(|cq| cq.queued).unwrap_or(0);
                let oldest_wait_ms = st
                    .queue
                    .iter()
                    .filter(|j| j.member.class == *name)
                    .map(|j| j.member.enqueued_at.elapsed().as_millis() as u64)
                    .max()
                    .unwrap_or(0);
                ClassStats {
                    name: name.clone(),
                    priority: self.shared.policy.classes[name].priority,
                    queued,
                    oldest_wait_ms,
                    completed: cc.completed.load(Ordering::Relaxed),
                    rate_limited: cc.rate_limited.load(Ordering::Relaxed),
                    shed: cc.shed.load(Ordering::Relaxed),
                }
            })
            .collect();
        let datasets: Vec<DatasetTraffic> = self
            .shared
            .per_dataset
            .iter()
            .map(|(name, d)| {
                let memo = data.datasets[name].embed_memo_stats();
                DatasetTraffic {
                    name: name.clone(),
                    completed: d.completed.load(Ordering::Relaxed),
                    failed: d.failed.load(Ordering::Relaxed),
                    timed_out: d.timed_out.load(Ordering::Relaxed),
                    shed: d.shed.load(Ordering::Relaxed),
                    memo_segments: memo.segments,
                    memo_bytes: memo.bytes,
                    memo_resets: memo.resets,
                }
            })
            .collect();
        // Every answered query belongs to one dataset and every
        // rate-limited one to one class, so the totals are sums of the
        // tables rather than a second set of counters.
        EngineStats {
            workers: self.config.workers,
            queued: st.queue.len(),
            in_flight: st.in_flight,
            accepted: c.accepted.load(Ordering::Relaxed),
            completed: datasets.iter().map(|d| d.completed).sum(),
            rejected_overload: c.rejected.load(Ordering::Relaxed),
            timed_out: datasets.iter().map(|d| d.timed_out).sum(),
            failed: datasets.iter().map(|d| d.failed).sum(),
            store_hits: c.store_hits.load(Ordering::Relaxed),
            store_fallbacks: c.store_fallbacks.load(Ordering::Relaxed),
            store_probed: c.store_probed.load(Ordering::Relaxed),
            rate_limited: classes.iter().map(|c| c.rate_limited).sum(),
            datasets,
            classes,
        }
    }

    /// The loaded datasets, in name order.
    pub fn datasets(&self) -> Vec<DatasetInfo> {
        let data = self.shared.data();
        data.datasets
            .iter()
            .map(|(name, idx)| DatasetInfo {
                name: name.clone(),
                frames: idx.frames,
                tracks: idx.tracks.len(),
                stored: data.stores.contains_key(name),
            })
            .collect()
    }

    /// Dataset names backed by a warm-validated embedding store.
    pub fn stored_datasets(&self) -> Vec<String> {
        self.shared.data().stores.keys().cloned().collect()
    }

    /// Registers a standing query: `query` is re-evaluated over every
    /// ingest epoch appended to `dataset` from now on (the returned
    /// watermark is the frame count already covered — only frames past
    /// it notify). Restricted to store-backed datasets: epoch-scoped
    /// evaluation rides the store's window grid, which is what makes a
    /// standing query's matches bit-identical to offline queries over
    /// the appended ranges.
    pub fn register(
        &self,
        dataset: &str,
        query: Clip,
        min_score: Option<f32>,
        top_k: Option<usize>,
    ) -> Result<LiveRegistration, EngineError> {
        let data = self.shared.data();
        let Some(index) = data.datasets.get(dataset) else {
            return Err(EngineError::UnknownDataset(dataset.to_string()));
        };
        let Some(set) = data.stores.get(dataset) else {
            return Err(EngineError::NotStored(dataset.to_string()));
        };
        let reg = self.shared.live.register(
            dataset.to_string(),
            query,
            min_score,
            top_k,
            index.frames,
            set.manifest().epoch,
        );
        telemetry::gauge(names::LIVE_REGISTRATIONS).set(self.shared.live.count() as f64);
        self.shared.live.save();
        Ok(reg)
    }

    /// Removes a standing query; `false` if the id is unknown.
    pub fn unregister(&self, id: u64) -> bool {
        let removed = self.shared.live.unregister(id);
        if removed {
            telemetry::gauge(names::LIVE_REGISTRATIONS).set(self.shared.live.count() as f64);
            self.shared.live.save();
        }
        removed
    }

    /// Drains up to `max` queued notifications (oldest first, all of
    /// them when `None`) for a registration; `None` if the id is
    /// unknown.
    pub fn notifications(&self, id: u64, max: Option<usize>) -> Option<LiveNotifications> {
        self.shared.live.drain(id, max.unwrap_or(usize::MAX))
    }

    /// Commits a live ingest epoch: atomically swaps `dataset`'s index
    /// and store (queries in flight finish against the old
    /// snapshot; new queries see the new one) and evaluates every
    /// standing query the growth left behind. Evaluation is synchronous
    /// — when this returns, every match for the epoch is queued — but
    /// flows through normal admission under [`LIVE_CLASS`], so
    /// concurrent interactive traffic keeps its priority.
    ///
    /// The reload is validated like a startup store attach, plus: the
    /// dataset name must already be loaded (reload replaces content,
    /// never adds datasets).
    pub fn reload_dataset(
        &self,
        name: &str,
        index: VideoIndex,
        set: impl Into<ShardSet>,
    ) -> Result<LiveReload, EngineError> {
        let set: ShardSet = set.into();
        if !self.shared.per_dataset.contains_key(name) {
            return Err(EngineError::UnknownDataset(name.to_string()));
        }
        if !set.matches_model(&self.shared.matcher.sim) {
            return Err(EngineError::StoreMismatch(format!(
                "store for {name:?} was built by a different model"
            )));
        }
        if !set.matches_index(&index) {
            return Err(EngineError::StoreMismatch(format!(
                "store for {name:?} does not match the offered index"
            )));
        }
        let epoch = set.manifest().epoch;
        let frames = index.frames;
        {
            let mut data = self.shared.data.lock().unwrap();
            let mut next = LiveData {
                datasets: data.datasets.clone(),
                stores: data.stores.clone(),
            };
            next.datasets.insert(name.to_string(), Arc::new(index));
            next.stores.insert(name.to_string(), Arc::new(set));
            publish_memo_gauges(&next);
            *data = Arc::new(next);
        }
        let (evaluated, delivered) = self.evaluate_live(Some(name));
        Ok(LiveReload {
            dataset: name.to_string(),
            epoch,
            frames,
            evaluated,
            delivered,
        })
    }

    /// Evaluates every registration (optionally: only `only`'s) whose
    /// watermark trails its dataset's current frame count, as
    /// epoch-scoped queries through normal admission. A failed or shed
    /// evaluation leaves the watermark where it was — the next epoch
    /// re-covers the range, so matches are delayed, never lost.
    fn evaluate_live(&self, only: Option<&str>) -> (usize, usize) {
        let data = self.shared.data();
        let due = self
            .shared
            .live
            .due(only, |ds| data.datasets.get(ds).map(|idx| idx.frames));
        if due.is_empty() {
            return (0, 0);
        }
        let evaluated = due.len();
        let mut delivered = 0usize;
        for d in due {
            let Some(frames) = data.datasets.get(&d.dataset).map(|idx| idx.frames) else {
                continue;
            };
            let epoch = data
                .stores
                .get(&d.dataset)
                .map_or(0, |set| set.manifest().epoch);
            let spec = QuerySpec {
                top_k: d.top_k,
                class: Some(LIVE_CLASS.to_string()),
                min_end: Some(d.watermark),
                ..QuerySpec::new(d.dataset.clone(), d.query)
            };
            let Ok(handle) = self.submit(spec) else {
                continue;
            };
            telemetry::counter(names::LIVE_EVALUATIONS).inc();
            if let Ok(result) = handle.wait() {
                delivered +=
                    self.shared
                        .live
                        .complete(d.id, d.watermark, frames, epoch, result.moments);
            }
        }
        self.shared.live.save();
        (evaluated, delivered)
    }

    /// Stops admission, drains every already-admitted query, and joins
    /// the worker pool. Idempotent; called by `Drop` as a safety net.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.accepting = false;
            self.shared.work_ready.notify_all();
        }
        {
            let mut workers = self.workers.lock().unwrap();
            for handle in workers.drain(..) {
                let _ = handle.join();
            }
        }
        // Workers only exit once the queue is empty, so this drain is a
        // belt-and-braces guarantee that a submit racing shutdown either
        // errors at admission or gets an answer here — `wait()` can
        // never hang on an admitted query.
        let leftovers: Vec<Job> = {
            let mut st = self.shared.state.lock().unwrap();
            let drained: Vec<Job> = std::mem::take(&mut st.queue).into();
            for job in &drained {
                if let Some(cq) = st.classes.get_mut(&job.member.class) {
                    cq.queued -= 1;
                }
            }
            drained
        };
        for job in leftovers {
            finish_err(&self.shared, &job.member, EngineError::ShuttingDown);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker thread body: pick, execute, answer — until shutdown with an
/// empty queue.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(i) = pick_index(&st.queue, &shared.policy, Instant::now()) {
                    let job = st.queue.remove(i).expect("picked index in bounds");
                    let class = &job.member.class;
                    let cq = st.classes.get_mut(class).expect("class table is fixed");
                    cq.queued -= 1;
                    shared
                        .class_counters(class)
                        .queue_depth
                        .set(cq.queued as f64);
                    st.in_flight += 1;
                    telemetry::gauge(names::SERVER_QUEUE_DEPTH).set(st.queue.len() as f64);
                    break job;
                }
                if !st.accepting {
                    return;
                }
                st = shared.work_ready.wait(st).unwrap();
            }
        };
        // A panicking search answers `WorkerLost` instead of leaving its
        // caller hanging, and the worker itself survives.
        let member = Arc::clone(&job.member);
        let answer =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(shared, job)))
                .unwrap_or(Err(EngineError::WorkerLost));
        // Restore the count *before* answering: a waiter woken by its
        // answer must already observe the query gone from `in_flight`.
        shared.state.lock().unwrap().in_flight -= 1;
        match answer {
            Ok(done) => finish_ok(shared, &member, done),
            Err(err) => finish_err(shared, &member, err),
        }
    }
}

/// Effective priority after starvation protection: the base priority
/// plus one promotion credit per `aging_ms` of queue wait.
fn effective_priority(job: &Job, now: Instant, aging_ms: u64) -> i64 {
    // aging_ms == 0 disables aging (no credit), not instant promotion.
    let waited = now.saturating_duration_since(job.member.enqueued_at);
    let wait_ms = waited.as_millis() as u64;
    let credit = wait_ms.checked_div(aging_ms).unwrap_or(0) as i64;
    job.priority as i64 + credit
}

/// Whether `a` should run strictly before `b`: higher effective
/// priority, then earlier deadline (EDF; a deadline beats none), then
/// arrival order.
fn sched_before(a: &Job, b: &Job, now: Instant, aging_ms: u64) -> bool {
    let (pa, pb) = (
        effective_priority(a, now, aging_ms),
        effective_priority(b, now, aging_ms),
    );
    if pa != pb {
        return pa > pb;
    }
    match (a.member.cancel.deadline(), b.member.cancel.deadline()) {
        (Some(da), Some(db)) if da != db => da < db,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        _ => a.seq < b.seq,
    }
}

/// Index of the next job to dequeue under `policy`. With no declared
/// priorities or deadlines this is always the queue front, so the
/// default policy degrades to exact FIFO.
fn pick_index(queue: &VecDeque<Job>, policy: &SchedPolicy, now: Instant) -> Option<usize> {
    if queue.is_empty() {
        return None;
    }
    let mut best = 0;
    for i in 1..queue.len() {
        if sched_before(&queue[i], &queue[best], now, policy.aging_ms) {
            best = i;
        }
    }
    Some(best)
}

/// A query's successful execution, as [`finish_ok`] answers it.
struct Done {
    search: StoreSearch,
    queue_wait: Duration,
    execute: Duration,
}

/// The executor: runs one query as one [`Matcher::search_stored`] call
/// under its own token and trace, and returns its answer.
fn run_job(shared: &Shared, job: Job) -> Result<Done, EngineError> {
    let member = &job.member;
    // Test-only fault injection (debug builds): panic mid-query when the
    // dataset matches, exercising the worker's unwind path.
    #[cfg(debug_assertions)]
    if let Ok(target) = std::env::var("SKETCHQL_TEST_PANIC_DATASET") {
        if !target.is_empty() && member.dataset == target {
            panic!("test-injected worker panic for dataset {target:?}");
        }
    }

    let queue_wait = member.enqueued_at.elapsed();
    let wait_ms = queue_wait.as_secs_f64() * 1e3;
    telemetry::histogram(names::SERVER_QUEUE_WAIT_MS, LATENCY_MS_BOUNDS).observe(wait_ms);
    shared
        .class_counters(&member.class)
        .queue_wait_ms
        .observe(wait_ms);
    // The queue wait happened between threads, outside any RAII scope —
    // record it straight into the trace.
    member.trace.record_span(
        names::SERVER_QUEUE_WAIT,
        0,
        member.enqueued_at,
        queue_wait.as_nanos() as u64,
    );
    // Queue-expiry check: a query whose token already tripped never runs
    // (its waiter has usually answered it by now; the claim makes the
    // worker's answer a no-op then).
    if let Err(reason) = member.cancel.check() {
        if reason == CancelReason::DeadlineExceeded {
            tally(shared, member, Event::ExpiredInQueue);
        }
        return Err(reason.into());
    }
    // One snapshot for the whole query: a reload committing mid-scan
    // swaps the engine's view, not this query's.
    let data = shared.data();
    let index = data
        .datasets
        .get(&member.dataset)
        .expect("dataset validated at submit");
    let store = data.stores.get(&member.dataset).map(Arc::as_ref);

    let started = Instant::now();
    let search = {
        let _entered = member.trace.enter();
        let _exec_span = telemetry::span(names::SERVER_EXECUTE);
        shared
            .matcher
            .search_stored(index, store, &job.query, &member.cancel, member.min_end)
    };
    let execute = started.elapsed();
    publish_memo_gauges(&data);
    telemetry::histogram(names::SERVER_EXECUTE_MS, LATENCY_MS_BOUNDS)
        .observe(execute.as_secs_f64() * 1e3);
    observe_deadline_margin(member);
    Ok(Done {
        search: search?,
        queue_wait,
        execute,
    })
}

/// Sets the `sketchql.matcher.embed_memo_*` gauges to what the indexes of
/// `data` remember, summed — the same per-index figures
/// [`Engine::stats`] reports per dataset.
fn publish_memo_gauges(data: &LiveData) {
    let (bytes, segments) = data
        .datasets
        .values()
        .map(|index| index.embed_memo_stats())
        .fold((0, 0), |(b, s), memo| (b + memo.bytes, s + memo.segments));
    telemetry::gauge(names::EMBED_MEMO_BYTES).set(bytes as f64);
    telemetry::gauge(names::EMBED_MEMO_SEGMENTS).set(segments as f64);
}

/// Records how much deadline headroom `member` ended with (negative
/// when it ended past its deadline). No-op without a deadline.
fn observe_deadline_margin(member: &Member) {
    let Some(deadline) = member.cancel.deadline() else {
        return;
    };
    let now = Instant::now();
    // One of the two differences saturates to zero.
    let margin = deadline.saturating_duration_since(now).as_secs_f64()
        - now.saturating_duration_since(deadline).as_secs_f64();
    telemetry::histogram(names::SERVER_DEADLINE_MARGIN_MS, DEADLINE_MARGIN_MS_BOUNDS)
        .observe(margin * 1e3);
}

/// Answers `member` successfully — unless its waiter already answered
/// it (its token tripped mid-scan), in which case this is a no-op.
fn finish_ok(shared: &Shared, member: &Member, done: Done) {
    if !member.claim() {
        return;
    }
    tally(shared, member, Event::Completed(&done.search));
    let mut moments = done.search.moments;
    if let Some(k) = member.top_k {
        moments.truncate(k);
    }
    let _ = member.tx.send(Ok(QueryResult {
        moments,
        queue_wait: done.queue_wait,
        execute: done.execute,
        batch_size: 1,
        trace: member.trace.clone(),
    }));
}

/// Answers `member` with `err`. No-op if already answered; safe to call
/// from the worker, the member's waiter, or the shutdown drain.
fn finish_err(shared: &Shared, member: &Member, err: EngineError) {
    if !member.claim() {
        return;
    }
    tally(shared, member, Event::Answered(&err));
    let _ = member.tx.send(Err(err));
}

/// A traffic event in the life of one query, as [`tally`] counts it.
enum Event<'a> {
    /// Passed admission and was queued.
    Accepted,
    /// Refused at admission with this error (shutdown, queue full, class
    /// quota, class rate limit); never queued.
    Shed(&'a EngineError),
    /// Left the queue with its deadline already passed; never ran
    /// (counted beside the claim winner's `Answered(DeadlineExceeded)`).
    ExpiredInQueue,
    /// Answered successfully by this search.
    Completed(&'a StoreSearch),
    /// Answered with this error after admission.
    Answered(&'a EngineError),
}

/// The one place a traffic event is counted: the only code that touches
/// the engine's atomics, the `sketchql.server.*` counters and
/// `trace.set_outcome`. Callers that answer a member hold its claim, so
/// each query is counted once per event however many parties raced.
fn tally(shared: &Shared, member: &Member, event: Event) {
    let c = &shared.counters;
    let dataset = shared.dataset_counters(&member.dataset);
    let class = shared.class_counters(&member.class);
    let bump = |slot: &AtomicU64| {
        slot.fetch_add(1, Ordering::Relaxed);
    };
    let count = |name: &str| telemetry::counter(name).inc();
    match event {
        Event::Accepted => {
            bump(&c.accepted);
            count(names::SERVER_ACCEPTED);
        }
        Event::Shed(err) => {
            bump(&dataset.shed);
            member.trace.set_outcome(TraceOutcome::Shed);
            if let EngineError::RateLimited { .. } = err {
                bump(&class.rate_limited);
                class.rate_limited_metric.inc();
                return;
            }
            bump(&class.shed);
            class.shed_metric.inc();
            // `Overloaded` is the global queue bound or the class's
            // quota; the only other refusal is shutdown.
            if let EngineError::Overloaded { .. } = err {
                bump(&c.rejected);
                count(names::SERVER_SHED_QUEUE_FULL);
            } else {
                count(names::SERVER_SHED_SHUTDOWN);
            }
        }
        Event::ExpiredInQueue => count(names::SERVER_SHED_DEADLINE_QUEUE),
        Event::Completed(search) => {
            bump(&dataset.completed);
            bump(&class.completed);
            class.completed_metric.inc();
            count(names::SERVER_COMPLETED);
            if search.from_store {
                bump(&c.store_hits);
                c.store_probed.fetch_add(search.probed, Ordering::Relaxed);
            } else if search.fallback {
                bump(&c.store_fallbacks);
            }
        }
        Event::Answered(err) => {
            let (slot, total) = match err {
                EngineError::DeadlineExceeded => (&dataset.timed_out, names::SERVER_TIMED_OUT),
                _ => (&dataset.failed, names::SERVER_FAILED),
            };
            bump(slot);
            count(total);
            member.trace.set_outcome(match err {
                EngineError::DeadlineExceeded => TraceOutcome::DeadlineExceeded,
                EngineError::Cancelled => {
                    count(names::SERVER_SHED_CANCELLED);
                    TraceOutcome::Cancelled
                }
                // A query drained at shutdown after admission.
                EngineError::ShuttingDown => {
                    count(names::SERVER_SHED_SHUTDOWN);
                    TraceOutcome::Shed
                }
                _ => TraceOutcome::Failed,
            });
        }
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;

    fn job(dataset: &str, priority: i32, seq: u64, deadline: Option<Duration>) -> Job {
        let cancel = match deadline {
            Some(d) => CancelToken::with_timeout(d),
            None => CancelToken::new(),
        };
        // The receiver is dropped: these jobs are only ordered, never
        // executed or answered.
        let (tx, _) = mpsc::channel();
        Job {
            priority,
            seq,
            query: Clip::new(640.0, 480.0, Vec::new()),
            member: Arc::new(Member {
                dataset: dataset.to_string(),
                class: DEFAULT_CLASS.to_string(),
                top_k: None,
                min_end: None,
                cancel,
                enqueued_at: Instant::now(),
                trace: TraceContext::new(),
                tx,
                claimed: AtomicBool::new(false),
            }),
        }
    }

    /// The freshly built (unshared) member of `job`, for tests that
    /// adjust a field the builder has no parameter for.
    fn member_mut(job: &mut Job) -> &mut Member {
        Arc::get_mut(&mut job.member).expect("unshared")
    }

    #[test]
    fn default_policy_picks_fifo_order() {
        let policy = SchedPolicy::default();
        let queue: VecDeque<Job> = [job("a", 0, 1, None), job("a", 0, 2, None)].into();
        assert_eq!(pick_index(&queue, &policy, Instant::now()), Some(0));
    }

    #[test]
    fn higher_priority_jumps_the_queue() {
        let policy = SchedPolicy::default();
        let queue: VecDeque<Job> = [
            job("a", 0, 1, None),
            job("a", 5, 2, None),
            job("a", 1, 3, None),
        ]
        .into();
        assert_eq!(pick_index(&queue, &policy, Instant::now()), Some(1));
    }

    #[test]
    fn earlier_deadline_breaks_priority_ties() {
        let policy = SchedPolicy::default();
        let queue: VecDeque<Job> = [
            job("a", 0, 1, None),
            job("a", 0, 2, Some(Duration::from_secs(60))),
            job("a", 0, 3, Some(Duration::from_secs(30))),
        ]
        .into();
        assert_eq!(pick_index(&queue, &policy, Instant::now()), Some(2));
    }

    #[test]
    fn aging_credit_promotes_old_jobs() {
        let policy = SchedPolicy {
            aging_ms: 10,
            ..Default::default()
        };
        let mut old = job("a", 0, 1, None);
        member_mut(&mut old).enqueued_at = Instant::now() - Duration::from_millis(200);
        let queue: VecDeque<Job> = [job("a", 5, 2, None), old].into();
        // 200ms / 10ms = +20 credit beats base priority 5.
        assert_eq!(pick_index(&queue, &policy, Instant::now()), Some(1));
    }
}
