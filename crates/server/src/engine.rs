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
//! ## Queue order
//!
//! There is one queue and one rule. Interactive queries dequeue in
//! arrival order. A standing-query evaluation — which only the engine
//! itself submits, on a live reload — is ordered as if it had arrived
//! [`LIVE_YIELD`] later: an interactive query arriving within that
//! window still runs first, and an evaluation that has waited that long
//! is ahead of every later arrival, so it cannot starve. Deadlines do
//! not reorder the queue; the waiter enforces them (below).
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
//! also drives the standing-query registry (see the [`live`](crate::live)
//! module): each registration behind the new frame count is evaluated
//! as one epoch-scoped query (`min_end` = its watermark) admitted to
//! the same bounded queue as interactive traffic, where it yields to
//! interactive queries by [`LIVE_YIELD`] (see above). Scoped
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
    RetrievedMoment, ShardSet, Similarity, SimilarityError, StoreSearch, TrainedModel, VideoIndex,
};
use sketchql_telemetry::{self as telemetry, names, TraceContext, TraceOutcome};
use sketchql_trajectory::Clip;

use crate::live::{LiveNotifications, LiveRegistration, LiveRegistry, LiveReload, LIVE_YIELD};

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

/// Engine sizing.
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
    /// Epoch scope: only windows ending at or after this frame are
    /// considered (the standing-query evaluation range). `None` searches
    /// the whole dataset.
    pub min_end: Option<u32>,
}

impl QuerySpec {
    /// A query with no top-k override, no per-query deadline, a
    /// server-minted trace id, and no epoch scope.
    pub fn new(dataset: impl Into<String>, query: Clip) -> Self {
        QuerySpec {
            dataset: dataset.into(),
            query,
            top_k: None,
            deadline: None,
            trace: None,
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

/// The element type of [`EngineStats::classes`], which is always
/// empty: the engine has one queue and no admission classes. Kept only
/// so the Stats reply keeps the shape v5 and v6 clients parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Class name.
    pub name: String,
    /// Base priority of the class.
    pub priority: i32,
    /// Queries of the class waiting in the queue.
    pub queued: usize,
    /// Queue wait of the class's oldest waiting query, milliseconds.
    pub oldest_wait_ms: u64,
    /// Queries of the class answered successfully.
    pub completed: u64,
    /// Queries of the class rejected by its rate limit.
    pub rate_limited: u64,
    /// Queries of the class shed at admission.
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
    /// Always 0: nothing is rate limited. Kept because the wire's
    /// Stats reply carries it for v5 and v6 clients, and the benchmark
    /// reads it.
    pub rate_limited: u64,
    /// Per-dataset traffic totals, in dataset-name order.
    pub datasets: Vec<DatasetTraffic>,
    /// Always empty: there are no admission classes. Kept because the
    /// wire's Stats reply carries it for v5 and v6 clients.
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

/// A queued query: what ordering reads (`standing`, `seq`, the member's
/// arrival), what only the executing worker reads (`query`), and the
/// record everyone who may answer it shares.
struct Job {
    /// A standing-query evaluation, ordered [`LIVE_YIELD`] after its
    /// arrival.
    standing: bool,
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

struct QueueState {
    queue: VecDeque<Job>,
    accepting: bool,
    in_flight: usize,
    next_seq: u64,
}

impl QueueState {
    /// The admission decision, in the order the rejections are
    /// documented: shutdown, then the queue bound.
    fn admit(&self, queue_depth: usize) -> Result<(), EngineError> {
        if !self.accepting {
            return Err(EngineError::ShuttingDown);
        }
        if self.queue.len() >= queue_depth {
            return Err(EngineError::Overloaded { queue_depth });
        }
        Ok(())
    }
}

/// Engine-wide counters with no per-dataset breakdown to be derived
/// from (the other [`EngineStats`] totals are sums of that table).
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
        let registry = LiveRegistry::new(config.registry_path.clone());
        telemetry::gauge(names::LIVE_REGISTRATIONS).set(registry.count() as f64);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                in_flight: 0,
                next_seq: 0,
            }),
            work_ready: Condvar::new(),
            matcher,
            data: Mutex::new(Arc::new(LiveData { datasets, stores })),
            live: registry,
            counters: Counters::default(),
            per_dataset,
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

    /// The engine's effective configuration (`workers` at least 1).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Non-blocking admission. Returns a handle to wait on, or an
    /// immediate rejection ([`EngineError::Overloaded`],
    /// [`EngineError::ShuttingDown`], [`EngineError::UnknownDataset`]).
    pub fn submit(&self, spec: QuerySpec) -> Result<QueryHandle, EngineError> {
        self.enqueue(spec, false)
    }

    /// Admission for [`submit`](Self::submit) and for standing-query
    /// evaluation (`standing`), which the queue orders [`LIVE_YIELD`]
    /// after its arrival.
    fn enqueue(&self, spec: QuerySpec, standing: bool) -> Result<QueryHandle, EngineError> {
        if !self.shared.data().datasets.contains_key(&spec.dataset) {
            return Err(EngineError::UnknownDataset(spec.dataset));
        }
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
        let member = Arc::new(Member {
            dataset: spec.dataset,
            top_k: spec.top_k,
            min_end: spec.min_end,
            cancel: match deadline {
                Some(d) => CancelToken::with_timeout(d),
                None => CancelToken::new(),
            },
            enqueued_at: Instant::now(),
            trace,
            tx,
            claimed: AtomicBool::new(false),
        });
        let mut st = self.shared.state.lock().unwrap();
        if let Err(err) = st.admit(self.config.queue_depth) {
            tally(&self.shared, &member, Event::Shed(&err));
            return Err(err);
        }
        st.next_seq += 1;
        let seq = st.next_seq;
        st.queue.push_back(Job {
            standing,
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
        // Every answered query belongs to one dataset, so the totals are
        // sums of the table rather than a second set of counters.
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
            rate_limited: 0,
            datasets,
            classes: Vec::new(),
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
    /// the appended ranges. A query the encoder cannot embed is refused
    /// with [`EngineError::Similarity`] before anything is registered —
    /// accepted, it would fail on every epoch.
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
        self.shared
            .matcher
            .sim
            .prepare(&query)
            .map_err(EngineError::Similarity)?;
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
    /// flows through the one admission queue, where it yields to
    /// concurrent interactive traffic by [`LIVE_YIELD`].
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
    /// epoch-scoped standing queries through the admission queue. A
    /// failed or shed evaluation leaves the watermark where it was — the
    /// next epoch re-covers the range, so matches are delayed, never
    /// lost.
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
                min_end: Some(d.watermark),
                ..QuerySpec::new(d.dataset.clone(), d.query)
            };
            let Ok(handle) = self.enqueue(spec, true) else {
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
        let leftovers = std::mem::take(&mut self.shared.state.lock().unwrap().queue);
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
                if let Some(i) = pick_index(&st.queue) {
                    let job = st.queue.remove(i).expect("picked index in bounds");
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

/// Index of the next job to dequeue: the least ordering key, which is
/// the arrival time — [`LIVE_YIELD`] later for a standing-query
/// evaluation — with `seq` (arrival order) breaking ties. With no
/// standing jobs queued this is always the queue front.
fn pick_index(queue: &VecDeque<Job>) -> Option<usize> {
    let key = |job: &Job| {
        let at = job.member.enqueued_at;
        (if job.standing { at + LIVE_YIELD } else { at }, job.seq)
    };
    (0..queue.len()).min_by_key(|&i| key(&queue[i]))
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
    /// Refused at admission with this error (shutdown or queue full);
    /// never queued.
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
            // `Overloaded` is the queue bound; the only other refusal is
            // shutdown.
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

    /// A job that arrived at `enqueued_at`, in arrival position `seq`.
    fn job(standing: bool, seq: u64, enqueued_at: Instant) -> Job {
        // The receiver is dropped: these jobs are only ordered, never
        // executed or answered.
        let (tx, _) = mpsc::channel();
        Job {
            standing,
            seq,
            query: Clip::new(640.0, 480.0, Vec::new()),
            member: Arc::new(Member {
                dataset: "a".to_string(),
                top_k: None,
                min_end: None,
                cancel: CancelToken::new(),
                enqueued_at,
                trace: TraceContext::new(),
                tx,
                claimed: AtomicBool::new(false),
            }),
        }
    }

    /// Interactive jobs dequeue in arrival order.
    #[test]
    fn default_policy_picks_fifo_order() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let queue: VecDeque<Job> = [
            job(false, 2, t0 + ms(5)),
            job(false, 1, t0),
            job(false, 3, t0 + ms(5)),
        ]
        .into();
        assert_eq!(pick_index(&queue), Some(1));
        // Equal arrival times fall back to `seq`.
        let tied: VecDeque<Job> = [job(false, 3, t0), job(false, 2, t0)].into();
        assert_eq!(pick_index(&tied), Some(1));
        assert_eq!(pick_index(&VecDeque::new()), None);
    }

    #[test]
    fn standing_job_yields_to_interactive_job_within_live_yield() {
        let t0 = Instant::now();
        let later = t0 + LIVE_YIELD - Duration::from_millis(1);
        let queue: VecDeque<Job> = [job(true, 1, t0), job(false, 2, later)].into();
        assert_eq!(pick_index(&queue), Some(1));
    }

    #[test]
    fn standing_job_goes_first_past_live_yield() {
        let t0 = Instant::now();
        let later = t0 + LIVE_YIELD + Duration::from_millis(1);
        let queue: VecDeque<Job> = [job(true, 1, t0), job(false, 2, later)].into();
        assert_eq!(pick_index(&queue), Some(0));
    }
}
