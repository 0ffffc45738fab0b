//! Per-query reporting: a [`Recorder`] brackets one `run_query` and
//! produces a [`QueryReport`] from counter deltas and top-level spans.

use crate::metrics::counter;
use crate::names;
use crate::span::take_finished_spans;
use crate::span::SpanRecord;
use crate::trace::{TraceContext, TraceGuard};

use std::time::Instant;

/// The pipeline counters a [`Recorder`] tracks, in report order.
const REPORT_COUNTERS: &[&str] = &[
    names::FRAMES_PREPROCESSED,
    names::TRACKS_BUILT,
    names::WINDOWS_ENUMERATED,
    names::WINDOWS_PRUNED,
    names::EMBEDDINGS_COMPUTED,
    names::EMBED_CACHE_HITS,
    names::EMBED_CACHE_MISSES,
    names::SIMILARITY_EVALS,
    names::TOPK_HEAP_OPS,
    names::STORE_HITS,
    names::STORE_FALLBACKS,
    names::STORE_PROBED,
];

/// Everything observed about one query run.
///
/// Counters are deltas over the bracketed region, so concurrent queries
/// on other sessions of the same process can inflate each other's
/// numbers; SketchQL sessions run queries serially, where the deltas are
/// exact. Spans, in contrast, are exact even under concurrency: each
/// recorder collects them through its own
/// [`TraceContext`](crate::TraceContext), so parallel queries cannot
/// steal each other's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryReport {
    /// Label for the run, usually `<dataset>/<query>`.
    pub label: String,
    /// The trace id the run was recorded under. The same trace is
    /// retained in the flight recorder.
    pub trace_id: u64,
    /// Frames run through detection + preprocessing while building
    /// indexes inside the bracketed region (0 for pre-built indexes).
    pub frames_preprocessed: u64,
    /// Tracks materialized inside the bracketed region.
    pub tracks_built: u64,
    /// Candidate windows enumerated across all scales.
    pub windows_enumerated: u64,
    /// Windows discarded before scoring (no eligible tracks).
    pub windows_pruned: u64,
    /// Clip embeddings computed by the learned encoder.
    pub embeddings_computed: u64,
    /// Candidate segments served from the per-search embedding cache.
    pub embed_cache_hits: u64,
    /// Distinct candidate segments the embedding cache had to embed.
    pub embed_cache_misses: u64,
    /// Similarity evaluations (query vs. candidate combination).
    pub similarity_evals: u64,
    /// Pushes into the candidate ranking structure.
    pub topk_heap_ops: u64,
    /// Queries answered from a persistent embedding store.
    pub store_hits: u64,
    /// Queries that had a store available but fell back to the full scan.
    pub store_fallbacks: u64,
    /// Store rows probed and exactly re-ranked.
    pub store_probed: u64,
    /// Completed spans, completion order (children precede parents).
    pub spans: Vec<SpanRecord>,
    /// Total wall time of the bracketed region, nanoseconds.
    pub total_nanos: u64,
    /// Heap bytes attributed to the query's trace (all threads that
    /// entered it).
    pub alloc_bytes: u64,
    /// Heap allocations attributed to the query's trace.
    pub alloc_count: u64,
    /// CPU nanoseconds attributed to the query's trace (wall-clock
    /// upper bound on platforms without a thread CPU clock).
    pub cpu_nanos: u64,
}

impl QueryReport {
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
    /// overlapping top-level spans (a fused batch delivers the shared
    /// scan to several traces; concurrent threads can both be at depth
    /// 0) therefore never push stage coverage past 100% of
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

    /// The counters as `(metric name, value)` pairs, report order.
    pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
        vec![
            (names::FRAMES_PREPROCESSED, self.frames_preprocessed),
            (names::TRACKS_BUILT, self.tracks_built),
            (names::WINDOWS_ENUMERATED, self.windows_enumerated),
            (names::WINDOWS_PRUNED, self.windows_pruned),
            (names::EMBEDDINGS_COMPUTED, self.embeddings_computed),
            (names::EMBED_CACHE_HITS, self.embed_cache_hits),
            (names::EMBED_CACHE_MISSES, self.embed_cache_misses),
            (names::SIMILARITY_EVALS, self.similarity_evals),
            (names::TOPK_HEAP_OPS, self.topk_heap_ops),
            (names::STORE_HITS, self.store_hits),
            (names::STORE_FALLBACKS, self.store_fallbacks),
            (names::STORE_PROBED, self.store_probed),
        ]
    }

    /// Fraction of candidate-segment lookups served from the per-search
    /// embedding cache, or `None` when the query never consulted it
    /// (classical similarity).
    pub fn embed_cache_hit_rate(&self) -> Option<f64> {
        let total = self.embed_cache_hits + self.embed_cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.embed_cache_hits as f64 / total as f64)
        }
    }
}

/// Brackets one query: snapshots the pipeline counters at
/// [`Recorder::begin`], and turns deltas + spans into a [`QueryReport`]
/// at [`Recorder::finish`].
///
/// Each recorder owns a [`TraceContext`](crate::TraceContext) it enters
/// for the duration of the bracket, so spans completed on this thread
/// belong to this recorder alone — concurrent recorders on other
/// threads cannot steal them. The finished trace is also published to
/// the flight recorder under [`QueryReport::trace_id`]. Not `Send`: a
/// recorder must finish on the thread that began it.
pub struct Recorder {
    start: Instant,
    base: Vec<u64>,
    ctx: TraceContext,
    guard: TraceGuard,
}

impl Recorder {
    /// Starts recording under a freshly minted trace id. Drains any
    /// stale finished spans on this thread so pre-bracket leftovers
    /// cannot bleed into later reports.
    pub fn begin() -> Self {
        Self::begin_with_trace(TraceContext::new())
    }

    /// Starts recording into an existing trace (one whose id arrived
    /// over the wire, for instance).
    pub fn begin_with_trace(ctx: TraceContext) -> Self {
        let _ = take_finished_spans();
        let guard = ctx.enter();
        Recorder {
            start: Instant::now(),
            base: REPORT_COUNTERS.iter().map(|n| counter(n).get()).collect(),
            ctx,
            guard,
        }
    }

    /// Stops recording and builds the report.
    pub fn finish(self, label: impl Into<String>) -> QueryReport {
        let Recorder {
            start,
            base,
            ctx,
            guard,
        } = self;
        drop(guard); // stop collecting before snapshotting
        let deltas: Vec<u64> = REPORT_COUNTERS
            .iter()
            .zip(&base)
            .map(|(n, base)| counter(n).get().saturating_sub(*base))
            .collect();
        let label = label.into();
        ctx.set_label(label.clone());
        // The guard dropped above already attributed this thread's
        // alloc/CPU deltas into the trace; finalize snapshots them.
        let (spans, alloc_bytes, alloc_count, cpu_nanos) = match ctx.finalize() {
            Some(trace) => (
                trace.spans.clone(),
                trace.alloc_bytes,
                trace.alloc_count,
                trace.cpu_nanos,
            ),
            None => (Vec::new(), 0, 0, 0),
        };
        QueryReport {
            label,
            trace_id: ctx.id(),
            frames_preprocessed: deltas[0],
            tracks_built: deltas[1],
            windows_enumerated: deltas[2],
            windows_pruned: deltas[3],
            embeddings_computed: deltas[4],
            embed_cache_hits: deltas[5],
            embed_cache_misses: deltas[6],
            similarity_evals: deltas[7],
            topk_heap_ops: deltas[8],
            store_hits: deltas[9],
            store_fallbacks: deltas[10],
            store_probed: deltas[11],
            spans,
            total_nanos: start.elapsed().as_nanos() as u64,
            alloc_bytes,
            alloc_count,
            cpu_nanos,
        }
    }
}
