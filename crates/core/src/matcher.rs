//! The Matcher: sliding-window similarity search over a video's tracked
//! trajectories (§2.2 of the demo paper).
//!
//! Given a visual query C_Q, the Matcher enumerates candidate video clips
//! C_V — temporal windows at several scales of the query's duration,
//! crossed with class-compatible combinations of tracked objects — scores
//! each candidate with a [`Similarity`], suppresses temporally overlapping
//! hits (NMS), and returns the top-k moments sorted by score.
//!
//! Which windows exist is decided in one place, the crate's `grid`
//! module; which tracks may fill one, in
//! [`VideoIndex::tracks_in_window`]. The store writer and the rule
//! baseline ([`rules`](crate::rules)) walk the same two, and the rule
//! baseline also shares `for_each_distinct_combo` and `nms_top_k` below.
//!
//! There is one scan, `Matcher::scan`, and its unit of work is one query
//! over one index under one [`CancelToken`] and one optional epoch
//! scope; `search` and `search_with_cancel` are fronts over it, and the
//! store planner (`Matcher::search_stored`, in [`vstore`](crate::vstore))
//! sends the query it cannot serve through it. For embedding-based
//! similarities the scan (1) looks the query's windows up in the index's
//! window memo ([`embed_cache`](crate::embed_cache)), scoring a
//! remembered window's rows in place, eight candidates at a time, and
//! enumerating the others — each new segment queued once; (2) embeds the
//! queued segments in batched encoder forwards across worker threads and
//! publishes the enumerated windows to the memo; (3) scores those
//! windows the same way. This returns byte-identical moments to the
//! direct per-candidate path while embedding each distinct segment once
//! per index and model — a window grid asked a second time costs one
//! look-up per window.

use serde::{Deserialize, Serialize};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::features::MAX_OBJECTS;
use sketchql_trajectory::{Clip, TrackId, Trajectory};
use std::collections::HashSet;
use std::fmt;

use crate::cancel::{CancelReason, CancelToken};
use crate::embed_cache::{
    try_embed_clips_parallel, ScanSlots, SegmentKey, Window, WindowBatch, WindowKey,
};
use crate::grid;
use crate::index::VideoIndex;
use crate::similarity::{PreparedQuery, Similarity, SimilarityError};
use crate::vstore::{hash_index, index_fingerprint};

/// Matcher search parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatcherConfig {
    /// Window lengths to try, as multiples of the query's duration.
    pub window_scales: Vec<f32>,
    /// Window stride as a fraction of the window length.
    pub stride_frac: f32,
    /// Number of moments to return.
    pub top_k: usize,
    /// Temporal-IoU threshold for non-maximum suppression.
    pub nms_tiou: f32,
    /// Smallest window considered (frames).
    pub min_window: u32,
    /// A track must cover at least this fraction of a window to be a
    /// candidate participant.
    pub min_overlap_frac: f32,
    /// Cap on object combinations scored per window (guards the
    /// multi-object cartesian product).
    pub max_combos_per_window: usize,
    /// Worker threads for window scoring (1 = sequential). Windows are
    /// independent, so search parallelizes embarrassingly well.
    pub threads: usize,
    /// Trim each returned moment to the active-motion extent of its bound
    /// tracks (drops parked lead-in/lead-out frames a sliding window
    /// inevitably includes).
    pub refine_boundaries: bool,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig {
            window_scales: vec![0.75, 1.0, 1.5],
            stride_frac: 0.25,
            top_k: 10,
            nms_tiou: 0.45,
            min_window: 16,
            min_overlap_frac: 0.5,
            max_combos_per_window: 64,
            threads: 1,
            refine_boundaries: true,
        }
    }
}

/// One retrieved video moment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrievedMoment {
    /// First frame of the moment.
    pub start: u32,
    /// Last frame (inclusive).
    pub end: u32,
    /// Similarity score in `[0, 1]`.
    pub score: f32,
    /// The tracks (by id) bound to the query's object slots.
    pub track_ids: Vec<TrackId>,
}

impl RetrievedMoment {
    /// Temporal IoU with another moment.
    pub fn temporal_iou(&self, other: &RetrievedMoment) -> f32 {
        let inter_start = self.start.max(other.start);
        let inter_end = self.end.min(other.end);
        if inter_end < inter_start {
            return 0.0;
        }
        let inter = (inter_end - inter_start + 1) as f32;
        let union =
            (self.end - self.start + 1) as f32 + (other.end - other.start + 1) as f32 - inter;
        inter / union
    }
}

/// Errors from a cancellable search.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchError {
    /// The similarity rejected the query itself (see [`SimilarityError`]).
    Similarity(SimilarityError),
    /// The search stopped early: its [`CancelToken`] tripped.
    Cancelled(CancelReason),
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::Similarity(e) => write!(f, "{e}"),
            MatchError::Cancelled(r) => write!(f, "search {r}"),
        }
    }
}

impl std::error::Error for MatchError {}

impl From<SimilarityError> for MatchError {
    fn from(e: SimilarityError) -> Self {
        MatchError::Similarity(e)
    }
}

impl From<CancelReason> for MatchError {
    fn from(r: CancelReason) -> Self {
        MatchError::Cancelled(r)
    }
}

/// The Matcher: a similarity function plus search parameters.
pub struct Matcher<S: Similarity> {
    /// The similarity used to score candidates.
    pub sim: S,
    /// Search parameters.
    pub config: MatcherConfig,
}

impl<S: Similarity> Matcher<S> {
    /// Creates a matcher with default search parameters.
    pub fn new(sim: S) -> Self {
        Matcher {
            sim,
            config: MatcherConfig::default(),
        }
    }

    /// Creates a matcher with explicit parameters.
    pub fn with_config(sim: S, config: MatcherConfig) -> Self {
        Matcher { sim, config }
    }

    /// Runs the sliding-window search of `query` over `index`.
    ///
    /// Degenerate inputs return an empty result set rather than panic: an
    /// empty index, an empty query, a query shorter than
    /// [`MatcherConfig::min_window`], or window scales that all exceed the
    /// video's length. A query the similarity itself cannot score (e.g.
    /// more objects than the learned encoder supports) is an error — every
    /// candidate would silently score 0.0 otherwise.
    pub fn search(
        &self,
        index: &VideoIndex,
        query: &Clip,
    ) -> Result<Vec<RetrievedMoment>, SimilarityError> {
        match self.search_with_cancel(index, query, &CancelToken::none()) {
            Ok(r) => Ok(r),
            Err(MatchError::Similarity(e)) => Err(e),
            Err(MatchError::Cancelled(_)) => unreachable!("null token never cancels"),
        }
    }

    /// [`search`](Self::search) with cooperative cancellation: `cancel` is
    /// polled between windows, between encoder batches, and between scan
    /// phases, so a cancelled or deadline-expired search stops consuming
    /// CPU promptly (within one window / one encoder batch) and returns
    /// [`MatchError::Cancelled`] instead of results.
    pub fn search_with_cancel(
        &self,
        index: &VideoIndex,
        query: &Clip,
        cancel: &CancelToken,
    ) -> Result<Vec<RetrievedMoment>, MatchError> {
        let _search_span = telemetry::span(names::MATCHER_SEARCH);
        self.scan(index, query, cancel, None)
    }

    /// [`search_with_cancel`](Self::search_with_cancel) for each of
    /// `queries` in turn, all under one `cancel` token. Each answer is
    /// the solo one; a later query finds the windows an earlier one
    /// scanned in the index's memo. Kept only because the frozen
    /// benchmark ledger calls it (ROADMAP 3(v)).
    pub fn search_batch(
        &self,
        index: &VideoIndex,
        queries: &[&Clip],
        cancel: &CancelToken,
    ) -> Vec<Result<Vec<RetrievedMoment>, MatchError>> {
        queries
            .iter()
            .map(|q| self.search_with_cancel(index, q, cancel))
            .collect()
    }

    /// Whether `query` can match nothing in `index` by construction:
    /// empty, shorter than [`MatcherConfig::min_window`], or searched
    /// over an empty index.
    pub(crate) fn is_degenerate(&self, index: &VideoIndex, query: &Clip) -> bool {
        let q_span = query.span();
        q_span == 0
            || q_span < self.config.min_window
            || query.num_objects() == 0
            || index.frames == 0
    }

    /// The scan — the only one there is — of one query, under `cancel`:
    /// settle a degenerate query to an empty result, prepare the query,
    /// enumerate its windows and drop those ending before `min_end` (the
    /// epoch scope — applied before scoring, so `top_k` acts within it);
    /// score them on the memo path ([`scan_memo`](Self::scan_memo)) or,
    /// for a similarity without an
    /// [`embedding_identity`](Similarity::embedding_identity) or a query
    /// wider than a window key holds, directly
    /// ([`scan_direct`](Self::scan_direct)); then rank them (sort, NMS,
    /// top-k, refinement). The answer does not depend on the path, nor
    /// on what the memo held when it ran.
    pub(crate) fn scan(
        &self,
        index: &VideoIndex,
        query: &Clip,
        cancel: &CancelToken,
        min_end: Option<u32>,
    ) -> Result<Vec<RetrievedMoment>, MatchError> {
        let _scan_span = telemetry::span(names::MATCHER_SCAN);
        if self.is_degenerate(index, query) {
            return Ok(Vec::new());
        }
        cancel.check()?;
        let prepared = {
            let _prepare_span = telemetry::span(names::MATCHER_PREPARE);
            self.sim.prepare(query)?
        };
        let classes = query.classes();
        let mut windows = self.enumerate_windows(query.span(), index.frames);
        if let Some(min_end) = min_end {
            windows.retain(|&(_, end, _)| end >= min_end);
        }
        telemetry::counter(names::WINDOWS_ENUMERATED).add(windows.len() as u64);
        let scored = match self.sim.embedding_identity() {
            // A window key holds what the encoder can take.
            Some(model) if classes.len() <= MAX_OBJECTS => {
                self.scan_memo(index, model, &classes, &prepared, &windows, cancel)?
            }
            _ => self.scan_direct(index, &classes, &prepared, &windows, cancel)?,
        };
        telemetry::counter(names::WINDOWS_PRUNED).add((windows.len() - scored.len()) as u64);
        Ok(self.rank(index, scored))
    }

    /// The embedding scan of `windows` for a query of `classes`, in three
    /// steps:
    ///
    /// 1. **Look up** every window in the index's memo under `model`
    ///    ([`resolve_windows`](Self::resolve_windows)): a remembered one
    ///    is scored there and then, any other enumerated and its new
    ///    segments queued for the encoder.
    /// 2. **Embed** the queued segments in one batched encoder pass and
    ///    publish the enumerated windows to the memo. A window's
    ///    candidates depend only on the index, the model and its key, not
    ///    on the query, so every later look-alike query pays for the
    ///    encoder once. A tripped token stops the pass, which then
    ///    publishes nothing.
    /// 3. **Score** the enumerated windows from the pass
    ///    ([`score_pending`](Self::score_pending)).
    fn scan_memo(
        &self,
        index: &VideoIndex,
        model: u64,
        classes: &[sketchql_trajectory::ObjectClass],
        prepared: &PreparedQuery,
        windows: &[(u32, u32, u32)],
        cancel: &CancelToken,
    ) -> Result<Vec<RetrievedMoment>, MatchError> {
        // The memo describes the index as it was when first scanned, and
        // clones share it: debug builds pin that identity here and check
        // it at every later scan, as store searches do.
        debug_assert!(
            index_fingerprint(index) == hash_index(index),
            "index edited after its fingerprint was cached"
        );
        let mut slots = ScanSlots::default();
        // Lane-scoring scratch, one window's worth, reused by every window.
        let mut scores: Vec<f32> = Vec::new();
        let resolved = self.resolve_windows(
            index,
            model,
            classes,
            prepared,
            windows,
            &mut slots,
            &mut scores,
            cancel,
        );
        telemetry::counter(names::EMBED_CACHE_HITS).add(slots.hits());
        telemetry::counter(names::EMBED_CACHE_MISSES).add(slots.misses());
        let resolved = resolved?;

        let fresh = {
            let _embed_span = telemetry::span(names::MATCHER_EMBED);
            try_embed_clips_parallel(&self.sim, slots.clips(), self.config.threads, cancel)
        };
        let batch = fresh.map(|fresh| slots.finish(&fresh));
        if let Some(batch) = &batch {
            index.memo.publish(model, batch);
        }
        cancel.check()?;
        let batch = batch.expect("the pass stops only once the token has tripped");
        self.score_pending(prepared, resolved, &batch, &mut scores, cancel)
    }

    /// Final ranking: [`nms_top_k`], then optional boundary refinement.
    pub(crate) fn rank(
        &self,
        index: &VideoIndex,
        scored: Vec<RetrievedMoment>,
    ) -> Vec<RetrievedMoment> {
        let _rank_span = telemetry::span(names::MATCHER_RANK);
        let mut kept = nms_top_k(scored, self.config.top_k, self.config.nms_tiou);
        if self.config.refine_boundaries {
            for m in &mut kept {
                refine_boundaries(index, m);
            }
        }
        kept
    }

    /// The direct (no embeddings) scan: score every window's best
    /// candidate, in window order, on up to `threads` workers. Polls
    /// `cancel` between windows.
    fn scan_direct(
        &self,
        index: &VideoIndex,
        classes: &[sketchql_trajectory::ObjectClass],
        prepared: &PreparedQuery,
        windows: &[(u32, u32, u32)],
        cancel: &CancelToken,
    ) -> Result<Vec<RetrievedMoment>, MatchError> {
        let pieces = crate::fan_out(windows, self.config.threads, |piece| {
            let mut out = Vec::new();
            for &(s, e, o) in piece {
                cancel.check()?;
                out.extend(self.best_in_window(index, classes, prepared, s, e, o));
            }
            Ok::<_, MatchError>(out)
        });
        let mut out = Vec::with_capacity(windows.len());
        for piece in pieces {
            out.extend(piece?);
        }
        Ok(out)
    }

    /// Enumerates every `(start, end, min_overlap)` window across the
    /// configured scales, first occurrence order, duplicates dropped.
    /// Scales whose window would not fit in the video are skipped. (Two
    /// scales can clamp to one length, e.g. under
    /// [`MatcherConfig::min_window`]; their windows are scored once.)
    pub(crate) fn enumerate_windows(&self, q_span: u32, frames: u32) -> Vec<(u32, u32, u32)> {
        let c = &self.config;
        let mut windows: Vec<(u32, u32, u32)> = Vec::new();
        let mut seen: HashSet<(u32, u32, u32)> = HashSet::new();
        for &scale in &c.window_scales {
            let len = grid::window_len(q_span, scale, c.min_window);
            if len > frames {
                continue;
            }
            let of_len = grid::windows(len, frames, c.stride_frac, c.min_overlap_frac, None);
            windows.extend(of_len.filter(|&w| seen.insert(w)));
        }
        windows
    }

    /// Scores all candidate object combinations in one window; returns the
    /// best moment, if any candidate exists.
    fn best_in_window(
        &self,
        index: &VideoIndex,
        classes: &[sketchql_trajectory::ObjectClass],
        prepared: &PreparedQuery,
        start: u32,
        end: u32,
        min_overlap: u32,
    ) -> Option<RetrievedMoment> {
        // Candidate tracks per query slot.
        let per_slot: Vec<Vec<&Trajectory>> = classes
            .iter()
            .map(|c| index.tracks_in_window(*c, start, end, min_overlap))
            .collect();
        if per_slot.iter().any(Vec::is_empty) {
            return None;
        }

        let mut best: Option<RetrievedMoment> = None;
        let mut evals = 0u64;
        for_each_distinct_combo(
            &per_slot,
            self.config.max_combos_per_window,
            |combo, ids| {
                let candidate = window_clip(index, combo, &per_slot, start, end);
                if candidate.is_empty() {
                    return;
                }
                evals += 1;
                // A non-finite score (a degenerate candidate under a
                // classical distance) is treated as "no match" so NaN
                // never reaches the ranking stage.
                let score = self.sim.score(prepared, &candidate);
                let score = if score.is_finite() { score } else { 0.0 };
                if best.as_ref().is_none_or(|b| score > b.score) {
                    best = Some(RetrievedMoment {
                        start,
                        end,
                        score,
                        track_ids: ids.to_vec(),
                    });
                }
            },
        );
        telemetry::counter(names::SIMILARITY_EVALS).add(evals);
        best
    }

    /// Step 1 of [`scan_memo`](Self::scan_memo): every window of
    /// `windows`, in order, under its `WindowKey` for `classes`. A
    /// window the index's memo remembers under `model` is scored on the
    /// spot, its rows in place while the memo's read lock is held; any
    /// other is enumerated into `slots` — eligible tracks per slot,
    /// distinct combinations, each segment resolved against `slots`,
    /// which queues the ones it has not seen for the encoder pass.
    #[allow(clippy::too_many_arguments)]
    fn resolve_windows(
        &self,
        index: &VideoIndex,
        model: u64,
        classes: &[sketchql_trajectory::ObjectClass],
        prepared: &PreparedQuery,
        windows: &[(u32, u32, u32)],
        slots: &mut ScanSlots,
        scores: &mut Vec<f32>,
        cancel: &CancelToken,
    ) -> Result<Vec<Scored>, MatchError> {
        let max_combos = self.config.max_combos_per_window;
        let mut out = Vec::with_capacity(windows.len());
        let mut evals = 0;
        for &(start, end, min_overlap) in windows {
            cancel.check().map_err(MatchError::from)?;
            let key = WindowKey::new(classes, (start, end, min_overlap), max_combos);
            let memo = index.memo.reader(model);
            if let Some(window) = slots.lookup(&memo, &key) {
                evals += window.candidates();
                out.extend(
                    self.best_of(prepared, start, end, window, scores)
                        .map(Scored::Best),
                );
                continue;
            }
            drop(memo);
            let at = slots.open(key);
            let per_slot: Vec<Vec<&Trajectory>> = classes
                .iter()
                .map(|c| index.tracks_in_window(*c, start, end, min_overlap))
                .collect();
            if !per_slot.iter().any(Vec::is_empty) {
                for_each_distinct_combo(&per_slot, max_combos, |combo, ids| {
                    slots.resolve(SegmentKey::new(ids, start, end), || {
                        window_clip(index, combo, &per_slot, start, end)
                    });
                });
            }
            out.push(Scored::Pending { at, start, end });
        }
        telemetry::counter(names::SIMILARITY_EVALS).add(evals as u64);
        Ok(out)
    }

    /// Step 3 of [`scan_memo`](Self::scan_memo): the windows step 1 left
    /// pending are scored from `batch`, this scan's encoder pass, in
    /// window order beside the ones step 1 scored.
    fn score_pending(
        &self,
        prepared: &PreparedQuery,
        windows: Vec<Scored>,
        batch: &WindowBatch,
        scores: &mut Vec<f32>,
        cancel: &CancelToken,
    ) -> Result<Vec<RetrievedMoment>, MatchError> {
        let mut scored = Vec::with_capacity(windows.len());
        let mut evals = 0;
        for window in windows {
            match window {
                Scored::Best(moment) => scored.push(moment),
                Scored::Pending { at, start, end } => {
                    cancel.check().map_err(MatchError::from)?;
                    let window = batch.window(at);
                    evals += window.candidates();
                    scored.extend(self.best_of(prepared, start, end, window, scores));
                }
            }
        }
        telemetry::counter(names::SIMILARITY_EVALS).add(evals as u64);
        Ok(scored)
    }

    /// The best candidate of one window: all its rows scored in one
    /// [`Similarity::score_embeddings`] call (`scores` is scratch), then
    /// the direct path's rules in combination order — a non-finite score
    /// counts as 0 and the first strictly greatest wins. Byte-identical
    /// to [`best_in_window`](Self::best_in_window).
    fn best_of(
        &self,
        prepared: &PreparedQuery,
        start: u32,
        end: u32,
        window: Window<'_>,
        scores: &mut Vec<f32>,
    ) -> Option<RetrievedMoment> {
        scores.clear();
        scores.resize(window.candidates() - window.unembeddable.len(), 0.0);
        self.sim.score_embeddings(prepared, window.rows, scores);
        let mut rows = scores.iter();
        let mut skip = window.unembeddable.iter().peekable();
        let mut best: Option<(f32, &[TrackId])> = None;
        for (k, ids) in window.ids.chunks_exact(window.arity).enumerate() {
            let score = match skip.next_if_eq(&&(k as u32)) {
                Some(_) => self.sim.score_embedding(prepared, None),
                None => *rows.next().expect("a row per embedded candidate"),
            };
            let score = if score.is_finite() { score } else { 0.0 };
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, ids));
            }
        }
        best.map(|(score, ids)| RetrievedMoment {
            start,
            end,
            score,
            track_ids: ids.to_vec(),
        })
    }
}

/// One window of a query's embedding scan, in enumeration order:
/// scored already, or waiting for the encoder pass as window `at` of the
/// scan's [`WindowBatch`]. A window without candidates has no entry.
enum Scored {
    Best(RetrievedMoment),
    Pending { at: usize, start: u32, end: u32 },
}

/// Sorts by score (ties broken deterministically on start, then bound
/// tracks, so parallel and sequential runs agree), drops a moment whose
/// temporal IoU with a better-ranked moment over the same tracks reaches
/// `nms_tiou`, and keeps the best `top_k`.
pub(crate) fn nms_top_k(
    mut scored: Vec<RetrievedMoment>,
    top_k: usize,
    nms_tiou: f32,
) -> Vec<RetrievedMoment> {
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.start.cmp(&b.start))
            .then(a.track_ids.cmp(&b.track_ids))
    });
    let mut kept: Vec<RetrievedMoment> = Vec::new();
    for m in scored {
        if kept.len() >= top_k {
            break;
        }
        let overlaps = kept
            .iter()
            .any(|k| k.temporal_iou(&m) >= nms_tiou && k.track_ids == m.track_ids);
        if !overlaps {
            kept.push(m);
        }
    }
    kept
}

/// Visits every combination of one track per slot where all chosen tracks
/// are distinct, in mixed-radix order, stopping after `max_combos` visits.
/// The callback receives the per-slot indices and the chosen track ids in
/// slot order.
pub(crate) fn for_each_distinct_combo(
    per_slot: &[Vec<&Trajectory>],
    max_combos: usize,
    mut visit: impl FnMut(&[usize], &[TrackId]),
) {
    let mut combo = vec![0usize; per_slot.len()];
    let mut ids: Vec<TrackId> = vec![0; per_slot.len()];
    let mut tried = 0usize;
    'combos: loop {
        for (slot, &i) in combo.iter().enumerate() {
            ids[slot] = per_slot[slot][i].id;
        }
        let distinct = (1..ids.len()).all(|i| !ids[..i].contains(&ids[i]));
        if distinct {
            tried += 1;
            visit(&combo, &ids);
            if tried >= max_combos {
                break 'combos;
            }
        }
        // Advance the mixed-radix counter.
        let mut slot = 0;
        loop {
            combo[slot] += 1;
            if combo[slot] < per_slot[slot].len() {
                break;
            }
            combo[slot] = 0;
            slot += 1;
            if slot == combo.len() {
                break 'combos;
            }
        }
    }
}

/// Trims a moment to the frames that carry its tracks' motion: the leading
/// and trailing stretches contributing less than 2% of the total path
/// length each are dropped. Windows over parked objects are left unchanged
/// (no motion to anchor on).
fn refine_boundaries(index: &VideoIndex, moment: &mut RetrievedMoment) {
    const TRIM_FRAC: f32 = 0.02;
    const MIN_LEN: u32 = 8;
    let tracks: Vec<&Trajectory> = moment
        .track_ids
        .iter()
        .filter_map(|id| index.tracks.iter().find(|t| t.id == *id))
        .collect();
    if tracks.is_empty() || moment.end <= moment.start + MIN_LEN {
        return;
    }
    // Per-frame combined center motion.
    let n = (moment.end - moment.start) as usize;
    let mut motion = vec![0.0f32; n];
    for t in &tracks {
        let mut prev = t.bbox_at(moment.start);
        for (k, m) in motion.iter_mut().enumerate() {
            let f = moment.start + k as u32 + 1;
            let cur = t.bbox_at(f);
            if let (Some(a), Some(b)) = (prev, cur) {
                *m += a.center().distance(&b.center());
            }
            prev = cur;
        }
    }
    let total: f32 = motion.iter().sum();
    if total <= 1e-3 {
        return;
    }
    let lead_budget = total * TRIM_FRAC;
    let mut acc = 0.0;
    let mut lead = 0usize;
    for &m in &motion {
        if acc + m > lead_budget {
            break;
        }
        acc += m;
        lead += 1;
    }
    let mut acc = 0.0;
    let mut trail = 0usize;
    for &m in motion.iter().rev() {
        if acc + m > lead_budget {
            break;
        }
        acc += m;
        trail += 1;
    }
    let new_start = moment.start + lead as u32;
    let new_end = moment.end.saturating_sub(trail as u32);
    if new_end > new_start && new_end - new_start + 1 >= MIN_LEN {
        moment.start = new_start;
        moment.end = new_end;
    }
}

/// Builds the candidate clip for a window: each selected track sliced to
/// `[start, end]` and rebased so the window starts at frame 0 (preserving
/// cross-object timing).
pub(crate) fn window_clip(
    index: &VideoIndex,
    combo: &[usize],
    per_slot: &[Vec<&Trajectory>],
    start: u32,
    end: u32,
) -> Clip {
    let objects = combo
        .iter()
        .enumerate()
        .map(|(slot, &i)| per_slot[slot][i].window(start, end))
        .collect();
    Clip::new(index.frame_width, index.frame_height, objects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::ClassicalSimilarity;
    use sketchql_trajectory::{BBox, DistanceKind, ObjectClass, TrajPoint};

    /// A synthetic index: one car doing a "left turn on screen" (right then
    /// up) during frames 100..190, plus a straight-moving car elsewhere.
    fn test_index() -> VideoIndex {
        let mut turn_pts = Vec::new();
        for i in 0..45u32 {
            turn_pts.push(TrajPoint::new(
                100 + i,
                BBox::new(100.0 + i as f32 * 8.0, 400.0, 60.0, 35.0),
            ));
        }
        for i in 0..45u32 {
            turn_pts.push(TrajPoint::new(
                145 + i,
                BBox::new(460.0, 400.0 - (i + 1) as f32 * 7.0, 40.0, 45.0),
            ));
        }
        let turner = Trajectory::from_points(1, ObjectClass::Car, turn_pts);

        let straight = Trajectory::from_points(
            2,
            ObjectClass::Car,
            (300..420)
                .map(|f| TrajPoint::new(f, BBox::new((f - 300) as f32 * 7.0, 250.0, 60.0, 35.0)))
                .collect(),
        );
        let clip = Clip::new(1280.0, 720.0, vec![turner, straight]);
        VideoIndex::from_clip("test", &clip, 500, 30.0)
    }

    /// A left-turn query: right then up, ~90 ticks.
    fn left_turn_query() -> Clip {
        let mut pts = Vec::new();
        for i in 0..45u32 {
            pts.push(TrajPoint::new(
                i,
                BBox::new(100.0 + i as f32 * 6.0, 450.0, 80.0, 45.0),
            ));
        }
        for i in 0..45u32 {
            pts.push(TrajPoint::new(
                45 + i,
                BBox::new(370.0, 450.0 - (i + 1) as f32 * 6.0, 60.0, 55.0),
            ));
        }
        Clip::new(
            1000.0,
            600.0,
            vec![Trajectory::from_points(0, ObjectClass::Car, pts)],
        )
    }

    fn matcher() -> Matcher<ClassicalSimilarity> {
        Matcher::new(ClassicalSimilarity::new(DistanceKind::Dtw))
    }

    /// A matcher over an untrained encoder: the embedding scan proper.
    fn learned_matcher() -> Matcher<crate::similarity::LearnedSimilarity> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut store = sketchql_nn::ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = sketchql_nn::EncoderConfig {
            input_dim: sketchql_trajectory::TOKEN_DIM,
            steps: 16,
            ..Default::default()
        };
        let enc = sketchql_nn::TrajectoryEncoder::new(&mut store, &mut rng, "enc", cfg);
        Matcher::new(crate::similarity::LearnedSimilarity::new(enc, store))
    }

    #[test]
    fn finds_the_turning_car() {
        let idx = test_index();
        let results = matcher().search(&idx, &left_turn_query()).unwrap();
        assert!(!results.is_empty());
        let top = &results[0];
        assert_eq!(
            top.track_ids,
            vec![1],
            "turner should rank first, got {top:?}"
        );
        // The moment overlaps the true event [100, 190].
        assert!(top.start < 190 && top.end > 100, "moment {top:?}");
    }

    #[test]
    fn straight_query_prefers_straight_car() {
        let idx = test_index();
        let straight_query = Clip::new(
            1000.0,
            600.0,
            vec![Trajectory::from_points(
                0,
                ObjectClass::Car,
                (0..90)
                    .map(|i| {
                        TrajPoint::new(i, BBox::new(100.0 + i as f32 * 7.0, 300.0, 80.0, 45.0))
                    })
                    .collect(),
            )],
        );
        let results = matcher().search(&idx, &straight_query).unwrap();
        assert!(!results.is_empty());
        assert_eq!(results[0].track_ids, vec![2]);
    }

    #[test]
    fn results_are_sorted_and_bounded() {
        let idx = test_index();
        let results = matcher().search(&idx, &left_turn_query()).unwrap();
        assert!(results.len() <= MatcherConfig::default().top_k);
        for w in results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for m in &results {
            assert!((0.0..=1.0).contains(&m.score));
            assert!(m.end < 500);
        }
    }

    #[test]
    fn nms_suppresses_same_track_overlaps() {
        let idx = test_index();
        // Refinement legitimately re-overlaps trimmed moments, so check the
        // NMS invariant on raw windows.
        let m = Matcher::with_config(
            ClassicalSimilarity::new(DistanceKind::Dtw),
            MatcherConfig {
                refine_boundaries: false,
                ..Default::default()
            },
        );
        let results = m.search(&idx, &left_turn_query()).unwrap();
        for i in 0..results.len() {
            for j in i + 1..results.len() {
                if results[i].track_ids == results[j].track_ids {
                    assert!(
                        results[i].temporal_iou(&results[j]) < m.config.nms_tiou,
                        "overlapping moments on same track survived NMS: {:?} {:?}",
                        results[i],
                        results[j]
                    );
                }
            }
        }
    }

    #[test]
    fn empty_query_and_empty_index() {
        let idx = test_index();
        let empty_q = Clip::new(10.0, 10.0, vec![]);
        assert!(matcher().search(&idx, &empty_q).unwrap().is_empty());
        let empty_idx = VideoIndex::from_clip("e", &Clip::new(10.0, 10.0, vec![]), 0, 30.0);
        assert!(matcher()
            .search(&empty_idx, &left_turn_query())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_with_no_tracks_returns_empty() {
        // Frames but no tracks: every window prunes, nothing panics.
        let idx = VideoIndex::from_clip("n", &Clip::new(10.0, 10.0, vec![]), 100, 30.0);
        assert!(matcher()
            .search(&idx, &left_turn_query())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn query_shorter_than_min_window_returns_empty() {
        let idx = test_index();
        let pts = (0..8u32)
            .map(|i| TrajPoint::new(i, BBox::new(i as f32 * 5.0, 300.0, 40.0, 25.0)))
            .collect();
        let q = Clip::new(
            1000.0,
            600.0,
            vec![Trajectory::from_points(0, ObjectClass::Car, pts)],
        );
        assert!(q.span() < MatcherConfig::default().min_window);
        assert!(matcher().search(&idx, &q).unwrap().is_empty());
    }

    #[test]
    fn windows_longer_than_video_are_skipped() {
        // A 20-frame video: every scale of the ~90-frame query exceeds it,
        // so all scales are skipped and the result set is empty.
        let pts = (0..20u32)
            .map(|f| TrajPoint::new(f, BBox::new(f as f32 * 5.0, 300.0, 40.0, 25.0)))
            .collect();
        let clip = Clip::new(
            1280.0,
            720.0,
            vec![Trajectory::from_points(1, ObjectClass::Car, pts)],
        );
        let idx = VideoIndex::from_clip("short", &clip, 20, 30.0);
        assert!(matcher()
            .search(&idx, &left_turn_query())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn clamped_scales_do_not_duplicate_windows() {
        // A 16-frame query: scales 0.75 and 1.0 both clamp to
        // min_window = 16, so naive enumeration would emit every window
        // of that length twice.
        let m = matcher();
        let windows = m.enumerate_windows(16, 100);
        let distinct: HashSet<_> = windows.iter().collect();
        assert_eq!(
            distinct.len(),
            windows.len(),
            "duplicate windows enumerated: {windows:?}"
        );
        // Both clamped scales contribute one copy of the 16-frame grid;
        // scale 1.5 contributes the 24-frame grid.
        assert!(windows.iter().any(|&(s, e, _)| (s, e) == (0, 15)));
        assert!(windows.iter().any(|&(s, e, _)| (s, e) == (0, 23)));
        // The 16-frame grid strides by 4 and stops once a window touches
        // the last frame: starts 0, 4, ..., 84.
        let len16 = windows.iter().filter(|&&(s, e, _)| e - s == 15).count();
        assert_eq!(len16, (0..=84).step_by(4).count());
    }

    #[test]
    fn duplicate_scales_match_single_scale_results() {
        let idx = test_index();
        let query = left_turn_query();
        let single = Matcher::with_config(
            ClassicalSimilarity::new(DistanceKind::Dtw),
            MatcherConfig {
                window_scales: vec![1.0],
                ..Default::default()
            },
        )
        .search(&idx, &query)
        .unwrap();
        let duplicated = Matcher::with_config(
            ClassicalSimilarity::new(DistanceKind::Dtw),
            MatcherConfig {
                window_scales: vec![1.0, 1.0, 1.0],
                ..Default::default()
            },
        )
        .search(&idx, &query)
        .unwrap();
        assert_eq!(single, duplicated);
    }

    #[test]
    fn scores_stay_finite_on_degenerate_candidates() {
        // A stationary track has zero path length — a classical distance
        // can go non-finite there; the matcher must map that to a finite
        // score, never NaN.
        let pts = (0..200u32)
            .map(|f| TrajPoint::new(f, BBox::new(300.0, 300.0, 40.0, 25.0)))
            .collect();
        let clip = Clip::new(
            1280.0,
            720.0,
            vec![Trajectory::from_points(1, ObjectClass::Car, pts)],
        );
        let idx = VideoIndex::from_clip("parked", &clip, 200, 30.0);
        for &kind in DistanceKind::ALL {
            let m = Matcher::new(ClassicalSimilarity::new(kind));
            for r in m.search(&idx, &left_turn_query()).unwrap() {
                assert!(r.score.is_finite(), "{kind:?} produced {:?}", r.score);
            }
        }
    }

    #[test]
    fn class_filter_prunes_wrong_classes() {
        let idx = test_index();
        // A person query over a cars-only index: no candidates at all.
        let person_query = Clip::new(
            1000.0,
            600.0,
            vec![Trajectory::from_points(
                0,
                ObjectClass::Person,
                (0..60)
                    .map(|i| {
                        TrajPoint::new(i, BBox::new(100.0 + i as f32 * 2.0, 300.0, 25.0, 60.0))
                    })
                    .collect(),
            )],
        );
        assert!(matcher().search(&idx, &person_query).unwrap().is_empty());
    }

    #[test]
    fn any_class_matches_everything() {
        let idx = test_index();
        let any_query = Clip::new(
            1000.0,
            600.0,
            vec![Trajectory::from_points(
                0,
                ObjectClass::Any,
                (0..90)
                    .map(|i| {
                        TrajPoint::new(i, BBox::new(100.0 + i as f32 * 7.0, 300.0, 80.0, 45.0))
                    })
                    .collect(),
            )],
        );
        let results = matcher().search(&idx, &any_query).unwrap();
        assert!(!results.is_empty());
    }

    #[test]
    fn multi_object_query_binds_distinct_tracks() {
        // Index with a car and a person crossing perpendicular.
        let car = Trajectory::from_points(
            1,
            ObjectClass::Car,
            (100..180)
                .map(|f| TrajPoint::new(f, BBox::new(400.0, (f - 100) as f32 * 5.0, 60.0, 35.0)))
                .collect(),
        );
        let person = Trajectory::from_points(
            2,
            ObjectClass::Person,
            (100..180)
                .map(|f| {
                    TrajPoint::new(
                        f,
                        BBox::new(100.0 + (f - 100) as f32 * 4.0, 250.0, 20.0, 50.0),
                    )
                })
                .collect(),
        );
        let clip = Clip::new(1280.0, 720.0, vec![car, person]);
        let idx = VideoIndex::from_clip("x", &clip, 300, 30.0);

        let query =
            sketchql_datasets::query_clip(sketchql_datasets::EventKind::PerpendicularCrossing);
        let results = matcher().search(&idx, &query).unwrap();
        assert!(!results.is_empty());
        let top = &results[0];
        assert_eq!(top.track_ids.len(), 2);
        assert_eq!(top.track_ids[0], 1, "car slot binds the car");
        assert_eq!(top.track_ids[1], 2, "person slot binds the person");
    }

    #[test]
    fn refinement_trims_parked_margins() {
        // A track that parks for 40 frames, moves for 50, parks for 40.
        let mut pts = Vec::new();
        for f in 0..40u32 {
            pts.push(TrajPoint::new(f, BBox::new(100.0, 300.0, 40.0, 25.0)));
        }
        for f in 40..90u32 {
            pts.push(TrajPoint::new(
                f,
                BBox::new(100.0 + (f - 39) as f32 * 8.0, 300.0, 40.0, 25.0),
            ));
        }
        for f in 90..130u32 {
            pts.push(TrajPoint::new(f, BBox::new(508.0, 300.0, 40.0, 25.0)));
        }
        let clip = Clip::new(
            1280.0,
            720.0,
            vec![Trajectory::from_points(1, ObjectClass::Car, pts)],
        );
        let idx = VideoIndex::from_clip("r", &clip, 130, 30.0);
        let mut m = RetrievedMoment {
            start: 0,
            end: 129,
            score: 1.0,
            track_ids: vec![1],
        };
        refine_boundaries(&idx, &mut m);
        assert!(m.start >= 35 && m.start <= 45, "start {}", m.start);
        assert!(m.end >= 85 && m.end <= 95, "end {}", m.end);
    }

    #[test]
    fn refinement_leaves_stationary_windows_alone() {
        let pts = (0..60u32)
            .map(|f| TrajPoint::new(f, BBox::new(100.0, 300.0, 40.0, 25.0)))
            .collect();
        let clip = Clip::new(
            1280.0,
            720.0,
            vec![Trajectory::from_points(1, ObjectClass::Car, pts)],
        );
        let idx = VideoIndex::from_clip("s", &clip, 60, 30.0);
        let mut m = RetrievedMoment {
            start: 0,
            end: 59,
            score: 1.0,
            track_ids: vec![1],
        };
        refine_boundaries(&idx, &mut m);
        assert_eq!((m.start, m.end), (0, 59));
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let idx = test_index();
        let query = left_turn_query();
        let seq = Matcher::with_config(
            ClassicalSimilarity::new(DistanceKind::Dtw),
            MatcherConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .search(&idx, &query)
        .unwrap();
        let par = Matcher::with_config(
            ClassicalSimilarity::new(DistanceKind::Dtw),
            MatcherConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .search(&idx, &query)
        .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn pre_cancelled_search_returns_cancelled_not_results() {
        let idx = test_index();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = matcher()
            .search_with_cancel(&idx, &left_turn_query(), &cancel)
            .unwrap_err();
        assert_eq!(err, MatchError::Cancelled(CancelReason::Cancelled));
        // Same through the parallel direct path.
        let m = Matcher::with_config(
            ClassicalSimilarity::new(DistanceKind::Dtw),
            MatcherConfig {
                threads: 4,
                ..Default::default()
            },
        );
        let err = m
            .search_with_cancel(&idx, &left_turn_query(), &cancel)
            .unwrap_err();
        assert_eq!(err, MatchError::Cancelled(CancelReason::Cancelled));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let idx = test_index();
        let cancel = CancelToken::with_deadline_at(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let err = matcher()
            .search_with_cancel(&idx, &left_turn_query(), &cancel)
            .unwrap_err();
        assert_eq!(err, MatchError::Cancelled(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn null_token_search_matches_plain_search() {
        let idx = test_index();
        let q = left_turn_query();
        let plain = matcher().search(&idx, &q).unwrap();
        let tokened = matcher()
            .search_with_cancel(&idx, &q, &CancelToken::none())
            .unwrap();
        assert_eq!(plain, tokened);
        let live = matcher()
            .search_with_cancel(&idx, &q, &CancelToken::new())
            .unwrap();
        assert_eq!(plain, live);
    }

    #[test]
    fn batch_search_is_byte_identical_to_solo_searches() {
        let idx = test_index();
        let q1 = left_turn_query();
        let q2 = Clip::new(
            1000.0,
            600.0,
            vec![Trajectory::from_points(
                0,
                ObjectClass::Car,
                (0..90)
                    .map(|i| {
                        TrajPoint::new(i, BBox::new(100.0 + i as f32 * 7.0, 300.0, 80.0, 45.0))
                    })
                    .collect(),
            )],
        );
        let m = matcher();
        let solo: Vec<_> = [&q1, &q2, &q1]
            .iter()
            .map(|q| m.search(&idx, q).unwrap())
            .collect();
        let batch = m.search_batch(&idx, &[&q1, &q2, &q1], &CancelToken::none());
        assert_eq!(batch.len(), 3);
        for (b, s) in batch.into_iter().zip(solo) {
            assert_eq!(b.unwrap(), s, "batched result diverged from solo run");
        }
    }

    #[test]
    fn batch_search_settles_degenerate_queries_per_slot() {
        let idx = test_index();
        let q = left_turn_query();
        let empty = Clip::new(10.0, 10.0, vec![]);
        let batch = matcher().search_batch(&idx, &[&empty, &q], &CancelToken::none());
        assert_eq!(batch[0], Ok(vec![]));
        assert_eq!(batch[1], Ok(matcher().search(&idx, &q).unwrap()));
    }

    /// The memo path only runs for embedding-based similarities, where a
    /// later member finds an earlier one's windows remembered; verify
    /// byte-identity there too.
    #[test]
    fn batch_search_with_learned_similarity_is_byte_identical() {
        let m = learned_matcher();
        assert!(m.sim.embedding_identity().is_some());

        let idx = test_index();
        let q1 = left_turn_query();
        let q2 = {
            let mut pts = Vec::new();
            for i in 0..90u32 {
                pts.push(TrajPoint::new(
                    i,
                    BBox::new(100.0 + i as f32 * 7.0, 300.0, 80.0, 45.0),
                ));
            }
            Clip::new(
                1000.0,
                600.0,
                vec![Trajectory::from_points(0, ObjectClass::Car, pts)],
            )
        };
        let solo: Vec<_> = [&q1, &q2, &q1]
            .iter()
            .map(|q| m.search(&idx, q).unwrap())
            .collect();
        let batch = m.search_batch(&idx, &[&q1, &q2, &q1], &CancelToken::none());
        for (b, s) in batch.into_iter().zip(solo) {
            assert_eq!(b.unwrap(), s, "batched learned result diverged from solo");
        }
    }

    /// The memo's budget forced small (each of two sketches fits alone,
    /// both together do not): alternating them resets the memo every
    /// time, and every answer still equals the one from an index that
    /// remembers everything — a reset costs encoder rows, never bits.
    /// After a reset the other sketch's scan is cold again: it pays what
    /// it paid on a fresh index, and leaves exactly what it left there.
    #[test]
    fn a_memo_at_its_budget_resets_without_changing_results() {
        let m = learned_matcher();

        let long = left_turn_query();
        let short = Clip::new(1000.0, 600.0, vec![long.objects[0].slice(0, 40)]);
        let queries = [long, short];
        // What each leaves behind alone, what it misses, and its answer.
        let alone: Vec<(u64, u64, Vec<RetrievedMoment>)> = queries
            .iter()
            .map(|q| {
                let idx = test_index();
                let trace = telemetry::TraceContext::new();
                let got = {
                    let _entered = trace.enter();
                    m.search(&idx, q).unwrap()
                };
                let misses = trace.finalize().unwrap().count(names::EMBED_CACHE_MISSES);
                (idx.embed_memo_stats().bytes, misses, got)
            })
            .collect();
        let (bytes, want): (Vec<u64>, Vec<_>) = alone.iter().map(|a| (a.0, &a.2)).unzip();
        assert!(bytes.iter().all(|&b| b > 0) && want.iter().all(|w| !w.is_empty()));
        let budget = bytes[0].max(bytes[1]) + bytes[0].min(bytes[1]) / 2;

        let idx = test_index().with_memo_budget(budget as usize);
        for round in 0..3u64 {
            for (i, q) in queries.iter().enumerate() {
                let trace = telemetry::TraceContext::new();
                let got = {
                    let _entered = trace.enter();
                    m.search(&idx, q).unwrap()
                };
                assert_eq!(&got, want[i], "round {round}");
                let stats = idx.embed_memo_stats();
                assert_eq!(stats.bytes, bytes[i], "only this sketch's windows");
                // One reset per switch, counted on the index and in the
                // trace of the query whose publish caused it.
                let switched = u64::from(round + i as u64 > 0);
                assert_eq!(stats.resets, 2 * round + i as u64);
                let trace = trace.finalize().unwrap();
                assert_eq!(trace.count(names::EMBED_MEMO_RESETS), switched);
                assert_eq!(trace.count(names::EMBED_CACHE_MISSES), alone[i].1, "cold");
            }
        }
    }

    #[test]
    fn cancelled_batch_fails_every_slot() {
        let idx = test_index();
        let q = left_turn_query();
        let cancel = CancelToken::new();
        cancel.cancel();
        let batch = matcher().search_batch(&idx, &[&q, &q], &cancel);
        for r in batch {
            assert_eq!(r, Err(MatchError::Cancelled(CancelReason::Cancelled)));
        }
    }

    #[test]
    fn temporal_iou_helper() {
        let a = RetrievedMoment {
            start: 0,
            end: 99,
            score: 1.0,
            track_ids: vec![],
        };
        let b = RetrievedMoment {
            start: 50,
            end: 149,
            score: 1.0,
            track_ids: vec![],
        };
        let c = RetrievedMoment {
            start: 200,
            end: 220,
            score: 1.0,
            track_ids: vec![],
        };
        assert!((a.temporal_iou(&b) - 50.0 / 150.0).abs() < 1e-5);
        assert_eq!(a.temporal_iou(&c), 0.0);
        assert!((a.temporal_iou(&a) - 1.0).abs() < 1e-6);
    }
}
