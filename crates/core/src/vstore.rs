//! Store-backed search: fingerprints, the ingest grid configuration,
//! and the one planner every query goes through, with or without a
//! store.
//!
//! The learned similarity embeds candidate clips independently of the
//! query, so candidate-window embeddings are query-agnostic. Ingest
//! ([`ingest_sharded`](crate::vshard::ingest_sharded)) computes them
//! once into a [`ShardSet`]; [`Matcher::search_stored`] then embeds only
//! the query, ranks the set's coarse-quantizer centroids, gathers the
//! rows under the best lists, and re-ranks them with the *exact* same
//! `score_embeddings` call the full scan uses, so every moment the store
//! path reports carries a bit-identical score.
//!
//! Stores are strictly a cache: when one does not match the live model
//! (fingerprint), the live index (fingerprint), or the query's window
//! lengths (derived by the same `grid` functions ingest enumerated
//! with), the planner hands the query to the scan
//! (`Matcher::scan`, the same call it makes when there is no store at
//! all) and the results are what they always were. Multi-object queries
//! always scan — the store persists one track per row, not track
//! combinations.

use sketchql_store::{Fnv64, StoreRow};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{Clip, TrackId};

use crate::cancel::CancelToken;
use crate::embed_cache::SegmentKey;
use crate::grid;
use crate::index::{overlap_frames, VideoIndex};
use crate::matcher::{MatchError, Matcher, MatcherConfig, RetrievedMoment, WindowMoment};
use crate::similarity::{LearnedSimilarity, PreparedQuery, Similarity};
use crate::vshard::ShardSet;

/// Fingerprints a trained similarity model: the encoder's
/// hyper-parameters plus every weight, bit-exact. Two models fingerprint
/// equal iff they embed every clip identically, which is exactly when a
/// store built by one can serve the other.
///
/// Hashed once per [`LearnedSimilarity`], on first call; every later
/// call on the same value (one per store query, in the planner) reads
/// the cached `u64`.
pub fn model_fingerprint(sim: &LearnedSimilarity) -> u64 {
    *sim.fingerprint.get_or_init(|| hash_model(sim))
}

/// Fingerprints a video index: dimensions plus every track's identity and
/// full point data, bit-exact. A store only serves an index whose
/// fingerprint matches the one it was ingested from.
///
/// Hashed once per [`VideoIndex`], on first call (so after
/// `build_with_postprocess` has rewritten its tracks); clones share
/// the value, a deserialized index hashes afresh.
pub fn index_fingerprint(index: &VideoIndex) -> u64 {
    *index.fingerprint.get_or_init(|| hash_index(index))
}

fn hash_model(sim: &LearnedSimilarity) -> u64 {
    let mut h = Fnv64::new();
    let c = &sim.encoder.config;
    for v in [
        c.input_dim,
        c.d_model,
        c.heads,
        c.layers,
        c.ff_hidden,
        c.embed_dim,
        c.steps,
    ] {
        h.write_u64(v as u64);
    }
    h.write(&[u8::from(c.positional)]);
    h.write(format!("{:?}", c.pooling).as_bytes());
    for (name, tensor) in sim.store.iter() {
        h.write(name.as_bytes());
        h.write_u64(tensor.rows as u64);
        h.write_u64(tensor.cols as u64);
        for &v in &tensor.data {
            h.write_f32(v);
        }
    }
    h.finish()
}

pub(crate) fn hash_index(index: &VideoIndex) -> u64 {
    let mut h = Fnv64::new();
    h.write_u32(index.frames);
    h.write_f32(index.fps);
    h.write_f32(index.frame_width);
    h.write_f32(index.frame_height);
    h.write_u64(index.tracks.len() as u64);
    for t in &index.tracks {
        h.write_u64(t.id);
        h.write(t.class.label().as_bytes());
        h.write_u64(t.points().len() as u64);
        for p in t.points() {
            h.write_u32(p.frame);
            h.write_f32(p.bbox.cx);
            h.write_f32(p.bbox.cy);
            h.write_f32(p.bbox.w);
            h.write_f32(p.bbox.h);
        }
    }
    h.finish()
}

/// Ingest parameters: which window lengths to persist and how many
/// threads embed them. Stride and overlap floor are the crate's window
/// grid, as for every query.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestConfig {
    /// Window lengths (frames) to enumerate. Build this with
    /// [`IngestConfig::from_matcher`] so the lengths the store persists
    /// are exactly the lengths queries will ask for.
    pub window_lens: Vec<u32>,
    /// Worker threads for the batched embedding pass.
    pub threads: usize,
}

impl IngestConfig {
    /// The ingest grid for the query spans (frames) expected at serving
    /// time: every window length a query of those spans derives,
    /// deduplicated and sorted, embedded on `config`'s thread count.
    pub fn from_matcher(config: &MatcherConfig, query_spans: &[u32]) -> Self {
        let mut lens: Vec<u32> = query_spans
            .iter()
            .flat_map(|&span| grid::window_lens(span))
            .collect();
        lens.sort_unstable();
        lens.dedup();
        IngestConfig {
            window_lens: lens,
            threads: config.threads,
        }
    }
}

/// Outcome of one [`Matcher::search_stored`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSearch {
    /// The retrieved moments (ranked, NMS'd, refined — same pipeline as
    /// the full scan).
    pub moments: Vec<RetrievedMoment>,
    /// Whether the store served the query.
    pub from_store: bool,
    /// Whether a store was offered, could not serve the query, and the
    /// full scan answered instead — what `sketchql.store.fallbacks`
    /// counts. A degenerate query is settled before the store is
    /// consulted: neither served nor fallen back.
    pub fallback: bool,
    /// Store rows probed and re-ranked (0 unless served).
    pub probed: u64,
}

impl StoreSearch {
    /// A result the store did not serve.
    fn unserved(moments: Vec<RetrievedMoment>, fallback: bool) -> Self {
        StoreSearch {
            moments,
            from_store: false,
            fallback,
            probed: 0,
        }
    }
}

impl Matcher<LearnedSimilarity> {
    /// The search planner — the one call every query goes through.
    /// `query` is answered from `set` when it can be and from the scan
    /// when it cannot; with no `set` it scans:
    ///
    /// 1. **Classify.** A degenerate query (empty, shorter than
    ///    [`MIN_WINDOW`](crate::MIN_WINDOW), or over an empty index)
    ///    settles to an empty result. A query `set` cannot serve goes to
    ///    the scan, counted under its reason
    ///    (`sketchql.store.fallback.<reason>`): it binds more than one
    ///    object (stores hold single-track rows) — `multi_object`; the
    ///    set's model or index fingerprint differs from the live
    ///    model/index — `model_fingerprint`, `index_fingerprint`; or the
    ///    set's manifest records another stride or overlap floor than
    ///    the window grid's (a set from outside), or a window length the
    ///    query derives was not ingested — `window_grid`. Anything else
    ///    embeds its query.
    /// 2. **Rank** the set's centroids for the query embedding
    ///    ([`CoarseQuantizer::rank`]).
    /// 3. **Gather and re-rank**: the rows under the top `nprobe` lists,
    ///    scored exactly and run through the usual ranking pipeline. A
    ///    shard that fails to load (corruption discovered at first
    ///    probe) sends the query to the scan (`shard_load`), so results
    ///    stay correct.
    /// 4. **Scan** (`Matcher::scan`) a query the store did not serve —
    ///    counted as a store fallback when there was a store to fall
    ///    back from.
    ///
    /// `cancel` is polled throughout. Every moment the store path
    /// reports scores bit-identically to the full scan (the same
    /// `score_embeddings` over the same vector bits); probing fewer than
    /// all lists can only *omit* windows, never change a reported score.
    ///
    /// `min_end` is the epoch scope: only windows whose **end** frame is
    /// at least `min_end` are considered. A window fires in the epoch
    /// that first covers its last frame, so scoping by end makes epochs
    /// partition the windows: no window is delivered twice, none is
    /// skipped. Windows are filtered before scoring on both the store
    /// path and the scan, so `top_k` applies *within* the scope and
    /// scores stay bit-identical to an unscoped query.
    ///
    /// [`CoarseQuantizer::rank`]: sketchql_store::CoarseQuantizer::rank
    pub fn search_stored(
        &self,
        index: &VideoIndex,
        set: Option<&ShardSet>,
        query: &Clip,
        cancel: &CancelToken,
        min_end: Option<u32>,
    ) -> Result<StoreSearch, MatchError> {
        let _search_span = telemetry::span(names::MATCHER_SEARCH);
        if let Some(set) = set {
            if self.is_degenerate(index, query) {
                return Ok(StoreSearch::unserved(Vec::new(), false));
            }
            if let Some(served) = self.probe_store(index, set, query, cancel, min_end)? {
                return Ok(served);
            }
        }
        // A refusal was counted, with its reason, where it was made.
        let moments = self.scan(index, query, cancel, min_end)?;
        Ok(StoreSearch::unserved(moments, set.is_some()))
    }

    /// Steps 1-3 of [`search_stored`](Self::search_stored) for a
    /// non-degenerate `query`: its answer from `set`, or `None` (counted
    /// under its reason) when the set cannot serve it.
    fn probe_store(
        &self,
        index: &VideoIndex,
        set: &ShardSet,
        query: &Clip,
        cancel: &CancelToken,
        min_end: Option<u32>,
    ) -> Result<Option<StoreSearch>, MatchError> {
        if let Err(reason) = self.meta_serves(index, set, query) {
            count_fallback(reason);
            return Ok(None);
        }
        cancel.check()?;
        let prepared = {
            let _prepare_span = telemetry::span(names::MATCHER_PREPARE);
            self.sim.prepare(query)?
        };
        let PreparedQuery::Embedding(embedding) = &prepared else {
            unreachable!("learned similarity always prepares an embedding")
        };
        let gathered = {
            let _probe_span = telemetry::span(names::STORE_PROBE);
            let ranked = set.quantizer().rank(embedding);
            let nprobe = set.nprobe.max(1).min(ranked.len());
            set.gather(&ranked[..nprobe])
        };
        // A load error was logged where it was first recorded
        // (`ShardSet::loaded`); the query goes to the scan.
        let Ok(mut candidates) = gathered else {
            count_fallback(names::STORE_FALLBACK_SHARD_LOAD);
            return Ok(None);
        };
        // The live epoch scope, applied before ranking so `top_k` acts
        // within it: only windows ending at or after `min_end`.
        if let Some(m) = min_end {
            candidates.retain(|(row, _)| row.end >= m);
        }
        cancel.check()?;
        self.finish_store_search(index, query, &prepared, candidates, cancel)
            .map(Some)
    }

    /// [`search_stored`](Self::search_stored) for one unscoped query.
    pub fn search_with_shards(
        &self,
        index: &VideoIndex,
        set: &ShardSet,
        query: &Clip,
        cancel: &CancelToken,
    ) -> Result<StoreSearch, MatchError> {
        self.search_stored(index, Some(set), query, cancel, None)
    }

    /// [`search_stored`](Self::search_stored) for one query under an
    /// epoch scope.
    pub fn search_with_shards_scoped(
        &self,
        index: &VideoIndex,
        set: &ShardSet,
        query: &Clip,
        cancel: &CancelToken,
        min_end: Option<u32>,
    ) -> Result<StoreSearch, MatchError> {
        self.search_stored(index, Some(set), query, cancel, min_end)
    }

    /// The served path's tail: window enumeration, exact re-rank of the
    /// probed candidates, and the usual ranking pipeline. Taking the
    /// candidates as `(row, vector)` pairs is what makes the result
    /// independent of the shard layout by construction: how many shards
    /// the rows came from cannot influence scoring, and the
    /// best-per-slot selection below is insensitive to candidate order
    /// (strictly-greater score wins, ties break on track position).
    fn finish_store_search(
        &self,
        index: &VideoIndex,
        query: &Clip,
        prepared: &PreparedQuery,
        candidates: Vec<(StoreRow, &[f32])>,
        cancel: &CancelToken,
    ) -> Result<StoreSearch, MatchError> {
        let q_span = query.span();
        let qclass = query.classes()[0];

        let scan_span = telemetry::span(names::MATCHER_SCAN);
        let windows = grid::query_windows(q_span, index.frames);
        telemetry::counter(names::WINDOWS_ENUMERATED).add(windows.len() as u64);

        // A window's ranking slot is its ordinal in `windows`. Clamped
        // tail windows of different lengths can share a (start, end)
        // range while demanding different floors, so a range resolves to
        // a run of ordinals: `by_range` sorted by (start, end, ordinal).
        let mut by_range: Vec<(u32, u32, usize)> = windows
            .iter()
            .enumerate()
            .map(|(k, &(s, e, _))| (s, e, k))
            .collect();
        by_range.sort_unstable();
        // The few frame counts a window spans: a row spanning any other
        // is no window of this query, whatever its start.
        let mut spans: Vec<u32> = windows.iter().map(|&(s, e, _)| e - s + 1).collect();
        spans.sort_unstable();
        spans.dedup();
        // Track order decides ties exactly as the scan's combination
        // order does (first strictly-greatest wins). A track id listed
        // twice resolves to its last position.
        let mut track_pos: Vec<(TrackId, usize)> = index
            .tracks
            .iter()
            .enumerate()
            .map(|(i, t)| (t.id, i))
            .collect();
        track_pos.sort_unstable();

        // Filter first (span, class, range, track position), gathering
        // the survivors' rows back to back; score them in one call; then
        // pick the best per slot in the original order.
        let mut kept: Vec<(StoreRow, usize, u32, std::ops::Range<usize>)> = Vec::new();
        let mut rows: Vec<f32> = Vec::new();
        for (k, &(row, vector)) in candidates.iter().enumerate() {
            if k % 1024 == 1023 {
                cancel.check().map_err(MatchError::from)?;
            }
            let span = row.end.wrapping_sub(row.start).wrapping_add(1);
            if !spans.contains(&span) || !qclass.matches(&row.class) {
                continue;
            }
            let lo = by_range.partition_point(|&(s, e, _)| (s, e) < (row.start, row.end));
            let run = by_range[lo..]
                .iter()
                .take_while(|&&(s, e, _)| (s, e) == (row.start, row.end))
                .count();
            if run == 0 {
                continue;
            }
            let at = track_pos.partition_point(|&(id, _)| id <= row.track_id);
            let Some(&(id, pos)) = at.checked_sub(1).map(|at| &track_pos[at]) else {
                continue;
            };
            if id != row.track_id {
                continue;
            }
            let overlap = overlap_frames(&index.tracks[pos], row.start, row.end);
            kept.push((row, pos, overlap, lo..lo + run));
            rows.extend_from_slice(vector);
        }
        let mut scores = vec![0.0; kept.len()];
        self.sim.score_embeddings(prepared, &rows, &mut scores);
        telemetry::counter(names::SIMILARITY_EVALS).add(kept.len() as u64);

        // Best candidate per slot.
        let mut best: Vec<Option<(f32, usize, TrackId)>> = vec![None; windows.len()];
        for ((row, pos, overlap, slots), score) in kept.into_iter().zip(scores) {
            let score = if score.is_finite() { score } else { 0.0 };
            for &(_, _, k) in &by_range[slots] {
                if overlap < windows[k].2 {
                    continue;
                }
                let slot = &mut best[k];
                if slot.is_none_or(|(best, best_pos, _)| {
                    score > best || (score == best && pos < best_pos)
                }) {
                    *slot = Some((score, pos, row.track_id));
                }
            }
        }

        // Emit in window-enumeration order, the order the scan scores in;
        // ranking builds a `RetrievedMoment` only for the windows it keeps.
        let scored: Vec<WindowMoment> = windows
            .iter()
            .zip(&best)
            .filter_map(|(&(start, end, _), slot)| {
                slot.map(|(score, _, track_id)| WindowMoment {
                    segment: SegmentKey::new(&[track_id], start, end),
                    score,
                })
            })
            .collect();
        telemetry::counter(names::WINDOWS_PRUNED).add((windows.len() - scored.len()) as u64);
        drop(scan_span);

        telemetry::counter(names::STORE_HITS).inc();
        telemetry::counter(names::STORE_PROBED).add(candidates.len() as u64);
        Ok(StoreSearch {
            moments: self.rank(index, scored),
            from_store: true,
            fallback: false,
            probed: candidates.len() as u64,
        })
    }

    /// Whether `set` can serve this query over this index with results
    /// the full scan would also produce; if not, why not, as the
    /// `names::STORE_FALLBACK_*` counter the refusal is counted under.
    fn meta_serves(
        &self,
        index: &VideoIndex,
        set: &ShardSet,
        query: &Clip,
    ) -> Result<(), &'static str> {
        // The fingerprints below are cached identities; every debug-build
        // search checks that nothing edited a model or index after its
        // first fingerprint.
        debug_assert_eq!(
            model_fingerprint(&self.sim),
            hash_model(&self.sim),
            "model edited after its fingerprint was cached"
        );
        debug_assert_eq!(
            index_fingerprint(index),
            hash_index(index),
            "index edited after its fingerprint was cached"
        );
        let manifest = set.manifest();
        if query.num_objects() != 1 {
            return Err(names::STORE_FALLBACK_MULTI_OBJECT);
        }
        if !set.matches_model(&self.sim) {
            return Err(names::STORE_FALLBACK_MODEL_FINGERPRINT);
        }
        if !set.matches_index(index) {
            return Err(names::STORE_FALLBACK_INDEX_FINGERPRINT);
        }
        // Every window length this query derives (and that fits the
        // video) must have been ingested, on the same stride and floor.
        let grid_matches = grid::is_recorded_in(manifest)
            && grid::window_lens(query.span())
                .iter()
                .all(|&len| len > index.frames || manifest.window_lens.contains(&len));
        grid_matches
            .then_some(())
            .ok_or(names::STORE_FALLBACK_WINDOW_GRID)
    }
}

/// Counts one query the store refused: the `sketchql.store.fallbacks`
/// total and the reason beside it, at the decision site, so both land
/// in the trace of the query that fell back.
fn count_fallback(reason: &'static str) {
    telemetry::counter(names::STORE_FALLBACKS).inc();
    telemetry::counter(reason).inc();
}

/// Filesystem-safe store directory name for a dataset, mirroring the
/// session's naming scheme.
pub(crate) fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}
