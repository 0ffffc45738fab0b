//! Per-search embedding memoization for the Matcher hot path.
//!
//! A sliding-window search enumerates (window × object-combination)
//! candidates, and the same candidate *segment* — the same tracks sliced
//! to the same frame range — recurs across window scales (clamped scales
//! collapse to identical windows) and across overlapping strides. With
//! the learned similarity each recurrence used to pay a full encoder
//! forward. [`EmbedCache`] interns each distinct segment exactly once per
//! scan, so the encoder runs once per *unique* candidate, and the
//! unique clips can then be embedded in large batches
//! ([`embed_clips_parallel`]) instead of one forward per candidate.
//!
//! The cache is scoped to one scan (one query, or a batch of concurrent
//! queries over the same index): embeddings depend only on `(track ids
//! in slot order, start, end)` for a fixed index and model, so the
//! batch's members share it, no invalidation is needed, and memory is
//! released when the scan returns.

use std::collections::HashMap;

use sketchql_trajectory::{Clip, TrackId};

use crate::cancel::CancelToken;
use crate::similarity::Similarity;

/// A candidate segment: the bound tracks in query-slot order plus the
/// window's frame range. Slot order matters — feature extraction assigns
/// objects to encoder slots by (class, input order), so permuting tracks
/// of the same class changes the features.
type SegmentKey = (Vec<TrackId>, u32, u32);

/// Interns candidate segments so each distinct one is built and embedded
/// exactly once per search.
#[derive(Debug, Default)]
pub struct EmbedCache {
    /// Segment → index into `clips`, or `None` for known-empty segments.
    map: HashMap<SegmentKey, Option<u32>>,
    clips: Vec<Clip>,
    hits: u64,
    misses: u64,
}

impl EmbedCache {
    /// An empty cache.
    pub fn new() -> Self {
        EmbedCache::default()
    }

    /// Interns the segment `(track_ids, start, end)`, building its clip
    /// with `build` only on first sight. Returns the segment's slot in
    /// [`clips`](Self::clips), or `None` if its clip is empty (empty
    /// candidates are never scored).
    pub fn intern(
        &mut self,
        track_ids: &[TrackId],
        start: u32,
        end: u32,
        build: impl FnOnce() -> Clip,
    ) -> Option<u32> {
        let key = (track_ids.to_vec(), start, end);
        if let Some(&slot) = self.map.get(&key) {
            self.hits += 1;
            return slot;
        }
        self.misses += 1;
        let clip = build();
        let slot = if clip.is_empty() {
            None
        } else {
            self.clips.push(clip);
            Some((self.clips.len() - 1) as u32)
        };
        self.map.insert(key, slot);
        slot
    }

    /// The unique non-empty candidate clips, in first-seen order. Slot
    /// indices returned by [`intern`](Self::intern) index into this.
    pub fn clips(&self) -> &[Clip] {
        &self.clips
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build (and later embed) a new segment.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of distinct non-empty segments interned.
    pub fn len(&self) -> usize {
        self.clips.len()
    }

    /// Whether no non-empty segment has been interned.
    pub fn is_empty(&self) -> bool {
        self.clips.is_empty()
    }
}

/// Clips fed to the encoder between cancellation polls. Matches the
/// encoder's internal batch cap, so a tripped token aborts after at most
/// one batched forward.
const CANCEL_POLL_CLIPS: usize = 64;

/// Embeds `clips` via [`Similarity::embed_candidates`], splitting the
/// batch across `threads` worker threads. Output order matches input
/// order, and the embeddings are identical regardless of thread count
/// (batched encoder forwards are bit-identical to scalar ones).
pub fn embed_clips_parallel<S: Similarity>(
    sim: &S,
    clips: &[Clip],
    threads: usize,
) -> Vec<Option<Vec<f32>>> {
    try_embed_clips_parallel(sim, clips, threads, &[&CancelToken::none()])
        .expect("null token never cancels")
}

/// [`embed_clips_parallel`] on behalf of the searches holding the
/// `waiting` tokens: between encoder batches (on every worker thread)
/// the pass checks whether any of them is still live, and once none is
/// — every token tripped, or nobody waiting at all — it abandons the
/// remaining batches and returns `None`. Embedding values are unchanged:
/// batched encoder forwards are bit-identical regardless of how the
/// input is chunked.
pub fn try_embed_clips_parallel<S: Similarity>(
    sim: &S,
    clips: &[Clip],
    threads: usize,
    waiting: &[&CancelToken],
) -> Option<Vec<Option<Vec<f32>>>> {
    let embed_piece = |piece: &[Clip]| -> Option<Vec<Option<Vec<f32>>>> {
        let mut out = Vec::with_capacity(piece.len());
        for sub in piece.chunks(CANCEL_POLL_CLIPS) {
            if waiting.iter().all(|t| t.is_cancelled()) {
                return None;
            }
            out.extend(sim.embed_candidates(sub));
        }
        Some(out)
    };
    let threads = threads.max(1);
    if threads == 1 || clips.len() < 2 * threads {
        return embed_piece(clips);
    }
    let chunk = clips.len().div_ceil(threads);
    // Hand the calling thread's live traces to the workers so encoder
    // CPU and allocations attribute to the query being embedded.
    let entered = sketchql_telemetry::TraceContext::entered();
    let pieces: Vec<Option<Vec<Option<Vec<f32>>>>> = std::thread::scope(|scope| {
        let embed_piece = &embed_piece;
        let entered = &entered;
        let handles: Vec<_> = clips
            .chunks(chunk)
            .map(|piece| {
                scope.spawn(move || {
                    let _attribution: Vec<_> = entered.iter().map(|t| t.enter()).collect();
                    embed_piece(piece)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("embedding worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(clips.len());
    for piece in pieces {
        out.extend(piece?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchql_trajectory::{BBox, ObjectClass, TrajPoint, Trajectory};

    fn clip(seed: f32) -> Clip {
        let t = Trajectory::from_points(
            1,
            ObjectClass::Car,
            (0..20)
                .map(|f| TrajPoint::new(f, BBox::new(f as f32 * seed, 100.0, 30.0, 20.0)))
                .collect(),
        );
        Clip::new(640.0, 480.0, vec![t])
    }

    #[test]
    fn intern_builds_each_segment_once() {
        let mut cache = EmbedCache::new();
        let mut builds = 0usize;
        let a = cache.intern(&[1, 2], 0, 10, || {
            builds += 1;
            clip(2.0)
        });
        let b = cache.intern(&[1, 2], 0, 10, || {
            builds += 1;
            clip(2.0)
        });
        assert_eq!(a, b);
        assert_eq!(builds, 1, "second intern must be served from the cache");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_segments_get_distinct_slots() {
        let mut cache = EmbedCache::new();
        let a = cache.intern(&[1], 0, 10, || clip(1.0));
        let b = cache.intern(&[1], 5, 15, || clip(2.0));
        let c = cache.intern(&[2], 0, 10, || clip(3.0));
        // Slot order of the bound tracks is part of the key.
        let d = cache.intern(&[2, 1], 0, 10, || clip(4.0));
        let e = cache.intern(&[1, 2], 0, 10, || clip(5.0));
        let slots = [a, b, c, d, e];
        assert!(slots.iter().all(Option::is_some));
        let distinct: std::collections::HashSet<_> = slots.iter().collect();
        assert_eq!(distinct.len(), slots.len());
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn empty_clips_are_remembered_but_not_stored() {
        let mut cache = EmbedCache::new();
        let mut builds = 0usize;
        for _ in 0..3 {
            let slot = cache.intern(&[7], 0, 5, || {
                builds += 1;
                Clip::new(10.0, 10.0, vec![])
            });
            assert_eq!(slot, None);
        }
        assert_eq!(builds, 1, "known-empty segments are not rebuilt");
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }
}
