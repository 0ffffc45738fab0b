//! The per-index segment-embedding memo behind the Matcher's scan.
//!
//! A sliding-window search enumerates (window × object-combination)
//! candidates and, with the learned similarity, scores each from the
//! embedding of its *segment* — the bound tracks sliced to the window's
//! frame range. That embedding depends only on `(track ids in slot
//! order, start, end)` for a fixed index and model, not on the sketch.
//! So the index remembers it: a [`SegmentMemo`] lives in every
//! [`VideoIndex`](crate::VideoIndex) beside its fingerprint, under the
//! same contract — derived, filled lazily by the scans that run, never
//! serialized, shared by clones — and maps a segment to its embedding
//! (or to "empty" / "not embeddable") per model identity
//! ([`Similarity::embedding_identity`]). The paper's loop is draw → run
//! → adjust → run again on the same video: the first run of a window
//! grid pays the encoder, every later one pays look-ups.
//!
//! **Lifetime and invalidation.** There is no invalidation code. An
//! index is immutable once built (every debug-build scan checks it
//! against its fingerprint); changed contents are a new
//! `VideoIndex` with a new, empty memo (`Engine::reload_dataset` swaps
//! the `Arc<VideoIndex>`, and the old memo leaves with the index it
//! describes). A model's rows are found only under that model's
//! fingerprint, so a fine-tuned model starts cold.
//!
//! **Bound.** One constant, [`MEMO_BUDGET_BYTES`], caps what one index
//! holds across every model. A publish that would pass it empties the
//! memo first (counted in `sketchql.matcher.embed_memo_resets`) and the
//! queries that follow refill it — no LRU, no per-entry clock. Rows
//! live flat in one `f32` arena per model.
//!
//! **Concurrency.** The memo sits behind a read-mostly lock that a scan
//! holds for one window's look-ups or for one publish, never across an
//! encoder pass. A hit *copies* the row into the scan's own
//! [`ScanSlots`], so a scan scores from data it owns and a reset under
//! its feet cannot change its answer. Two scans that miss the same
//! segment at the same moment both embed it (identical bits — the
//! encoder is deterministic) and the second publish is a no-op; neither
//! waits for the other. A scan publishes only after its whole encoder
//! pass finished, so a cancelled pass publishes nothing.
//!
//! Results are bit-identical whatever the memo holds: a member's answer
//! does not depend on its batch, its thread, or what ran before it
//! (`tests/embed_cache.rs` referees against the per-candidate scan).

use std::collections::HashMap;
use std::fmt;
use std::sync::{RwLock, RwLockReadGuard};

use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::features::MAX_OBJECTS;
use sketchql_trajectory::{Clip, TrackId};

use crate::cancel::CancelToken;
use crate::similarity::Similarity;

/// Payload bytes one index's memo may hold, across every model: keys,
/// table entries and embedding rows. A guess, sized from the one fixture
/// there is to size it from — perfbench's `scan` workload: a
/// single-object sketch over a 1 800-frame, ~30-track video leaves 1 653
/// segments (48-float rows: 192 B + a 57 B table entry, 0.41 MB), a
/// two-object one 7 196 (1.8 MB); the workload's whole warm state —
/// three single-object and one two-object grid per index — is ~3 MB per
/// index. 16 MiB therefore holds some forty single-object or nine
/// two-object window grids of such a video before the first reset, and
/// a server's worst case is its dataset count times this. No benchmark
/// reaches the reset (only the tests do, with a forced budget), and what
/// share of served queries repeats a window grid has not been measured
/// (ROADMAP item 4(i)); revisit the figure when either is known.
/// Allocator slack (a doubling arena, a power-of-two table at <= 7/8
/// load) is not counted and can at worst double the footprint.
pub const MEMO_BUDGET_BYTES: usize = 16 << 20;

/// A candidate segment: the bound tracks in query-slot order plus the
/// window's frame range. Slot order matters — feature extraction assigns
/// objects to encoder slots by (class, input order), so permuting tracks
/// of the same class changes the features. Fixed-size, so building and
/// looking one up allocates nothing; unused id slots are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SegmentKey {
    ids: [TrackId; MAX_OBJECTS],
    arity: u8,
    start: u32,
    end: u32,
}

impl SegmentKey {
    /// The key of `track_ids` (at most [`MAX_OBJECTS`], the encoder's
    /// own limit) over `[start, end]`.
    pub(crate) fn new(track_ids: &[TrackId], start: u32, end: u32) -> Self {
        let mut ids = [0; MAX_OBJECTS];
        ids[..track_ids.len()].copy_from_slice(track_ids);
        SegmentKey {
            ids,
            arity: track_ids.len() as u8,
            start,
            end,
        }
    }

    /// The bound tracks, in slot order.
    pub(crate) fn track_ids(&self) -> &[TrackId] {
        &self.ids[..self.arity as usize]
    }
}

/// What the memo remembers of one segment.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// The segment's clip is empty: not a candidate at all.
    Empty,
    /// The feature extractor rejects the clip: a candidate scored from
    /// no embedding.
    Unembeddable,
    /// Row number in the model's arena.
    Row(u32),
}

/// Accounted cost of one table entry (the bucket plus its control byte).
const ENTRY_BYTES: usize = std::mem::size_of::<(SegmentKey, Entry)>() + 1;

/// One model's rows: `dim` floats per row, flat.
struct ModelTable {
    model: u64,
    /// Row width; 0 until the first row arrives.
    dim: usize,
    rows: HashMap<SegmentKey, Entry>,
    arena: Vec<f32>,
}

#[derive(Default)]
struct MemoState {
    /// One table per model identity seen since the last reset: a
    /// handful, searched linearly.
    tables: Vec<ModelTable>,
    /// Accounted payload of `tables`.
    bytes: usize,
    segments: usize,
    resets: u64,
}

impl MemoState {
    fn position(&self, model: u64) -> Option<usize> {
        self.tables.iter().position(|t| t.model == model)
    }
}

/// Resident segments / payload bytes / resets of one index's memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Segments remembered, across models.
    pub segments: u64,
    /// Payload bytes held (see [`MEMO_BUDGET_BYTES`]).
    pub bytes: u64,
    /// Times the memo was emptied because a publish would have passed
    /// the budget.
    pub resets: u64,
}

/// The per-index memo: segment → embedding, per model. See the
/// [module docs](self).
pub struct SegmentMemo {
    state: RwLock<MemoState>,
    budget: usize,
}

impl Default for SegmentMemo {
    fn default() -> Self {
        SegmentMemo::with_budget(MEMO_BUDGET_BYTES)
    }
}

impl fmt::Debug for SegmentMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SegmentMemo")
            .field("stats", &self.stats())
            .finish()
    }
}

impl SegmentMemo {
    /// A memo bounded by `budget` bytes instead of the constant — for
    /// tests that need a reset without embedding megabytes.
    pub(crate) fn with_budget(budget: usize) -> Self {
        SegmentMemo {
            state: RwLock::new(MemoState::default()),
            budget,
        }
    }

    /// What the memo holds right now.
    pub fn stats(&self) -> MemoStats {
        let state = self.state.read().expect("memo lock poisoned");
        MemoStats {
            segments: state.segments as u64,
            bytes: state.bytes as u64,
            resets: state.resets,
        }
    }

    /// A read view of `model`'s rows, held for one window's look-ups.
    pub(crate) fn reader(&self, model: u64) -> MemoReader<'_> {
        let state = self.state.read().expect("memo lock poisoned");
        let table = state.position(model);
        MemoReader { state, table }
    }

    /// Remembers what one finished encoder pass learned under `model`:
    /// `rows[i]` is the embedding of `keys[i]` (`None` = not embeddable),
    /// and every key of `empties` has an empty clip. Segments a racing
    /// scan already published are left as they are (identical bits). If
    /// the additions would pass the budget the memo is emptied first; a
    /// single pass larger than the whole budget is not remembered.
    fn publish(
        &self,
        model: u64,
        keys: &[SegmentKey],
        rows: &[Option<Vec<f32>>],
        empties: &[SegmentKey],
    ) {
        let row_bytes =
            |row: &Option<Vec<f32>>| ENTRY_BYTES + row.as_ref().map_or(0, |r| r.len() * 4);
        let all = (
            rows.iter().map(row_bytes).sum::<usize>() + empties.len() * ENTRY_BYTES,
            keys.len() + empties.len(),
        );
        if all.0 > self.budget {
            return;
        }
        let mut state = self.state.write().expect("memo lock poisoned");
        let mut at = state.position(model);
        let table = at.map(|at| &state.tables[at]);
        let absent = |key: &&SegmentKey| table.is_none_or(|t| !t.rows.contains_key(*key));
        let (mut bytes, mut segments) = (0, 0);
        for (_, row) in keys.iter().zip(rows).filter(|(key, _)| absent(key)) {
            bytes += row_bytes(row);
            segments += 1;
        }
        let absent_empties = empties.iter().filter(absent).count();
        bytes += absent_empties * ENTRY_BYTES;
        segments += absent_empties;
        if segments == 0 {
            return;
        }
        if state.bytes + bytes > self.budget {
            telemetry::counter(names::EMBED_MEMO_RESETS).inc();
            state.tables.clear();
            (state.bytes, state.segments) = (0, 0);
            state.resets += 1;
            (bytes, segments) = all;
            at = None;
        }
        let at = at.unwrap_or_else(|| {
            state.tables.push(ModelTable {
                model,
                dim: 0,
                rows: HashMap::new(),
                arena: Vec::new(),
            });
            state.tables.len() - 1
        });
        let table = &mut state.tables[at];
        for (key, row) in keys.iter().zip(rows) {
            table.rows.entry(*key).or_insert_with(|| match row {
                None => Entry::Unembeddable,
                Some(row) => {
                    assert!(
                        table.dim == 0 || table.dim == row.len(),
                        "one model, one width"
                    );
                    table.dim = row.len();
                    table.arena.extend_from_slice(row);
                    Entry::Row((table.arena.len() / table.dim - 1) as u32)
                }
            });
        }
        for key in empties {
            table.rows.entry(*key).or_insert(Entry::Empty);
        }
        state.bytes += bytes;
        state.segments += segments;
    }
}

/// A read lock on the memo, resolved to one model's table.
pub(crate) struct MemoReader<'a> {
    state: RwLockReadGuard<'a, MemoState>,
    table: Option<usize>,
}

impl MemoReader<'_> {
    /// What the memo knows of `key` under this reader's model, with the
    /// embedding itself when it has one.
    fn get(&self, key: &SegmentKey) -> Option<(Entry, &[f32])> {
        let table = &self.state.tables[self.table?];
        let entry = *table.rows.get(key)?;
        let row = match entry {
            Entry::Row(row) => &table.arena[row as usize * table.dim..][..table.dim],
            Entry::Empty | Entry::Unembeddable => &[],
        };
        Some((entry, row))
    }
}

/// Where one scan finds a candidate's embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Row of the scan's copy of memo rows.
    Known(u32),
    /// Index into the scan's own encoder pass.
    Fresh(u32),
    /// A candidate with no embedding (scores as the similarity says).
    Unembeddable,
}

/// One scan's view of its candidates' embeddings: the rows it copied out
/// of the memo, and the segments the memo did not know — each once,
/// whatever the number of windows, scales or batch members that bind it
/// — waiting for the scan's encoder pass.
#[derive(Default)]
pub(crate) struct ScanSlots {
    /// Memo rows, `dim` floats each, in look-up order.
    known: Vec<f32>,
    dim: usize,
    /// First-seen segments of this scan: `None` = empty clip.
    pending: HashMap<SegmentKey, Option<Slot>>,
    /// The non-empty pending segments and their clips, in first-seen
    /// order; [`Slot::Fresh`] indexes both.
    keys: Vec<SegmentKey>,
    clips: Vec<Clip>,
    empties: Vec<SegmentKey>,
    hits: u64,
    misses: u64,
}

impl ScanSlots {
    /// Resolves `key` to a slot, or `None` if its clip is empty (empty
    /// candidates are never scored). Asks the memo, then this scan's own
    /// pending segments; only a segment neither has seen is built (with
    /// `build`) and queued for the encoder. A *hit* is a look-up that
    /// will pay no encoder row, whichever of the two served it.
    pub(crate) fn resolve(
        &mut self,
        memo: &MemoReader<'_>,
        key: SegmentKey,
        build: impl FnOnce() -> Clip,
    ) -> Option<Slot> {
        if let Some((entry, row)) = memo.get(&key) {
            self.hits += 1;
            return match entry {
                Entry::Empty => None,
                Entry::Unembeddable => Some(Slot::Unembeddable),
                Entry::Row(_) => {
                    self.dim = row.len();
                    self.known.extend_from_slice(row);
                    Some(Slot::Known((self.known.len() / self.dim - 1) as u32))
                }
            };
        }
        if let Some(&slot) = self.pending.get(&key) {
            self.hits += 1;
            return slot;
        }
        self.misses += 1;
        let clip = build();
        let slot = if clip.is_empty() {
            self.empties.push(key);
            None
        } else {
            self.keys.push(key);
            self.clips.push(clip);
            Some(Slot::Fresh((self.clips.len() - 1) as u32))
        };
        self.pending.insert(key, slot);
        slot
    }

    /// The clips this scan must embed, in first-seen order.
    pub(crate) fn clips(&self) -> &[Clip] {
        &self.clips
    }

    /// Publishes the finished pass over [`clips`](Self::clips) — `fresh`,
    /// one entry per clip — into `memo` under `model`.
    pub(crate) fn publish(&self, memo: &SegmentMemo, model: u64, fresh: &[Option<Vec<f32>>]) {
        if !self.pending.is_empty() {
            memo.publish(model, &self.keys, fresh, &self.empties);
        }
    }

    /// The embedding behind `slot`; `fresh` is this scan's encoder pass.
    pub(crate) fn embedding<'a>(
        &'a self,
        slot: Slot,
        fresh: &'a [Option<Vec<f32>>],
    ) -> Option<&'a [f32]> {
        match slot {
            Slot::Known(row) => Some(&self.known[row as usize * self.dim..][..self.dim]),
            Slot::Fresh(i) => fresh[i as usize].as_deref(),
            Slot::Unembeddable => None,
        }
    }

    /// Look-ups that paid no encoder row.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Look-ups that queued a new segment for the encoder.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
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

    fn key(ids: &[TrackId], start: u32, end: u32) -> SegmentKey {
        SegmentKey::new(ids, start, end)
    }

    /// Resolves `k` against `memo` (model 7) into `slots`, counting builds.
    fn resolve(
        slots: &mut ScanSlots,
        memo: &SegmentMemo,
        k: SegmentKey,
        clip: Clip,
        builds: &mut usize,
    ) -> Option<Slot> {
        slots.resolve(&memo.reader(7), k, || {
            *builds += 1;
            clip
        })
    }

    #[test]
    fn intern_builds_each_segment_once() {
        let memo = SegmentMemo::default();
        let mut slots = ScanSlots::default();
        let mut builds = 0usize;
        let k = key(&[1, 2], 0, 10);
        let a = resolve(&mut slots, &memo, k, clip(2.0), &mut builds);
        let b = resolve(&mut slots, &memo, k, clip(2.0), &mut builds);
        assert_eq!(a, Some(Slot::Fresh(0)));
        assert_eq!(a, b);
        assert_eq!(builds, 1, "second sight is served by the scan itself");
        assert_eq!((slots.hits(), slots.misses()), (1, 1));
        assert_eq!(slots.clips().len(), 1);
    }

    #[test]
    fn distinct_segments_get_distinct_slots() {
        let memo = SegmentMemo::default();
        let mut slots = ScanSlots::default();
        let mut builds = 0usize;
        // Frame range, track set and slot order are all part of the key.
        let keys = [
            key(&[1], 0, 10),
            key(&[1], 5, 15),
            key(&[2], 0, 10),
            key(&[2, 1], 0, 10),
            key(&[1, 2], 0, 10),
        ];
        let got = keys.map(|k| resolve(&mut slots, &memo, k, clip(1.0), &mut builds));
        assert_eq!(got, [0, 1, 2, 3, 4].map(|i| Some(Slot::Fresh(i))));
        assert_eq!((slots.hits(), slots.misses()), (0, 5));
    }

    #[test]
    fn empty_clips_are_remembered_but_not_stored() {
        let memo = SegmentMemo::default();
        let mut slots = ScanSlots::default();
        let mut builds = 0usize;
        let k = key(&[7], 0, 5);
        let empty = || Clip::new(10.0, 10.0, vec![]);
        for _ in 0..3 {
            assert_eq!(resolve(&mut slots, &memo, k, empty(), &mut builds), None);
        }
        assert_eq!(builds, 1, "known-empty segments are not rebuilt");
        assert!(slots.clips().is_empty());
        assert_eq!((slots.hits(), slots.misses()), (2, 1));

        // The index remembers the emptiness too, at the cost of an entry.
        slots.publish(&memo, 7, &[]);
        assert_eq!(memo.stats().bytes as usize, ENTRY_BYTES);
        let mut later = ScanSlots::default();
        assert_eq!(resolve(&mut later, &memo, k, empty(), &mut builds), None);
        assert_eq!(builds, 1);
        assert_eq!((later.hits(), later.misses()), (1, 0));
    }

    #[test]
    fn published_rows_come_back_bit_for_bit_under_their_model_only() {
        let memo = SegmentMemo::default();
        let keys = [key(&[1], 0, 9), key(&[2], 0, 9), key(&[1, 2], 0, 9)];
        let rows = [
            Some(vec![0.25f32, -1.5, 3.0]),
            None,
            Some(vec![7.0, 8.0, 9.0]),
        ];
        let empty = key(&[3], 0, 9);
        memo.publish(7, &keys, &rows, &[empty]);
        let stats = memo.stats();
        assert_eq!(stats.segments, 4);
        assert_eq!(stats.bytes as usize, 4 * ENTRY_BYTES + 2 * 3 * 4);

        // A racing scan's identical publish changes nothing.
        memo.publish(7, &keys, &rows, &[empty]);
        assert_eq!(memo.stats(), stats);

        let mut slots = ScanSlots::default();
        let mut resolve_under =
            |model: u64, k: SegmentKey| slots.resolve(&memo.reader(model), k, || clip(1.0));
        assert_eq!(resolve_under(7, keys[2]), Some(Slot::Known(0)));
        assert_eq!(resolve_under(7, keys[1]), Some(Slot::Unembeddable));
        assert_eq!(
            resolve_under(7, empty),
            None,
            "known-empty: not a candidate, not rebuilt"
        );
        assert_eq!(resolve_under(7, keys[0]), Some(Slot::Known(1)));
        // Another model sees none of it.
        assert_eq!(resolve_under(8, keys[0]), Some(Slot::Fresh(0)));
        assert_eq!((slots.hits(), slots.misses()), (4, 1));
        assert_eq!(
            slots.embedding(Slot::Known(0), &[]),
            Some(&[7.0f32, 8.0, 9.0][..])
        );
        assert_eq!(
            slots.embedding(Slot::Known(1), &[]),
            Some(&[0.25f32, -1.5, 3.0][..])
        );
        assert_eq!(slots.embedding(Slot::Unembeddable, &[]), None);
    }

    #[test]
    fn a_publish_past_the_budget_empties_the_memo_first() {
        let row = |v: f32| Some(vec![v; 8]);
        let one = ENTRY_BYTES + 8 * 4;
        let memo = SegmentMemo::with_budget(3 * one);
        let (a, b, c, d) = (
            key(&[1], 0, 9),
            key(&[2], 0, 9),
            key(&[3], 0, 9),
            key(&[4], 0, 9),
        );
        memo.publish(1, &[a, b], &[row(1.0), row(2.0)], &[]);
        // Another model's rows count against the same budget.
        memo.publish(2, &[c], &[row(3.0)], &[]);
        assert_eq!(
            memo.stats(),
            MemoStats {
                segments: 3,
                bytes: 3 * one as u64,
                resets: 0
            }
        );

        memo.publish(2, &[d], &[row(4.0)], &[]);
        assert_eq!(
            memo.stats(),
            MemoStats {
                segments: 1,
                bytes: one as u64,
                resets: 1
            }
        );
        assert!(memo.reader(1).get(&a).is_none(), "emptied across models");
        assert!(matches!(memo.reader(2).get(&d), Some((Entry::Row(0), r)) if r == [4.0; 8]));

        // A pass that could never fit is not remembered and evicts nothing.
        let keys = [a, b, c, key(&[5], 0, 9)];
        memo.publish(1, &keys, &[row(1.0), row(2.0), row(3.0), row(5.0)], &[]);
        assert_eq!(
            memo.stats(),
            MemoStats {
                segments: 1,
                bytes: one as u64,
                resets: 1
            }
        );
    }
}
