//! The per-index window memo behind the Matcher's scan.
//!
//! A sliding-window search enumerates (window × object-combination)
//! candidates and, with the learned similarity, scores each from the
//! embedding of its *segment* — the bound tracks sliced to the window's
//! frame range. Which candidates a window has, in which order, and what
//! each embeds to depend only on the index, the model and the window's
//! `WindowKey` — the query's classes in slot order and `(start, end,
//! min_overlap)` — never on the sketch. So
//! the index remembers whole windows: a [`SegmentMemo`] lives in every
//! [`VideoIndex`] beside its fingerprint, under the
//! same contract — derived, filled lazily by the scans that run, never
//! serialized, shared by clones — and maps a window key to the window's
//! distinct candidates in combination order (their bound tracks, and
//! their embedding rows back to back in one arena) per model identity
//! ([`Similarity::embedding_identity`]). The paper's loop is draw → run
//! → adjust → run again on the same video: the first run of a window
//! grid pays the encoder, every later one pays one look-up per window
//! and scores the rows where they lie.
//!
//! **Lifetime and invalidation.** There is no invalidation code. An
//! index is immutable once built (every debug-build scan checks it
//! against its fingerprint); changed contents are a new
//! `VideoIndex` with a new, empty memo (`Engine::reload_dataset` swaps
//! the `Arc<VideoIndex>`, and the old memo leaves with the index it
//! describes). A model's windows are found only under that model's
//! fingerprint, so a fine-tuned model starts cold.
//!
//! **Bound.** One constant, [`MEMO_BUDGET_BYTES`], caps what one index
//! holds across every model. A publish that would pass it empties the
//! memo first (counted in `sketchql.matcher.embed_memo_resets`) and the
//! queries that follow refill it — no LRU, no per-entry clock.
//!
//! **Concurrency.** The memo sits behind a read-mostly lock that a scan
//! holds while it scores one window's rows in place, or for one
//! publish, never across an encoder pass; a reset waits for the window
//! being scored, so it cannot change an answer. A scan is one query,
//! whose windows are distinct, so it meets each window once: the ones
//! the memo lacks are enumerated and their segments queued in
//! `ScanSlots` — each segment once, however many of the scan's windows
//! bind it, as a recipe (its bound tracks and window, emptiness decided
//! by a range check); the segment's clip is built only inside an
//! embedding worker, so a cold scan holds at most threads × 64 clips at
//! once, however many segments it queued. Two scans that miss the same
//! window at the same moment both embed it (identical bits — the
//! encoder is deterministic) and the second publish is a no-op; neither
//! waits for the other. A scan
//! publishes only after its whole encoder pass finished, so a cancelled
//! pass publishes nothing.
//!
//! Results are bit-identical whatever the memo holds: a query's answer
//! does not depend on its thread count or on what ran before it
//! (`tests/embed_cache.rs` referees against the per-candidate scan).

use std::collections::HashMap;
use std::fmt;
use std::sync::{RwLock, RwLockReadGuard};

use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::features::MAX_OBJECTS;
use sketchql_trajectory::{Clip, ObjectClass, TrackId, Trajectory};

use crate::cancel::CancelToken;
use crate::index::VideoIndex;
use crate::matcher::window_clip;
use crate::similarity::Similarity;

/// Payload bytes one index's memo may hold, across every model: window
/// entries, bound track ids and embedding rows. A guess, sized from the
/// one fixture there is to size it from — perfbench's `scan` workload: a
/// single-object sketch over a 1 800-frame, ~30-track video holds 1 652
/// candidates in 118 windows (48-float rows: 192 B + an 8 B track id per
/// candidate, 57 B per window entry; 0.34 MB), a two-object one 12 020
/// in 192 windows (2.5 MB); the workload's whole warm state — three
/// single-object and one two-object grid per index — is 2.4-3.4 MB per
/// index. 16 MiB therefore holds some forty-nine single-object or six
/// two-object window grids of such a video before the first reset, and
/// a server's worst case is its dataset count times this. A segment that
/// two remembered windows bind (a clamped tail under two overlap floors,
/// a range under two class lists) is stored once per window; the
/// fixture has none. No benchmark reaches the reset
/// (only the tests do, with a forced budget), and what share of served
/// queries repeats a window grid has not been measured (ROADMAP item
/// 3(i)); revisit the figure when either is known. Allocator slack (a
/// doubling arena, a power-of-two table at <= 7/8 load) is not counted
/// and can at worst double the footprint.
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

    /// The window's first and last frame.
    pub(crate) fn span(&self) -> (u32, u32) {
        (self.start, self.end)
    }
}

/// What one embedding row is made from: the bound tracks in slot order
/// and the window `[start, end]` they are sliced to — a clip's recipe.
/// The clip itself is built only inside an embedding worker
/// ([`embed_segments`]) and dropped once embedded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment<'a> {
    /// `Some` in the first `arity` slots.
    tracks: [Option<&'a Trajectory>; MAX_OBJECTS],
    start: u32,
    end: u32,
}

impl<'a> Segment<'a> {
    /// `tracks` (at most [`MAX_OBJECTS`], the encoder's own limit) over
    /// `[start, end]`.
    pub(crate) fn new(
        tracks: impl IntoIterator<Item = &'a Trajectory>,
        start: u32,
        end: u32,
    ) -> Self {
        let mut slots = [None; MAX_OBJECTS];
        for (slot, t) in slots.iter_mut().zip(tracks) {
            *slot = Some(t);
        }
        Segment {
            tracks: slots,
            start,
            end,
        }
    }

    fn bound(&self) -> impl Iterator<Item = &'a Trajectory> + '_ {
        self.tracks.iter().map_while(|t| *t)
    }

    /// The segment's memo key.
    pub(crate) fn key(&self) -> SegmentKey {
        let mut ids = [0; MAX_OBJECTS];
        let mut arity = 0;
        for (id, t) in ids.iter_mut().zip(self.bound()) {
            *id = t.id;
            arity += 1;
        }
        SegmentKey {
            ids,
            arity,
            start: self.start,
            end: self.end,
        }
    }

    /// Whether the clip would hold no point — not a candidate at all: no
    /// bound track has an observation in the window (a range check per
    /// track, nothing built).
    pub(crate) fn is_empty(&self) -> bool {
        self.bound()
            .all(|t| t.points_in(self.start, self.end).is_empty())
    }

    /// The candidate clip ([`window_clip`]).
    pub(crate) fn clip(&self, index: &VideoIndex) -> Clip {
        window_clip(index, self.bound(), self.start, self.end)
    }
}

/// Everything that decides which candidates a window holds and in which
/// order: the query's classes in slot order (at most [`MAX_OBJECTS`])
/// and the window's `(start, end, min_overlap)`. (The cap on
/// combinations is one constant, so it is no part of the key.)
/// Fixed-size, like [`SegmentKey`]; unused class slots are `Any`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct WindowKey {
    classes: [ObjectClass; MAX_OBJECTS],
    arity: u8,
    start: u32,
    end: u32,
    min_overlap: u32,
}

impl WindowKey {
    /// The key of window `(start, end, min_overlap)` for a query of
    /// `classes`.
    pub(crate) fn new(classes: &[ObjectClass], (start, end, min_overlap): (u32, u32, u32)) -> Self {
        let mut slots = [ObjectClass::Any; MAX_OBJECTS];
        slots[..classes.len()].copy_from_slice(classes);
        WindowKey {
            classes: slots,
            arity: classes.len() as u8,
            start,
            end,
            min_overlap,
        }
    }

    fn arity(&self) -> usize {
        self.arity as usize
    }
}

/// Where one window's candidates lie in a [`WindowStore`].
#[derive(Debug, Clone)]
struct WindowEntry {
    /// Combinations the window's enumeration visited, empty clips
    /// included: the segment look-ups one hit on the window stands for.
    visited: u32,
    /// Distinct non-empty candidates, in combination order.
    candidates: u32,
    /// The first candidate's first track id in the store's `ids`.
    first_id: u32,
    /// The first embedded candidate's row in the store's arena.
    first_row: u32,
    /// Candidates the encoder could not embed, ascending: they hold no
    /// row. Almost always empty, which costs no allocation.
    unembeddable: Box<[u32]>,
}

/// Accounted cost of one window entry (the bucket plus its control
/// byte); its ids and rows are counted at their own size.
const WINDOW_BYTES: usize = std::mem::size_of::<(WindowKey, WindowEntry)>() + 1;

/// One window's candidates as the scan scores them, borrowed from a
/// [`WindowStore`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'a> {
    /// Combinations visited, empty clips included.
    pub(crate) visited: u32,
    /// Track ids per candidate (the query's object count).
    pub(crate) arity: usize,
    /// Each candidate's bound tracks in slot order, in combination order.
    pub(crate) ids: &'a [TrackId],
    /// Row width (0 when no row of the store has arrived yet).
    dim: usize,
    /// The embedded candidates' rows, back to back, in combination order.
    pub(crate) rows: &'a [f32],
    /// Positions of the candidates without a row, ascending.
    pub(crate) unembeddable: &'a [u32],
}

impl Window<'_> {
    /// Distinct non-empty candidates.
    pub(crate) fn candidates(&self) -> usize {
        self.ids.len() / self.arity
    }

    /// Accounted cost of remembering this window.
    fn bytes(&self) -> usize {
        WINDOW_BYTES
            + std::mem::size_of_val(self.ids)
            + std::mem::size_of_val(self.rows)
            + std::mem::size_of_val(self.unembeddable)
    }
}

/// Windows' candidates laid out for scoring: each window's track ids
/// back to back, and its rows back to back in one `f32` arena.
#[derive(Default)]
struct WindowStore {
    /// Row width; 0 until the first row arrives.
    dim: usize,
    ids: Vec<TrackId>,
    arena: Vec<f32>,
}

impl WindowStore {
    fn view<'a>(&'a self, key: &WindowKey, entry: &'a WindowEntry) -> Window<'a> {
        let candidates = entry.candidates as usize;
        let rows = (candidates - entry.unembeddable.len()) * self.dim;
        Window {
            visited: entry.visited,
            arity: key.arity(),
            ids: &self.ids[entry.first_id as usize..][..candidates * key.arity()],
            dim: self.dim,
            rows: &self.arena[entry.first_row as usize * self.dim..][..rows],
            unembeddable: &entry.unembeddable,
        }
    }

    /// Appends a window of `visited` combinations whose candidates bind
    /// `ids` and embed to `rows` (`None` = not embeddable), one per
    /// candidate in combination order.
    fn push<'r>(
        &mut self,
        visited: u32,
        ids: &[TrackId],
        rows: impl Iterator<Item = Option<&'r [f32]>>,
    ) -> WindowEntry {
        let first_id = self.ids.len() as u32;
        let first_row = self.arena.len().checked_div(self.dim).unwrap_or(0) as u32;
        self.ids.extend_from_slice(ids);
        let (mut candidates, mut unembeddable) = (0, Vec::new());
        for row in rows {
            match row {
                Some(row) => {
                    assert!(
                        self.dim == 0 || self.dim == row.len(),
                        "one model, one width"
                    );
                    self.dim = row.len();
                    self.arena.extend_from_slice(row);
                }
                None => unembeddable.push(candidates),
            }
            candidates += 1;
        }
        WindowEntry {
            visited,
            candidates,
            first_id,
            first_row,
            unembeddable: unembeddable.into_boxed_slice(),
        }
    }

    /// Appends a copy of `window`.
    fn copy(&mut self, window: Window<'_>) -> WindowEntry {
        let mut skip = window.unembeddable.iter().peekable();
        let mut rows = window.rows.chunks(window.dim.max(1));
        let in_order = (0..window.candidates() as u32).map(|k| match skip.next_if_eq(&&k) {
            Some(_) => None,
            None => rows.next(),
        });
        self.push(window.visited, window.ids, in_order)
    }
}

/// One model's windows.
struct ModelTable {
    model: u64,
    windows: HashMap<WindowKey, WindowEntry>,
    store: WindowStore,
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
    /// Candidate segments remembered, across windows and models (a
    /// segment two remembered windows bind counts in each).
    pub segments: u64,
    /// Payload bytes held (see [`MEMO_BUDGET_BYTES`]).
    pub bytes: u64,
    /// Times the memo was emptied because a publish would have passed
    /// the budget.
    pub resets: u64,
}

/// The per-index memo: window → candidates and their embeddings, per
/// model. See the [module docs](self).
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

    /// A read view of `model`'s windows, held while one window is scored.
    pub(crate) fn reader(&self, model: u64) -> MemoReader<'_> {
        let state = self.state.read().expect("memo lock poisoned");
        let table = state.position(model);
        MemoReader { state, table }
    }

    /// Remembers the windows one finished encoder pass resolved under
    /// `model`. Windows a racing scan already published are left as they
    /// are (identical bits). If the additions would pass the budget the
    /// memo is emptied first; a single pass larger than the whole budget
    /// is not remembered.
    pub(crate) fn publish(&self, model: u64, batch: &WindowBatch) {
        let cost = |i: usize| {
            let window = batch.window(i);
            (window.bytes(), window.candidates())
        };
        let all = (0..batch.windows.len())
            .map(cost)
            .fold((0, 0), |(b, s), (wb, ws)| (b + wb, s + ws));
        if batch.windows.is_empty() || all.0 > self.budget {
            return;
        }
        let mut state = self.state.write().expect("memo lock poisoned");
        let mut at = state.position(model);
        let table = at.map(|at| &state.tables[at]);
        let absent: Vec<usize> = (0..batch.windows.len())
            .filter(|&i| table.is_none_or(|t| !t.windows.contains_key(&batch.windows[i].0)))
            .collect();
        if absent.is_empty() {
            return;
        }
        let (mut bytes, mut segments) = absent
            .iter()
            .map(|&i| cost(i))
            .fold((0, 0), |(b, s), (wb, ws)| (b + wb, s + ws));
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
                windows: HashMap::new(),
                store: WindowStore::default(),
            });
            state.tables.len() - 1
        });
        let table = &mut state.tables[at];
        for (i, (key, _)) in batch.windows.iter().enumerate() {
            if !table.windows.contains_key(key) {
                let entry = table.store.copy(batch.window(i));
                table.windows.insert(*key, entry);
            }
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
    /// The window behind `key` under this reader's model, if remembered.
    pub(crate) fn window(&self, key: &WindowKey) -> Option<Window<'_>> {
        let table = &self.state.tables[self.table?];
        let entry = table.windows.get(key)?;
        Some(table.store.view(key, entry))
    }
}

/// A window this scan enumerated, awaiting the encoder pass.
struct PendingWindow {
    key: WindowKey,
    visited: u32,
    candidates: u32,
    /// The first candidate's first track id in [`ScanSlots::ids`] and
    /// its segment in [`ScanSlots::slots`].
    first_id: u32,
    first_slot: u32,
}

/// One scan's windows the memo did not know, and their segments — each
/// once, whatever the number of the scan's windows that bind it (a
/// clamped tail under two overlap floors, say) — waiting for the scan's
/// encoder pass as recipes, not clips.
#[derive(Default)]
pub(crate) struct ScanSlots<'a> {
    /// First-seen segments of this scan: their index in `segments`, or
    /// `None` for an empty one.
    pending: HashMap<SegmentKey, Option<u32>>,
    /// The non-empty pending segments, in first-seen order.
    segments: Vec<Segment<'a>>,
    /// Enumerated windows, in enumeration order.
    windows: Vec<PendingWindow>,
    /// The candidates of `windows`: bound track ids, and the segment each
    /// embeds.
    ids: Vec<TrackId>,
    slots: Vec<u32>,
    hits: u64,
    misses: u64,
}

impl<'a> ScanSlots<'a> {
    /// Window `key` as `memo` remembers it, if it does; every segment
    /// look-up a remembered window stands for counts as a hit. A scan
    /// meets each of its windows once, so any other window is enumerated
    /// with [`open`](Self::open) and [`resolve`](Self::resolve).
    pub(crate) fn lookup<'m>(
        &mut self,
        memo: &'m MemoReader<'_>,
        key: &WindowKey,
    ) -> Option<Window<'m>> {
        let window = memo.window(key)?;
        self.hits += u64::from(window.visited);
        Some(window)
    }

    /// Starts enumerating window `key`, which the memo does not hold;
    /// [`resolve`](Self::resolve) adds its candidates. Returns the
    /// [`WindowBatch`] window it will be.
    pub(crate) fn open(&mut self, key: WindowKey) -> usize {
        self.windows.push(PendingWindow {
            key,
            visited: 0,
            candidates: 0,
            first_id: self.ids.len() as u32,
            first_slot: self.slots.len() as u32,
        });
        self.windows.len() - 1
    }

    /// Adds the next combination of the window last opened: `segment`.
    /// One this scan has seen is a hit; a new one is queued for the
    /// encoder unless it is empty (not a candidate at all).
    pub(crate) fn resolve(&mut self, segment: Segment<'a>) {
        let window = self.windows.last_mut().expect("a window is open");
        window.visited += 1;
        let key = segment.key();
        let slot = match self.pending.get(&key) {
            Some(&slot) => {
                self.hits += 1;
                slot
            }
            None => {
                self.misses += 1;
                let slot = (!segment.is_empty()).then(|| {
                    self.segments.push(segment);
                    (self.segments.len() - 1) as u32
                });
                self.pending.insert(key, slot);
                slot
            }
        };
        if let Some(slot) = slot {
            window.candidates += 1;
            self.ids.extend_from_slice(key.track_ids());
            self.slots.push(slot);
        }
    }

    /// The segments this scan must embed, in first-seen order.
    pub(crate) fn segments(&self) -> &[Segment<'a>] {
        &self.segments
    }

    /// Lays out the enumerated windows over the finished pass — `fresh`,
    /// one entry per segment — ready to score and publish.
    pub(crate) fn finish(&self, fresh: &[Option<Vec<f32>>]) -> WindowBatch {
        let mut batch = WindowBatch::default();
        for w in &self.windows {
            let ids = &self.ids[w.first_id as usize..][..w.candidates as usize * w.key.arity()];
            let slots = &self.slots[w.first_slot as usize..][..w.candidates as usize];
            let rows = slots.iter().map(|&s| fresh[s as usize].as_deref());
            let entry = batch.store.push(w.visited, ids, rows);
            batch.windows.push((w.key, entry));
        }
        batch
    }

    /// Segment look-ups that paid no encoder row.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Look-ups that built a new segment for the encoder.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }
}

/// The windows one scan enumerated, laid out over its encoder pass:
/// scored from here, then published to the memo.
#[derive(Default)]
pub(crate) struct WindowBatch {
    windows: Vec<(WindowKey, WindowEntry)>,
    store: WindowStore,
}

impl WindowBatch {
    /// Window `at`, as [`ScanSlots::open`] numbered it.
    pub(crate) fn window(&self, at: usize) -> Window<'_> {
        let (key, entry) = &self.windows[at];
        self.store.view(key, entry)
    }
}

/// Clips one embedding worker builds, embeds and drops at a time,
/// between cancellation polls. Matches the encoder's internal batch cap,
/// so a tripped token aborts after at most one batched forward.
const WORKER_BATCH: usize = 64;

/// The embedding of each of `segments`' clips, via
/// [`Similarity::embed_candidates`] on up to `threads` workers, or `None`
/// once `cancel` tripped (polled between batches on every worker, which
/// then abandon the rest). A worker builds the clips of its next
/// `WORKER_BATCH` segments, embeds them and drops them before it builds
/// more, so at most `threads × WORKER_BATCH` clips exist at once however
/// many segments there are. Output order is input order, and the bits do
/// not depend on `threads` (batched encoder forwards are bit-identical to
/// scalar ones, however the input is chunked).
pub(crate) fn embed_segments<S: Similarity>(
    sim: &S,
    index: &VideoIndex,
    segments: &[Segment<'_>],
    threads: usize,
    cancel: &CancelToken,
) -> Option<Vec<Option<Vec<f32>>>> {
    embed_in_batches(segments, threads, cancel, |batch| {
        let clips: Vec<Clip> = batch.iter().map(|s| s.clip(index)).collect();
        sim.embed_candidates(&clips)
    })
}

/// Embeds built `clips` the way `embed_segments` embeds recipes —
/// `threads` workers, `WORKER_BATCH` clips a batch, input order. The
/// scan and the store writer embed segments; this form stays for callers
/// that hold clips already (the benchmark's ledger).
pub fn embed_clips_parallel<S: Similarity>(
    sim: &S,
    clips: &[Clip],
    threads: usize,
) -> Vec<Option<Vec<f32>>> {
    embed_in_batches(clips, threads, &CancelToken::none(), |batch| {
        sim.embed_candidates(batch)
    })
    .expect("null token never cancels")
}

/// The worker loop under both: `items` cut into `threads` contiguous
/// pieces ([`crate::fan_out`]), each embedded `WORKER_BATCH` items at a
/// time by `embed`, with `cancel` polled before every batch.
fn embed_in_batches<T: Sync>(
    items: &[T],
    threads: usize,
    cancel: &CancelToken,
    embed: impl Fn(&[T]) -> Vec<Option<Vec<f32>>> + Sync,
) -> Option<Vec<Option<Vec<f32>>>> {
    let pieces = crate::fan_out(items, threads, |piece| {
        let mut out = Vec::with_capacity(piece.len());
        for batch in piece.chunks(WORKER_BATCH) {
            if cancel.is_cancelled() {
                return None;
            }
            out.extend(embed(batch));
        }
        Some(out)
    });
    let mut out = Vec::with_capacity(items.len());
    for piece in pieces {
        out.extend(piece?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchql_trajectory::{BBox, TrajPoint};

    /// Track `id` observed at frames `0..20` — inside every window the
    /// tests open — or, `empty`, at `200..220`, which brushes none of
    /// them with a point.
    fn track(id: TrackId, empty: bool) -> Trajectory {
        let first = if empty { 200 } else { 0 };
        Trajectory::from_points(
            id,
            ObjectClass::Car,
            (first..first + 20)
                .map(|f| TrajPoint::new(f, BBox::new(f as f32, 100.0, 30.0, 20.0)))
                .collect(),
        )
    }

    /// Tracks 0..16 that embed, then the same ids that do not.
    fn tracks() -> Vec<Trajectory> {
        let ids = 0..16;
        (ids.clone().map(|id| track(id, false)))
            .chain(ids.map(|id| track(id, true)))
            .collect()
    }

    /// The segment of tracks `ids` of `pool` over `[start, end]`, taken
    /// from the second half (no point in the window) when `empty`.
    fn segment<'a>(
        pool: &'a [Trajectory],
        ids: &[TrackId],
        start: u32,
        end: u32,
        empty: bool,
    ) -> Segment<'a> {
        let at = |id: TrackId| &pool[id as usize + if empty { 16 } else { 0 }];
        Segment::new(ids.iter().map(|&id| at(id)), start, end)
    }

    /// Window `(start, end, 4)` of a query of `arity` cars.
    fn window(arity: usize, start: u32, end: u32) -> WindowKey {
        WindowKey::new(&[ObjectClass::Car; MAX_OBJECTS][..arity], (start, end, 4))
    }

    /// A scan that enumerates each of `windows` — its key and the
    /// segments it binds, by track ids and span: `Some(row)` for one that
    /// embeds, `None` for one the encoder rejects, and no row at all for
    /// an empty one — then finishes over the pass those rows stand for.
    type Segmented = (Vec<TrackId>, (u32, u32), Option<Option<Vec<f32>>>);
    fn scanned<'a>(
        pool: &'a [Trajectory],
        windows: &[(WindowKey, Vec<Segmented>)],
    ) -> (ScanSlots<'a>, WindowBatch) {
        let mut slots = ScanSlots::default();
        let mut fresh = Vec::new();
        for (window, segments) in windows {
            slots.open(*window);
            for (ids, (start, end), row) in segments {
                let queued = slots.segments().len();
                slots.resolve(segment(pool, ids, *start, *end, row.is_none()));
                if slots.segments().len() > queued {
                    fresh.push(row.clone().expect("only a non-empty segment is queued"));
                }
            }
        }
        let batch = slots.finish(&fresh);
        (slots, batch)
    }

    #[test]
    fn intern_builds_each_segment_once() {
        // Two windows of one range that differ in their overlap floor
        // bind the same segment: it is queued once.
        let pool = tracks();
        let memo = SegmentMemo::default();
        let mut slots = ScanSlots::default();
        for floor in [4, 5] {
            let w = WindowKey::new(&[ObjectClass::Car; 2], (0, 10, floor));
            assert!(slots.lookup(&memo.reader(7), &w).is_none());
            slots.open(w);
            slots.resolve(segment(&pool, &[1, 2], 0, 10, false));
        }
        assert_eq!(
            slots.segments().len(),
            1,
            "second sight is served by the scan itself"
        );
        assert_eq!((slots.hits(), slots.misses()), (1, 1));
        let batch = slots.finish(&[Some(vec![0.5, 0.25])]);
        for at in 0..2 {
            let w = batch.window(at);
            assert_eq!((w.ids, w.rows), (&[1, 2][..], &[0.5f32, 0.25][..]));
        }
    }

    #[test]
    fn distinct_segments_get_distinct_slots() {
        let pool = tracks();
        let mut slots = ScanSlots::default();
        slots.open(window(1, 0, 10));
        // Frame range, track set and slot order are all part of the key.
        let keys: [(&[TrackId], u32, u32); 5] = [
            (&[1], 0, 10),
            (&[1], 5, 15),
            (&[2], 0, 10),
            (&[2, 1], 0, 10),
            (&[1, 2], 0, 10),
        ];
        for (ids, start, end) in keys {
            slots.resolve(segment(&pool, ids, start, end, false));
        }
        assert_eq!(slots.segments().len(), 5);
        assert_eq!((slots.hits(), slots.misses()), (0, 5));
    }

    #[test]
    fn a_segment_is_empty_when_no_bound_track_has_a_point_in_its_window() {
        let pool = tracks();
        let index = VideoIndex::from_clip("t", &Clip::new(640.0, 480.0, vec![]), 300, 30.0);
        // Inside, brushing either edge, astride a gap-free track's end,
        // beyond it, and a pair of which only one track is inside.
        let cases: [(&[TrackId], bool, u32, u32); 6] = [
            (&[1], false, 0, 10),
            (&[1], false, 19, 40),
            (&[1], true, 190, 200),
            (&[1], true, 220, 260),
            (&[1], false, 20, 60),
            (&[1, 2], true, 0, 10),
        ];
        for (ids, empty, start, end) in cases {
            let seg = segment(&pool, ids, start, end, empty);
            assert_eq!(
                seg.is_empty(),
                seg.clip(&index).is_empty(),
                "{ids:?} {start}..={end}"
            );
            assert_eq!(seg.key().track_ids(), ids);
        }
        let mixed = Segment::new([&pool[16 + 1], &pool[2]], 0, 10);
        assert!(!mixed.is_empty() && !mixed.clip(&index).is_empty());
    }

    #[test]
    fn empty_clips_are_remembered_but_not_stored() {
        let memo = SegmentMemo::default();
        let w = window(1, 0, 5);
        let pool = tracks();
        let segments = vec![(vec![7], (0, 5), None), (vec![8], (0, 5), None)];
        let (slots, batch) = scanned(&pool, &[(w, segments)]);
        assert!(slots.segments().is_empty());
        assert_eq!((slots.hits(), slots.misses()), (0, 2));
        assert_eq!(batch.window(0).candidates(), 0);

        // The index remembers the window, empties and all, at the cost of
        // one entry: a later scan looks it up instead of rebuilding it,
        // and the look-ups it stands for are hits.
        memo.publish(7, &batch);
        assert_eq!(memo.stats().bytes as usize, WINDOW_BYTES);
        assert_eq!(memo.stats().segments, 0);
        let mut later = ScanSlots::default();
        let reader = memo.reader(7);
        let Some(got) = later.lookup(&reader, &w) else {
            panic!("remembered");
        };
        assert_eq!((got.visited, got.candidates()), (2, 0));
        assert_eq!((later.hits(), later.misses()), (2, 0));
    }

    #[test]
    fn published_rows_come_back_bit_for_bit_under_their_model_only() {
        let pool = tracks();
        let memo = SegmentMemo::default();
        let (single, pair) = (window(1, 0, 9), window(2, 0, 9));
        let windows = [
            (
                single,
                vec![
                    (vec![1], (0, 9), Some(Some(vec![0.25f32, -1.5, 3.0]))),
                    (vec![2], (0, 9), Some(None)),
                    (vec![3], (0, 9), None),
                    (
                        vec![4],
                        (0, 9),
                        Some(Some(vec![-0.0, f32::MIN_POSITIVE, 1.0])),
                    ),
                ],
            ),
            (
                pair,
                vec![(vec![1, 2], (0, 9), Some(Some(vec![7.0, 8.0, 9.0])))],
            ),
        ];
        let (_, batch) = scanned(&pool, &windows);
        memo.publish(7, &batch);
        let stats = memo.stats();
        assert_eq!(stats.segments, 4, "three candidates and one pair");
        let ids = 3 + 2;
        let rows = 3 * 3;
        assert_eq!(
            stats.bytes as usize,
            2 * WINDOW_BYTES + ids * 8 + rows * 4 + 4,
            "two entries, their ids and rows, one unembeddable position"
        );

        // A racing scan's identical publish changes nothing.
        memo.publish(7, &batch);
        assert_eq!(memo.stats(), stats);

        let mut slots = ScanSlots::default();
        let reader = memo.reader(7);
        let Some(got) = slots.lookup(&reader, &single) else {
            panic!("remembered");
        };
        assert_eq!((got.visited, got.arity), (4, 1));
        assert_eq!(got.ids, [1, 2, 4], "empty clips are not candidates");
        assert_eq!(got.unembeddable, [1]);
        let bits = |rows: &[f32]| rows.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(got.rows),
            bits(&[0.25, -1.5, 3.0, -0.0, f32::MIN_POSITIVE, 1.0])
        );
        let Some(got) = slots.lookup(&reader, &pair) else {
            panic!("remembered");
        };
        assert_eq!((got.ids, got.rows), (&[1, 2][..], &[7.0f32, 8.0, 9.0][..]));
        assert_eq!((slots.hits(), slots.misses()), (5, 0));
        // Another model sees none of it.
        assert!(slots.lookup(&memo.reader(8), &single).is_none());
    }

    #[test]
    fn a_publish_past_the_budget_empties_the_memo_first() {
        let pool = tracks();
        let row = |v: f32| Some(Some(vec![v; 8]));
        // One single-candidate window: an entry, an id, a row.
        let one = WINDOW_BYTES + 8 + 8 * 4;
        let memo = SegmentMemo::with_budget(3 * one);
        let of = |id: TrackId, v: f32| (window(1, id as u32, 20), vec![(vec![id], (0, 9), row(v))]);
        let (a, b, c, d) = (of(1, 1.0), of(2, 2.0), of(3, 3.0), of(4, 4.0));
        memo.publish(1, &scanned(&pool, &[a.clone(), b.clone()]).1);
        // Another model's windows count against the same budget.
        memo.publish(2, &scanned(&pool, std::slice::from_ref(&c)).1);
        assert_eq!(
            memo.stats(),
            MemoStats {
                segments: 3,
                bytes: 3 * one as u64,
                resets: 0
            }
        );

        // So do a window's entry and ids, not only its rows: a window
        // with no candidates at all still costs an entry.
        let bare = (window(1, 99, 120), vec![]);
        memo.publish(2, &scanned(&pool, &[d.clone(), bare]).1);
        assert_eq!(
            memo.stats(),
            MemoStats {
                segments: 1,
                bytes: (one + WINDOW_BYTES) as u64,
                resets: 1
            }
        );
        // The reset dropped the windows with their rows, across models.
        let mut slots = ScanSlots::default();
        assert!(slots.lookup(&memo.reader(1), &a.0).is_none());
        assert!(slots.lookup(&memo.reader(2), &c.0).is_none());
        let reader = memo.reader(2);
        let Some(got) = slots.lookup(&reader, &d.0) else {
            panic!("the publish that reset is remembered");
        };
        assert_eq!((got.ids, got.rows), (&[4][..], &[4.0; 8][..]));
        drop(reader);

        // A pass that could never fit is not remembered and evicts nothing.
        let e = of(5, 5.0);
        memo.publish(1, &scanned(&pool, &[a, b, c, e]).1);
        assert_eq!(
            memo.stats(),
            MemoStats {
                segments: 1,
                bytes: (one + WINDOW_BYTES) as u64,
                resets: 1
            }
        );
    }
}
