//! The shard-set store: one writer behind ingest and incremental append,
//! and a reader that opens at attach and verifies on first probe. (The
//! search side is
//! [`Matcher::search_stored`](crate::matcher::Matcher::search_stored).)
//!
//! **Ingest is append from the empty set.** `write_shards` is the only
//! code that enumerates a shard's rows, embeds them, assigns them to the
//! shared quantizer and writes a shard file. [`ingest_sharded`] runs it
//! from shard 0 with nothing to reuse, no quantizer yet and epoch 0, then
//! writes a fresh manifest; [`append_frames`] validates, sweeps what a
//! crashed append left behind, harvests the vectors it can reuse, runs
//! it from the first dirty shard with the manifest's quantizer under the
//! next epoch, then commits `Manifest { ..old }`.
//!
//! A dataset's window rows are split into **frame-range shards** —
//! shard `i` owns every sliding window whose *start frame* falls in
//! `[i·shard_frames, (i+1)·shard_frames)` — written as independent
//! [`ShardData`] files plus one [`Manifest`] carrying the dataset
//! provenance, the shared coarse-quantizer centroids, and per-shard
//! row-per-centroid counts. A whole video in one shard is just the
//! `shard_frames >= frames` case.
//!
//! Three properties the store guarantees:
//!
//! - **Grid fidelity.** The union of all shards' window rows equals the
//!   matcher's window grid exactly — no duplicates, no gaps. Boundary
//!   windows (spanning a shard edge) belong to the shard owning their
//!   start frame, and the per-shard enumeration is the matcher's own
//!   grid (the crate's `grid` module) restricted to that start range
//!   (see [`enumerate_store_rows`]).
//! - **Bit-identical scores.** Probing ranks the *shared* quantizer's
//!   centroids once per query, gathers candidates from the shards
//!   owning rows under the top lists, and re-ranks them with the same
//!   `score_embeddings` the scan uses. Scores can never differ from the
//!   scan; probing fewer lists only omits windows.
//! - **Pinned files, one-time verification.** Attaching a [`ShardSet`]
//!   reads the manifest and opens every shard it names, checking each
//!   64-byte header and the file's length; no payload byte is read. An
//!   open file holds its inode, so an attached set *owns its epoch*: later
//!   appends may unlink whatever they supersede. A shard is read,
//!   checksummed and decoded once, on *first probe*, into memory the set
//!   owns, and its file is closed there — a shard whose manifest row
//!   counts are zero under every probed centroid is never read at all. A
//!   verified shard is anonymous memory held until its set drops, not
//!   page cache the kernel could reclaim; a set holds one descriptor per
//!   shard it has not verified yet.

use sketchql_store::{
    hex_u64, CoarseQuantizer, LoadedShard, Manifest, ManifestShard, ShardData, StoreError,
    StoreRow, MANIFEST_FILE, SHARD_EXT, SHARD_SET_EXT,
};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{Clip, ObjectClass, TrackId};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::cancel::CancelToken;
use crate::embed_cache::{embed_segments, Segment};
use crate::grid;
use crate::index::VideoIndex;
use crate::similarity::LearnedSimilarity;
use crate::vstore::{self, index_fingerprint, model_fingerprint, IngestConfig};

/// Upper bound on the vectors sampled to train the shared quantizer.
/// Sampling is deterministic (every k-th vector in shard-major order),
/// so the same corpus always trains the same centroids.
const QUANTIZER_SAMPLE_MAX: usize = 4096;

/// Process-wide accounting backing the `sketchql.shard.resident` gauge
/// (gauges are set-valued, so the running total lives here): shards
/// verified and decoded across every live [`ShardSet`].
static RESIDENT_SHARDS: AtomicI64 = AtomicI64::new(0);

fn publish_residency() {
    telemetry::gauge(names::SHARD_RESIDENT).set(RESIDENT_SHARDS.load(Ordering::Relaxed) as f64);
}

/// Enumerates the store rows of the matcher's sliding-window grid,
/// optionally restricted to windows whose start frame lies in
/// `start_range` (inclusive). `None` enumerates the whole grid;
/// `Some((lo, hi))` is the shard-local grid, and because every window's
/// start belongs to exactly one shard, partitioning the frame axis
/// partitions the rows: the union over disjoint covering ranges equals
/// the unrestricted enumeration, row for row.
///
/// Rows are enumerated exactly as the matcher enumerates candidates —
/// through the same `grid` module and the same
/// [`VideoIndex::tracks_in_window`]: per length that fits the video, the
/// strided window grid with tail clamping; per window, every
/// overlap-eligible track in index order. A `(track, start, end)`
/// row is recorded once even when several lengths produce the same
/// clamped window; insertion happens only on qualification so a later
/// length with a laxer overlap floor can still add the tracks the
/// stricter one rejected. Segments that produce an empty clip (a track
/// whose frame range brushes a window it has no points in) are skipped
/// — the matcher's scan excludes exactly the same candidates.
///
/// Returns the rows plus the matching window clips (the embedder's
/// input), in enumeration order. The store writer never holds those
/// clips: it enumerates the rows alone and builds each clip inside an
/// embedding worker.
pub fn enumerate_store_rows(
    index: &VideoIndex,
    config: &IngestConfig,
    start_range: Option<(u32, u32)>,
) -> (Vec<StoreRow>, Vec<Clip>) {
    grid_rows(index, config, start_range)
        .into_iter()
        .map(|(row, segment)| (row, segment.clip(index)))
        .unzip()
}

/// [`enumerate_store_rows`] without the clips: each row with the segment
/// that embeds to its vector (its track over its window). Emptiness is a
/// range check on the track's points, so nothing is built.
fn grid_rows<'a>(
    index: &'a VideoIndex,
    config: &IngestConfig,
    start_range: Option<(u32, u32)>,
) -> Vec<(StoreRow, Segment<'a>)> {
    let mut rows = Vec::new();
    let mut seen: HashSet<RowKey> = HashSet::new();
    for len in sorted_lens(config) {
        if len > index.frames {
            continue;
        }
        for (start, end, min_overlap) in grid::windows(len, index.frames, start_range) {
            for t in index.tracks_in_window(ObjectClass::Any, start, end, min_overlap) {
                let segment = Segment::new([t], start, end);
                if seen.contains(&(t.id, start, end)) || segment.is_empty() {
                    continue;
                }
                seen.insert((t.id, start, end));
                let row = StoreRow {
                    track_id: t.id,
                    class: t.class,
                    start,
                    end,
                };
                rows.push((row, segment));
            }
        }
    }
    rows
}

/// The configured window lengths as the manifest records them: sorted,
/// duplicates dropped.
fn sorted_lens(config: &IngestConfig) -> Vec<u32> {
    let mut lens = config.window_lens.clone();
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// Progress events emitted by [`ingest_sharded`] and [`append_frames`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestProgress {
    /// Window enumeration finished: the total work is known.
    Enumerated {
        /// Windows to embed across all shards.
        windows: usize,
        /// Shards that will be written.
        shards: usize,
    },
    /// One shard's windows are embedded.
    ShardEmbedded {
        /// The shard that finished.
        shard_id: u32,
        /// Windows embedded so far, across all shards.
        done: usize,
        /// Total windows to embed.
        total: usize,
    },
    /// One shard file hit the disk.
    ShardWritten {
        /// The shard that was written.
        shard_id: u32,
        /// Rows in the shard.
        rows: usize,
    },
}

/// What identifies a store row: a track sliced to a window.
type RowKey = (TrackId, u32, u32);

fn row_key(row: &StoreRow) -> RowKey {
    (row.track_id, row.start, row.end)
}

/// What a write starts from. The default is the empty set — an ingest;
/// an append starts from the previous epoch.
#[derive(Default)]
struct WriteBase {
    /// First shard to write; the shards before it stay as they are.
    first: usize,
    /// Vectors the previous epoch holds, by row: copied, not re-embedded.
    reuse: HashMap<RowKey, Vec<f32>>,
    /// The set's shared quantizer; `None` trains one over the rows written.
    quantizer: Option<CoarseQuantizer>,
    /// The epoch the shard files are written under.
    epoch: u64,
}

/// What [`write_shards`] did: the manifest entries of the shards written
/// (from `base.first` on), the quantizer their rows were assigned to, and
/// how many rows were embedded and how many copied from `base.reuse`.
struct Written {
    shards: Vec<ManifestShard>,
    quantizer: CoarseQuantizer,
    embedded_rows: usize,
    reused_rows: usize,
}

/// File name of shard `i` as written under `epoch`. Appends never
/// overwrite a file a reader of the previous epoch holds open.
fn shard_file_name(i: usize, epoch: u64) -> String {
    match epoch {
        0 => format!("shard-{i:04}.skshard"),
        _ => format!("shard-{i:04}-e{epoch:04}.skshard"),
    }
}

/// The writer — the one pipeline behind [`ingest_sharded`] and
/// [`append_frames`]. Writes shards `base.first..` of `index` cut into
/// `shard_frames`-frame ranges (the last takes the remainder); publishing
/// a manifest over the returned entries is the caller's commit.
///
/// 1. **Enumerate** every shard's rows (cheap; gives progress its totals):
///    a row and its segment, no clip.
/// 2. **Embed**, shard by shard: a row in `base.reuse` takes its vector
///    from there, the rest are embedded on `config.threads` workers that
///    split the *rows*, so the count applies whatever the shard count.
///    A worker builds the clips of its next 64 rows, embeds and drops
///    them ([`embed_segments`]): at most `threads × 64` clips exist at
///    once, whatever the shard width or the video length.
///    Embeddings are batch-invariant, so neither threads nor layout
///    change a vector. A non-empty single-track clip always embeds; a row
///    that did not would be unservable, and is dropped.
/// 3. **Quantize**: take `base.quantizer`, or train `ceil(sqrt(rows))`
///    centroids over every k-th vector in shard-major order (at most
///    [`QUANTIZER_SAMPLE_MAX`]).
/// 4. **Assign and write** each shard under [`shard_file_name`].
fn write_shards(
    sim: &LearnedSimilarity,
    index: &VideoIndex,
    config: &IngestConfig,
    shard_frames: u32,
    base: WriteBase,
    dir: &Path,
    progress: &(dyn Fn(IngestProgress) + Sync),
) -> Result<Written, StoreError> {
    let last_frame = index.frames.saturating_sub(1);
    let shard_count = (index.frames.div_ceil(shard_frames) as usize).max(1);
    let ranges: Vec<(u32, u32)> = (base.first..shard_count)
        .map(|i| {
            let lo = i as u32 * shard_frames;
            (lo, lo.saturating_add(shard_frames - 1).min(last_frame))
        })
        .collect();
    let enumerated: Vec<Vec<(StoreRow, Segment)>> = ranges
        .iter()
        .map(|&range| grid_rows(index, config, Some(range)))
        .collect();
    let is_fresh = |row: &StoreRow| !base.reuse.contains_key(&row_key(row));
    let total_fresh = enumerated
        .iter()
        .flatten()
        .filter(|(row, _)| is_fresh(row))
        .count();
    progress(IngestProgress::Enumerated {
        windows: total_fresh,
        shards: ranges.len(),
    });

    let dim = sim.encoder.config.embed_dim;
    let (mut embedded_rows, mut reused_rows, mut done) = (0usize, 0usize, 0usize);
    let mut columns: Vec<(Vec<StoreRow>, Vec<f32>)> = Vec::with_capacity(ranges.len());
    for (j, rows) in enumerated.into_iter().enumerate() {
        let fresh: Vec<Segment> = rows
            .iter()
            .filter(|(row, _)| is_fresh(row))
            .map(|&(_, segment)| segment)
            .collect();
        let mut fresh_vectors =
            embed_segments(sim, index, &fresh, config.threads, &CancelToken::none())
                .expect("null token never cancels")
                .into_iter();
        done += fresh.len();
        progress(IngestProgress::ShardEmbedded {
            shard_id: (base.first + j) as u32,
            done,
            total: total_fresh,
        });
        let mut kept = Vec::with_capacity(rows.len());
        let mut vectors: Vec<f32> = Vec::with_capacity(rows.len() * dim);
        for (row, _) in rows {
            if let Some(v) = base.reuse.get(&row_key(&row)) {
                reused_rows += 1;
                vectors.extend_from_slice(v);
            } else if let Some(v) = fresh_vectors.next().expect("one embedding per fresh row") {
                embedded_rows += 1;
                vectors.extend_from_slice(&v);
            } else {
                continue;
            }
            kept.push(row);
        }
        columns.push((kept, vectors));
    }

    let quantizer = base.quantizer.unwrap_or_else(|| {
        let total_rows: usize = columns.iter().map(|(rows, _)| rows.len()).sum();
        let step = total_rows.div_ceil(QUANTIZER_SAMPLE_MAX).max(1);
        let sample: Vec<f32> = columns
            .iter()
            .flat_map(|(_, vectors)| vectors.chunks_exact(dim))
            .step_by(step)
            .flatten()
            .copied()
            .collect();
        let nlist = (total_rows as f64).sqrt().ceil() as usize;
        let sample_dim = if sample.is_empty() { 0 } else { dim };
        CoarseQuantizer::train(&sample, sample_dim, nlist)
    });

    let mut shards: Vec<ManifestShard> = Vec::with_capacity(ranges.len());
    for ((rows, vectors), (j, &(frame_start, frame_end))) in
        columns.into_iter().zip(ranges.iter().enumerate())
    {
        let i = base.first + j;
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); quantizer.nlist()];
        if !lists.is_empty() {
            for (r, v) in vectors.chunks_exact(dim).enumerate() {
                lists[quantizer.assign(v)].push(r as u32);
            }
        }
        let file = shard_file_name(i, base.epoch);
        let data = ShardData {
            shard_id: i as u32,
            frame_start,
            frame_end,
            dim,
            rows,
            vectors,
            lists,
        };
        let checksum = data.save(&dir.join(&file))?;
        progress(IngestProgress::ShardWritten {
            shard_id: data.shard_id,
            rows: data.rows.len(),
        });
        shards.push(ManifestShard {
            file,
            shard_id: data.shard_id,
            frame_start,
            frame_end,
            rows: data.rows.len() as u32,
            checksum: hex_u64(checksum),
            list_rows: data.lists.iter().map(|l| l.len() as u32).collect(),
        });
    }
    Ok(Written {
        shards,
        quantizer,
        embedded_rows,
        reused_rows,
    })
}

/// Builds a sharded store on disk — `write_shards` from the empty set
/// (every shard, nothing to reuse, a freshly trained quantizer, epoch 0)
/// followed by a fresh manifest — and returns the freshly opened (cold,
/// nothing resident) [`ShardSet`].
///
/// `shard_frames` is the frame-range width each shard owns; the last
/// shard takes the remainder. Embeddings, the quantizer, and the row
/// partition are all deterministic, so the same inputs always produce
/// the same set whatever `config.threads` is, and the rows across all
/// shards are exactly the matcher's window grid.
pub fn ingest_sharded(
    sim: &LearnedSimilarity,
    index: &VideoIndex,
    dataset: &str,
    config: &IngestConfig,
    shard_frames: u32,
    dir: &Path,
    progress: &(dyn Fn(IngestProgress) + Sync),
) -> Result<ShardSet, StoreError> {
    let _span = telemetry::span(names::STORE_BUILD);
    let shard_frames = shard_frames.max(1);
    let base = WriteBase::default();
    let written = write_shards(sim, index, config, shard_frames, base, dir, progress)?;
    let manifest = Manifest {
        version: sketchql_store::MANIFEST_VERSION,
        epoch: 0,
        dataset: dataset.to_string(),
        model_fingerprint: hex_u64(model_fingerprint(sim)),
        index_fingerprint: hex_u64(index_fingerprint(index)),
        frames: index.frames,
        fps_bits: index.fps.to_bits(),
        frame_width_bits: index.frame_width.to_bits(),
        frame_height_bits: index.frame_height.to_bits(),
        stride_frac_bits: grid::STRIDE_FRAC.to_bits(),
        min_overlap_frac_bits: grid::MIN_OVERLAP_FRAC.to_bits(),
        window_lens: sorted_lens(config),
        dim: sim.encoder.config.embed_dim as u32,
        shard_frames,
        nlist: written.quantizer.nlist() as u32,
        centroid_bits: written
            .quantizer
            .centroids()
            .iter()
            .map(|c| c.to_bits())
            .collect(),
        shards: written.shards,
    };
    manifest.save(dir)?;
    ShardSet::open(dir)
}

/// What one committed [`append_frames`] did.
pub struct AppendOutcome {
    /// The freshly reopened set (cold, nothing resident).
    pub set: ShardSet,
    /// The epoch the commit advanced the manifest to (unchanged if the
    /// call was a no-op).
    pub epoch: u64,
    /// Frames the set covered before the append.
    pub old_frames: u32,
    /// Frames the set covers now.
    pub new_frames: u32,
    /// Windows embedded fresh (touched by the new frames).
    pub embedded_rows: usize,
    /// Windows copied verbatim from the previous epoch's shards.
    pub reused_rows: usize,
    /// Shards rewritten (the dirty suffix; untouched shards keep their
    /// files byte-for-byte).
    pub rewritten_shards: usize,
}

/// Removes what a crashed append left in `dir`: shard files and
/// write-then-rename temporaries the manifest does not name. A write
/// killed before its rename leaves a `.tmp`; one killed before the
/// manifest commit leaves next-epoch `.skshard` files.
fn sweep_unclaimed(dir: &Path, manifest: &Manifest) {
    let claimed: HashSet<&str> = manifest.shards.iter().map(|s| s.file.as_str()).collect();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let sweepable = path
            .extension()
            .is_some_and(|x| x == SHARD_EXT || x == "tmp");
        if sweepable && !claimed.contains(entry.file_name().to_str().unwrap_or_default()) {
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The vectors `shards` hold, by row.
fn harvest(dir: &Path, shards: &[ManifestShard]) -> Result<HashMap<RowKey, Vec<f32>>, StoreError> {
    let mut vectors = HashMap::new();
    for entry in shards {
        let path = dir.join(&entry.file);
        let checksum = sketchql_store::manifest::parse_hex_u64(&entry.checksum)
            .expect("manifest validation checked checksum hex");
        let shard = LoadedShard::open(&path, Some(checksum))?;
        for r in 0..entry.rows as usize {
            vectors.insert(row_key(&shard.row(r)), shard.vector(r).to_vec());
        }
    }
    Ok(vectors)
}

/// Incrementally extends an existing shard set to cover `index`, which
/// must be the *same* video with frames appended (pure extension: every
/// pre-existing frame's detections are unchanged). Only windows whose
/// frame span touches the new frames are embedded; everything else is
/// copied from the previous epoch's shards, so the cost scales with the
/// appended span, not the corpus.
///
/// This is validation, a sweep of what a crashed append left behind,
/// and then `write_shards` from the previous epoch instead of from the
/// empty set. Because shard `i` owns windows by *start frame*, a window
/// can only change if its start is at least
/// `grid::first_touched_start` of the old frame count and the longest
/// configured window. The rewrite therefore begins at the shard owning
/// that start (never later than the old tail shard, whose frame range
/// itself grows), harvests the vectors of the shards it is about to
/// rewrite for reuse, and runs the exact from-scratch pipeline over
/// those ranges with the manifest's window lengths — the resulting
/// row/vector columns are byte-identical to a full re-ingest. Rows are
/// assigned to the **existing** shared quantizer (centroids are never
/// retrained), so query results are bit-identical to a from-scratch
/// ingest under exact re-rank even though the coarse lists may differ.
///
/// Commit is atomic: rewritten shards land under next-epoch names
/// (current-epoch files are never overwritten), then one
/// `manifest.json` rename publishes the new epoch. A reader attached to
/// an older epoch keeps a complete set whatever later appends sweep —
/// it holds the shards, not their names; a crash before the rename
/// leaves the old epoch intact, and the next append sweeps the orphans.
///
/// `threads` sizes the embedding pass. Re-calling with an index the set
/// already covers is a no-op (same epoch returned). A set whose manifest
/// records another stride or overlap floor than the window grid's was
/// not ingested here and is refused with [`StoreError::BadHeader`],
/// before anything in `dir` is touched.
pub fn append_frames(
    sim: &LearnedSimilarity,
    index: &VideoIndex,
    dir: &Path,
    threads: usize,
    progress: &(dyn Fn(IngestProgress) + Sync),
) -> Result<AppendOutcome, StoreError> {
    let _span = telemetry::span(names::LIVE_APPEND);
    let manifest = Manifest::load(dir)?;
    let bad = |detail: String| StoreError::BadHeader {
        path: dir.join(MANIFEST_FILE),
        detail,
    };
    if manifest.model_fp() != Some(model_fingerprint(sim)) {
        return Err(bad("append with a different model than ingest".into()));
    }
    if !grid::is_recorded_in(&manifest) {
        return Err(bad("set was ingested on another window grid".into()));
    }
    if index.fps.to_bits() != manifest.fps_bits
        || index.frame_width.to_bits() != manifest.frame_width_bits
        || index.frame_height.to_bits() != manifest.frame_height_bits
    {
        return Err(bad("append index disagrees with ingest provenance".into()));
    }
    let old_frames = manifest.frames;
    if index.frames < old_frames {
        return Err(bad(format!(
            "append cannot shrink the video: set covers {old_frames} frames, index has {}",
            index.frames
        )));
    }
    if index.frames == old_frames {
        if manifest.index_fp() == Some(index_fingerprint(index)) {
            let epoch = manifest.epoch;
            return Ok(AppendOutcome {
                set: ShardSet::open(dir)?,
                epoch,
                old_frames,
                new_frames: old_frames,
                embedded_rows: 0,
                reused_rows: 0,
                rewritten_shards: 0,
            });
        }
        return Err(bad(
            "append with same frame count but different contents (history rewritten?)".into(),
        ));
    }
    sweep_unclaimed(dir, &manifest);

    // The window lengths ingest persisted, on the one grid.
    let config = IngestConfig {
        window_lens: manifest.window_lens.clone(),
        threads,
    };
    let shard_frames = manifest.shard_frames.max(1);
    let max_len = manifest.window_lens.iter().copied().max().unwrap_or(1);
    let first_dirty = grid::first_touched_start(old_frames, max_len) / shard_frames;
    // The old tail shard always rewrites: its owned frame range itself
    // extends when the video grows past it.
    let first = (first_dirty as usize).min(manifest.shards.len().saturating_sub(1));
    let epoch = manifest.epoch + 1;
    let base = WriteBase {
        first,
        reuse: harvest(dir, &manifest.shards[first..])?,
        quantizer: Some(CoarseQuantizer::from_centroids(
            manifest.centroids(),
            manifest.dim as usize,
        )),
        epoch,
    };
    let written = write_shards(sim, index, &config, shard_frames, base, dir, progress)?;
    let rewritten_shards = written.shards.len();
    let mut shards = manifest.shards[..first].to_vec();
    shards.extend(written.shards);

    // The atomic commit: one manifest rename publishes the new epoch.
    let new_manifest = Manifest {
        epoch,
        frames: index.frames,
        index_fingerprint: hex_u64(index_fingerprint(index)),
        shards,
        ..manifest
    };
    new_manifest.save(dir)?;
    Ok(AppendOutcome {
        set: ShardSet::open(dir)?,
        epoch,
        old_frames,
        new_frames: index.frames,
        embedded_rows: written.embedded_rows,
        reused_rows: written.reused_rows,
        rewritten_shards,
    })
}

/// One shard as attach leaves it: open and header-checked, with the
/// read, checksum and decode deferred to first probe and run once.
struct PinnedShard {
    path: PathBuf,
    checksum: u64,
    /// The shard file from attach until its first probe takes and closes
    /// it; while open, it keeps the attached inode alive.
    file: Mutex<Option<File>>,
    /// The verified shard, or the sticky error verification ended in.
    loaded: OnceLock<Result<LoadedShard, StoreError>>,
}

impl PinnedShard {
    fn verify(&self) -> Result<LoadedShard, StoreError> {
        let file = self.file.lock().unwrap().take();
        let file = file.expect("a shard's file is taken by its one verification");
        LoadedShard::verify(&self.path, file, Some(self.checksum))
    }
}

/// An attached store: manifest + shared quantizer resident, every shard
/// open, payloads verified on first probe.
pub struct ShardSet {
    dir: PathBuf,
    manifest: Manifest,
    /// The manifest's hex fingerprints, parsed once at open.
    model_fingerprint: u64,
    index_fingerprint: u64,
    quantizer: CoarseQuantizer,
    /// How many shared-quantizer lists a query probes: 8 at attach,
    /// which already recalls the top rows on small sets; at `nlist` the
    /// probe is exhaustive.
    pub nprobe: usize,
    shards: Vec<PinnedShard>,
}

impl ShardSet {
    /// Attaches a shard-set directory: parses + validates the manifest,
    /// opens every shard it names and validates its header (magic,
    /// version, length) and its consistency with the manifest entry, and
    /// rebuilds the shared quantizer from the persisted centroid bits. No
    /// shard payload is read — attach cost is O(manifest + one header read
    /// per shard) — and from here on the set needs no file name: its open
    /// files pin the epoch it attached.
    pub fn open(dir: &Path) -> Result<Self, StoreError> {
        let manifest = Manifest::load(dir)?;
        let mut shards = Vec::with_capacity(manifest.shards.len());
        for entry in &manifest.shards {
            let path = dir.join(&entry.file);
            let (file, header) = LoadedShard::attach(&path)?;
            let consistent = header.shard_id == entry.shard_id
                && header.frame_start == entry.frame_start
                && header.frame_end == entry.frame_end
                && header.rows == entry.rows
                && header.dim == manifest.dim
                && header.nlist == manifest.nlist;
            if !consistent {
                return Err(StoreError::BadHeader {
                    path,
                    detail: format!(
                        "shard header disagrees with manifest entry {} (header: id {} frames \
                         {}..={} rows {} dim {} nlist {})",
                        entry.shard_id,
                        header.shard_id,
                        header.frame_start,
                        header.frame_end,
                        header.rows,
                        header.dim,
                        header.nlist
                    ),
                });
            }
            let checksum = sketchql_store::manifest::parse_hex_u64(&entry.checksum)
                .expect("manifest validation checked checksum hex");
            shards.push(PinnedShard {
                path,
                checksum,
                file: Mutex::new(Some(file)),
                loaded: OnceLock::new(),
            });
        }
        let quantizer =
            CoarseQuantizer::from_centroids(manifest.centroids(), manifest.dim as usize);
        Ok(ShardSet {
            dir: dir.to_path_buf(),
            model_fingerprint: manifest.model_fp().expect("validated hex"),
            index_fingerprint: manifest.index_fp().expect("validated hex"),
            manifest,
            quantizer,
            nprobe: 8,
            shards,
        })
    }

    /// The directory this set was attached from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest, as attached.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Dataset name recorded at ingest.
    pub fn dataset(&self) -> &str {
        &self.manifest.dataset
    }

    /// Number of shards in the set.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shared-quantizer lists.
    pub fn nlist(&self) -> usize {
        self.quantizer.nlist()
    }

    /// Total rows across all shards (from the manifest — no loads).
    pub fn total_rows(&self) -> u64 {
        self.manifest.total_rows()
    }

    /// The shared coarse quantizer.
    pub fn quantizer(&self) -> &CoarseQuantizer {
        &self.quantizer
    }

    /// Shards verified and decoded so far (every shard is *open* from
    /// attach on; a shard becomes resident at its first probe).
    pub fn resident_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| matches!(s.loaded.get(), Some(Ok(_))))
            .count()
    }

    /// Shard `i`, verified: the first call checksums and decodes it, every
    /// later one is a `OnceLock::get`. A verification error is sticky.
    fn loaded(&self, i: usize) -> Result<&LoadedShard, &StoreError> {
        let shard = &self.shards[i];
        let loaded = shard.loaded.get_or_init(|| {
            let _span = telemetry::span(names::SHARD_LOAD);
            match shard.verify() {
                Ok(loaded) => {
                    telemetry::counter(names::SHARD_LOADS).inc();
                    RESIDENT_SHARDS.fetch_add(1, Ordering::Relaxed);
                    publish_residency();
                    Ok(loaded)
                }
                Err(e) => {
                    // The error is sticky, so this logs once per attach.
                    eprintln!("shard load failed; queries that need it fall back to scan: {e}");
                    telemetry::counter(names::SHARD_LOAD_ERRORS).inc();
                    Err(e)
                }
            }
        });
        loaded.as_ref()
    }

    /// Whether this set was built from exactly this index's contents.
    pub fn matches_index(&self, index: &VideoIndex) -> bool {
        self.manifest.frames == index.frames && self.index_fingerprint == index_fingerprint(index)
    }

    /// Whether this set's vectors came from exactly this model.
    pub fn matches_model(&self, sim: &LearnedSimilarity) -> bool {
        self.model_fingerprint == model_fingerprint(sim)
    }

    /// Gathers the candidate rows of every probed centroid across all
    /// shards as `(row, vector)` pairs borrowed from the set — the shape
    /// the exact re-rank consumes — verifying only the shards that own
    /// rows under a probed list. `probe` is the (already truncated)
    /// centroid ranking. Fails with the first shard load error — callers
    /// fall back to the scan, which preserves results at the cost of
    /// speed.
    pub fn gather(&self, probe: &[usize]) -> Result<Vec<(StoreRow, &[f32])>, &StoreError> {
        let mut candidates = Vec::new();
        for (i, entry) in self.manifest.shards.iter().enumerate() {
            let rows: u32 = probe
                .iter()
                .map(|&c| entry.list_rows.get(c).copied().unwrap_or(0))
                .sum();
            if rows == 0 {
                continue;
            }
            let shard = self.loaded(i)?;
            telemetry::counter(names::SHARD_PROBES).inc();
            candidates.reserve(rows as usize);
            for &c in probe {
                for &r in shard.list(c) {
                    candidates.push((shard.row(r as usize), shard.vector(r as usize)));
                }
            }
        }
        Ok(candidates)
    }

    /// Verifies every shard (read + checksum + manifest cross-check +
    /// decode). This is `ingest --verify` and the loud-failure path for
    /// corruption tests: the returned error names the broken shard file.
    /// Nothing is read twice: a verified shard is done, and a failed one
    /// returns the error its one verification recorded.
    pub fn verify(&self) -> Result<(), StoreError> {
        for i in 0..self.shards.len() {
            self.loaded(i).map_err(StoreError::clone)?;
        }
        Ok(())
    }
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        RESIDENT_SHARDS.fetch_sub(self.resident_shards() as i64, Ordering::Relaxed);
        publish_residency();
    }
}

/// Shim for the frozen `perfbench/`, whose `live` workload passes
/// `StoreTier::Sharded(set)` to `Engine::reload_dataset`: the benchmark
/// is its only user, and the next `benchmark` PR deletes it.
pub enum StoreTier {
    /// The only store shape there is.
    Sharded(ShardSet),
}

impl From<StoreTier> for ShardSet {
    fn from(StoreTier::Sharded(set): StoreTier) -> Self {
        set
    }
}

/// Directory name a dataset's shard set is written under.
pub fn shard_set_dir_name(dataset: &str) -> String {
    format!("{}.{SHARD_SET_EXT}", vstore::sanitize(dataset))
}

/// Attaches every shard set in `dir` (the sub-directories holding a
/// manifest), keyed by the dataset name each records. Attach validates
/// manifests and shard headers only; a structurally damaged set fails
/// loudly here, while payload corruption surfaces at first probe.
///
/// A leftover monolithic `*.skstore` file is an error, not something to
/// skip: nothing reads that format any more, and ignoring it would turn
/// a store-backed deployment into a scan without notice. (The function's
/// name predates the single store shape and is pinned by `perfbench/`.)
pub fn load_store_tier_dir(dir: &Path) -> Result<BTreeMap<String, ShardSet>, StoreError> {
    let mut out = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|source| StoreError::Io {
        path: dir.to_path_buf(),
        source: source.into(),
    })?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.extension().is_some_and(|x| x == "skstore") {
            return Err(StoreError::BadHeader {
                path,
                detail: "monolithic .skstore files are no longer supported; re-run `ingest` to \
                         write a .skset shard set"
                    .into(),
            });
        }
        if path.is_dir() && path.join(MANIFEST_FILE).is_file() {
            let set = ShardSet::open(&path)?;
            out.insert(set.dataset().to_string(), set);
        }
    }
    Ok(out)
}
