//! The SketchQL façade: the six demo steps as a typed API.
//!
//! Mirrors §3 of the demo paper end-to-end:
//!
//! 1. **Upload dataset & initialization** — [`SketchQL::upload_dataset`]
//!    runs detector + tracker preprocessing and indexes the trajectories.
//!    2-4. **Object creation, trajectory creation, trajectory editing** —
//!    via a [`Sketcher`] from [`SketchQL::new_sketch`].
//! 5. **Query execution** — [`SketchQL::run_sketch`] /
//!    [`SketchQL::run_query`] invoke the Matcher.
//! 6. **Display results** — [`SketchQL::display`] lists the found clips
//!    sorted by similarity, and [`SketchQL::moment_clip`] reconstructs a
//!    retrieved clip (for playback or Tuner feedback).

use serde::{Deserialize, Serialize};
use sketchql_datasets::SyntheticVideo;
use sketchql_telemetry::{QueryTrace, TraceContext};
use sketchql_tracker::{DetectorConfig, TrackerConfig};
use sketchql_trajectory::{Clip, ObjectClass};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::cancel::{CancelReason, CancelToken};
use crate::index::VideoIndex;
use crate::matcher::{MatchError, Matcher, MatcherConfig, RetrievedMoment};
use crate::similarity::{LearnedSimilarity, Similarity, SimilarityError};
use crate::sketcher::{SketchError, Sketcher};
use crate::training::TrainedModel;
use crate::tuner::{fine_tune, Feedback, Reranker, TunerConfig};
use crate::vshard::{ingest_sharded, load_store_tier_dir, shard_set_dir_name, ShardSet};
use crate::vstore::{sanitize, IngestConfig};
use sketchql_store::{StoreError, SHARD_SET_EXT};

/// Preprocessing settings applied at upload time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreprocessConfig {
    /// Detector noise model.
    pub detector: DetectorConfig,
    /// Tracker thresholds.
    pub tracker: TrackerConfig,
    /// Seed for the detector simulation.
    pub seed: u64,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            detector: DetectorConfig::default(),
            tracker: TrackerConfig::default(),
            seed: 1234,
        }
    }
}

/// Errors from session-level operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// No dataset with that name was uploaded.
    UnknownDataset(String),
    /// The sketch could not be compiled into a query.
    Sketch(SketchError),
    /// The similarity function cannot score this query (e.g. the learned
    /// encoder rejects it). Previously this failed silently: the search
    /// ran to completion with every candidate scored 0.0.
    Similarity(SimilarityError),
    /// The query was cancelled or its deadline passed mid-search.
    Cancelled(CancelReason),
    /// Writing a dataset's embedding store failed (the message is the
    /// store error's, which names the file).
    Store(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            SessionError::Sketch(e) => write!(f, "sketch error: {e}"),
            SessionError::Similarity(e) => write!(f, "similarity error: {e}"),
            SessionError::Cancelled(r) => write!(f, "query {r}"),
            SessionError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Errors restoring a saved session. Every variant names the file that
/// failed, so a corrupt member of a many-file session directory is
/// identifiable from the error alone.
#[derive(Debug)]
pub enum LoadError {
    /// A filesystem read failed.
    Io {
        /// The file (or directory) being read.
        path: std::path::PathBuf,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// A file existed but did not parse — truncated, half-written, or
    /// hand-edited JSON.
    Corrupt {
        /// The unparseable file.
        path: std::path::PathBuf,
        /// What the parser reported.
        detail: String,
    },
    /// An embedding store under `stores/` failed to load (its own error
    /// names the file and the corruption kind).
    Store(StoreError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { path, source } => {
                write!(f, "session file {}: {source}", path.display())
            }
            LoadError::Corrupt { path, detail } => {
                write!(f, "session file {} is corrupt: {detail}", path.display())
            }
            LoadError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io { source, .. } => Some(source),
            LoadError::Store(e) => Some(e),
            LoadError::Corrupt { .. } => None,
        }
    }
}

impl From<StoreError> for LoadError {
    fn from(e: StoreError) -> Self {
        LoadError::Store(e)
    }
}

impl From<SketchError> for SessionError {
    fn from(e: SketchError) -> Self {
        SessionError::Sketch(e)
    }
}

impl From<SimilarityError> for SessionError {
    fn from(e: SimilarityError) -> Self {
        SessionError::Similarity(e)
    }
}

impl From<MatchError> for SessionError {
    fn from(e: MatchError) -> Self {
        match e {
            MatchError::Similarity(e) => SessionError::Similarity(e),
            MatchError::Cancelled(r) => SessionError::Cancelled(r),
        }
    }
}

/// A display row for a retrieved moment ("Display Videos" window).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MomentView {
    /// 1-based rank.
    pub rank: usize,
    /// First frame.
    pub start: u32,
    /// Last frame (inclusive).
    pub end: u32,
    /// Start time in seconds.
    pub start_seconds: f32,
    /// End time in seconds.
    pub end_seconds: f32,
    /// Similarity score.
    pub score: f32,
    /// Classes of the matched objects.
    pub classes: Vec<ObjectClass>,
}

/// Summary returned after uploading a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Frames indexed.
    pub frames: u32,
    /// Number of object trajectories extracted.
    pub num_tracks: usize,
}

/// A SketchQL session: a trained model plus uploaded datasets.
pub struct SketchQL {
    model: TrainedModel,
    /// `model` wrapped for search, built once per model: a store-backed
    /// query checks the similarity's fingerprint against the store's,
    /// and the similarity hashes its weights once, on first use — a
    /// fresh wrapper per query would re-hash them every time. Its
    /// `config` is the session's search parameters.
    matcher: Matcher<LearnedSimilarity>,
    /// Preprocessing settings for future uploads.
    pub preprocess: PreprocessConfig,
    datasets: BTreeMap<String, VideoIndex>,
    stores: BTreeMap<String, ShardSet>,
    last_trace: Mutex<Option<Arc<QueryTrace>>>,
}

impl SketchQL {
    /// Starts a session with a trained similarity model.
    pub fn new(model: TrainedModel) -> Self {
        SketchQL {
            matcher: Matcher::new(model.similarity()),
            model,
            preprocess: PreprocessConfig::default(),
            datasets: BTreeMap::new(),
            stores: BTreeMap::new(),
            last_trace: Mutex::new(None),
        }
    }

    /// The similarity model executing queries.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Matcher search parameters; an edit applies from the next query.
    pub fn matcher_config_mut(&mut self) -> &mut MatcherConfig {
        &mut self.matcher.config
    }

    /// Step 1: uploads a video and initializes it (detector + tracker
    /// preprocessing, trajectory indexing).
    pub fn upload_dataset(&mut self, name: &str, video: &SyntheticVideo) -> DatasetSummary {
        let idx = VideoIndex::build(
            video,
            self.preprocess.detector,
            self.preprocess.tracker,
            self.preprocess.seed,
        );
        let summary = DatasetSummary {
            name: name.to_string(),
            frames: idx.frames,
            num_tracks: idx.tracks.len(),
        };
        self.datasets.insert(name.to_string(), idx);
        // Any previously attached store was built from the old contents;
        // its fingerprint would force fallbacks anyway, so drop it.
        self.stores.remove(name);
        summary
    }

    /// Uploads an already-preprocessed index (e.g. ground-truth tracks for
    /// oracle experiments).
    pub fn upload_index(&mut self, name: &str, index: VideoIndex) -> DatasetSummary {
        let summary = DatasetSummary {
            name: name.to_string(),
            frames: index.frames,
            num_tracks: index.tracks.len(),
        };
        self.datasets.insert(name.to_string(), index);
        self.stores.remove(name);
        summary
    }

    /// Names of uploaded datasets.
    pub fn datasets(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// Looks up an uploaded dataset's index.
    pub fn dataset(&self, name: &str) -> Result<&VideoIndex, SessionError> {
        self.datasets
            .get(name)
            .ok_or_else(|| SessionError::UnknownDataset(name.to_string()))
    }

    /// Builds a persistent embedding store for an uploaded dataset: every
    /// sliding window the matcher would enumerate is embedded once and
    /// written as a one-shard set under `dir`, so subsequent queries on
    /// this dataset take the index-backed path instead of re-embedding
    /// the whole video. Returns the number of vectors ingested.
    pub fn ingest_dataset(
        &mut self,
        name: &str,
        config: &IngestConfig,
        dir: &std::path::Path,
    ) -> Result<usize, SessionError> {
        let set = {
            let index = self.dataset(name)?;
            ingest_sharded(
                &self.matcher.sim,
                index,
                name,
                config,
                index.frames.max(1),
                &dir.join(shard_set_dir_name(name)),
                &|_| {},
            )
            .map_err(|e| SessionError::Store(e.to_string()))?
        };
        let n = set.total_rows() as usize;
        self.stores.insert(name.to_string(), set);
        Ok(n)
    }

    /// The store attached to a dataset, if any.
    pub fn store(&self, name: &str) -> Option<&ShardSet> {
        self.stores.get(name)
    }

    /// Names of datasets with an attached store.
    pub fn stored_datasets(&self) -> Vec<&str> {
        self.stores.keys().map(String::as_str).collect()
    }

    /// Steps 2-4: a fresh sketcher canvas to compose a query on.
    pub fn new_sketch(&self) -> Sketcher {
        Sketcher::demo()
    }

    /// Step 5 ("Run"): compiles the sketch and executes it.
    pub fn run_sketch(
        &self,
        dataset: &str,
        sketch: &Sketcher,
    ) -> Result<Vec<RetrievedMoment>, SessionError> {
        let query = sketch.compile()?;
        self.run_query(dataset, &query)
    }

    /// Step 5 with an already-compiled query clip.
    pub fn run_query(
        &self,
        dataset: &str,
        query: &Clip,
    ) -> Result<Vec<RetrievedMoment>, SessionError> {
        self.run_query_cancellable(dataset, query, &CancelToken::none())
    }

    /// [`run_query`](Self::run_query) under a [`CancelToken`]: the search
    /// polls the token and returns [`SessionError::Cancelled`] promptly
    /// once it trips (explicit cancel or deadline). This is the entry
    /// point query services use to enforce per-query deadlines.
    pub fn run_query_cancellable(
        &self,
        dataset: &str,
        query: &Clip,
        cancel: &CancelToken,
    ) -> Result<Vec<RetrievedMoment>, SessionError> {
        let index = self.dataset(dataset)?;
        let result = self.traced(dataset, || {
            self.matcher
                .search_stored(index, self.stores.get(dataset), query, cancel, None)
        });
        result.map(|s| s.moments).map_err(SessionError::from)
    }

    /// Runs `search` on this thread under a fresh trace labelled
    /// `dataset`, and keeps the finished trace for
    /// [`last_query_stats`](Self::last_query_stats).
    fn traced<T>(&self, dataset: &str, search: impl FnOnce() -> T) -> T {
        let trace = TraceContext::new();
        trace.set_label(dataset);
        let result = {
            let _entered = trace.enter();
            search()
        };
        *self.last_trace.lock().unwrap() = trace.finalize();
        result
    }

    /// Step 5 with an arbitrary similarity function (baseline experiments).
    pub fn run_query_with<S: Similarity>(
        &self,
        dataset: &str,
        query: &Clip,
        sim: S,
    ) -> Result<Vec<RetrievedMoment>, SessionError> {
        self.run_query_with_cancel(dataset, query, sim, &CancelToken::none())
    }

    /// [`run_query_with`](Self::run_query_with) under a [`CancelToken`].
    pub fn run_query_with_cancel<S: Similarity>(
        &self,
        dataset: &str,
        query: &Clip,
        sim: S,
        cancel: &CancelToken,
    ) -> Result<Vec<RetrievedMoment>, SessionError> {
        let index = self.dataset(dataset)?;
        let matcher = Matcher::with_config(sim, self.matcher.config.clone());
        self.traced(dataset, || matcher.search_with_cancel(index, query, cancel))
            .map_err(SessionError::from)
    }

    /// The [`QueryTrace`] of the most recent `run_query` /
    /// `run_query_with` / `run_sketch` call on this session, or `None`
    /// before the first query: its stage spans, the counters it moved
    /// and what it cost — that query's alone, whatever else the process
    /// was running (the same trace is in the flight recorder under its
    /// `trace_id`).
    ///
    /// ```
    /// use sketchql::prelude::*;
    /// use sketchql::VideoIndex;
    ///
    /// let mut cfg = TrainingConfig::tiny();
    /// cfg.steps = 2;
    /// let mut sq = SketchQL::new(sketchql::training::train(cfg));
    /// assert!(sq.last_query_stats().is_none(), "no query has run yet");
    ///
    /// let cfg = sketchql_datasets::VideoConfig {
    ///     family: sketchql_datasets::SceneFamily::UrbanIntersection,
    ///     events_per_kind: 1,
    ///     distractors: 0,
    ///     fps: 30.0,
    /// };
    /// let video = sketchql_datasets::generate_video(
    ///     cfg,
    ///     7,
    ///     &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7),
    /// );
    /// sq.upload_index("v", VideoIndex::from_truth(&video));
    /// let query = sketchql_datasets::query_clip(sketchql_datasets::EventKind::LeftTurn);
    /// sq.run_query("v", &query).unwrap();
    ///
    /// let stats = sq.last_query_stats().unwrap();
    /// assert_eq!(stats.label, "v");
    /// assert!(stats.count(sketchql::telemetry::names::WINDOWS_ENUMERATED) > 0);
    /// assert!(stats.count(sketchql::telemetry::names::SIMILARITY_EVALS) > 0);
    /// assert!(!stats.stages().is_empty());
    /// ```
    pub fn last_query_stats(&self) -> Option<Arc<QueryTrace>> {
        self.last_trace.lock().unwrap().clone()
    }

    /// Step 6 ("Display Videos"): formats moments for display, sorted by
    /// score.
    pub fn display(
        &self,
        dataset: &str,
        moments: &[RetrievedMoment],
    ) -> Result<Vec<MomentView>, SessionError> {
        let index = self.dataset(dataset)?;
        let fps = index.fps.max(1e-6);
        Ok(moments
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let classes = m
                    .track_ids
                    .iter()
                    .filter_map(|id| index.tracks.iter().find(|t| t.id == *id))
                    .map(|t| t.class)
                    .collect();
                MomentView {
                    rank: i + 1,
                    start: m.start,
                    end: m.end,
                    start_seconds: m.start as f32 / fps,
                    end_seconds: m.end as f32 / fps,
                    score: m.score,
                    classes,
                }
            })
            .collect())
    }

    /// Reconstructs the clip of a retrieved moment (what the result window
    /// plays back, and what Tuner feedback is given on).
    pub fn moment_clip(
        &self,
        dataset: &str,
        moment: &RetrievedMoment,
    ) -> Result<Clip, SessionError> {
        let index = self.dataset(dataset)?;
        let objects = moment
            .track_ids
            .iter()
            .filter_map(|id| index.tracks.iter().find(|t| t.id == *id))
            .map(|t| t.window(moment.start, moment.end))
            .collect();
        Ok(Clip::new(index.frame_width, index.frame_height, objects))
    }

    /// Applies Tuner feedback by fine-tuning the session's model in place.
    /// Returns the number of usable feedback items.
    pub fn apply_feedback(
        &mut self,
        query: &Clip,
        feedback: &[Feedback],
        config: &TunerConfig,
    ) -> usize {
        let usable = feedback.len();
        self.model = fine_tune(&self.model, query, feedback, config);
        // New weights, new fingerprint: a store ingested under the old
        // model is refused from here on and its queries take the scan.
        self.matcher.sim = self.model.similarity();
        usable
    }

    /// Builds a training-free re-ranker from feedback (the lighter Tuner
    /// path).
    pub fn feedback_reranker(&self, feedback: &[Feedback], config: &TunerConfig) -> Reranker {
        Reranker::new(&self.model, feedback, config)
    }

    /// Persists the whole session (model + every preprocessed dataset
    /// index + every embedding store) under `dir`, so preprocessing and
    /// ingest are paid once across process restarts — a video database,
    /// not a per-run cache.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let idx_dir = dir.join("indexes");
        std::fs::create_dir_all(&idx_dir)?;
        self.model.save(&dir.join("model.json"))?;
        let mut names = Vec::new();
        // The manifest records the actual file each dataset landed in.
        let mut used = std::collections::HashSet::new();
        for (name, index) in &self.datasets {
            let file = unique_name(&mut used, &sanitize(name), ".json");
            let json = serde_json::to_string(index).map_err(std::io::Error::other)?;
            std::fs::write(idx_dir.join(&file), json)?;
            names.push((name.clone(), file));
        }
        let manifest = serde_json::to_string(&names).map_err(std::io::Error::other)?;
        std::fs::write(dir.join("manifest.json"), manifest)?;
        // Each set travels as a directory under `stores/`; its real
        // dataset name is inside its manifest, so loading never depends
        // on the directory name.
        let mut used = std::collections::HashSet::new();
        for (name, set) in &self.stores {
            let set_dir = unique_name(&mut used, &sanitize(name), &format!(".{SHARD_SET_EXT}"));
            set.copy_to(&dir.join("stores").join(set_dir))
                .map_err(std::io::Error::other)?;
        }
        Ok(())
    }

    /// Restores a session saved with [`SketchQL::save`]. Truncated or
    /// corrupt members fail with a [`LoadError`] naming the offending
    /// file rather than an opaque parse error.
    pub fn load(dir: &std::path::Path) -> Result<Self, LoadError> {
        let read = |path: std::path::PathBuf| -> Result<(String, std::path::PathBuf), LoadError> {
            match std::fs::read_to_string(&path) {
                Ok(s) => Ok((s, path)),
                Err(source) => Err(LoadError::Io { path, source }),
            }
        };
        let (model_json, model_path) = read(dir.join("model.json"))?;
        let model: TrainedModel =
            serde_json::from_str(&model_json).map_err(|e| LoadError::Corrupt {
                path: model_path,
                detail: e.to_string(),
            })?;
        let (manifest_json, manifest_path) = read(dir.join("manifest.json"))?;
        let manifest: Vec<(String, String)> =
            serde_json::from_str(&manifest_json).map_err(|e| LoadError::Corrupt {
                path: manifest_path,
                detail: e.to_string(),
            })?;
        let mut session = SketchQL::new(model);
        for (name, file) in manifest {
            let (json, path) = read(dir.join("indexes").join(&file))?;
            let index: VideoIndex =
                serde_json::from_str(&json).map_err(|e| LoadError::Corrupt {
                    path,
                    detail: e.to_string(),
                })?;
            session.datasets.insert(name, index);
        }
        let stores_dir = dir.join("stores");
        if stores_dir.is_dir() {
            session.stores = load_store_tier_dir(&stores_dir)?;
        }
        Ok(session)
    }
}

/// `{base}{ext}`, or `{base}_2{ext}`, `{base}_3{ext}`, … — the first not
/// yet in `used`. Distinct dataset names can sanitize to the same file
/// name ("a/b" and "a_b" both become "a_b"); suffixing on collision
/// means no dataset silently overwrites another.
fn unique_name(used: &mut std::collections::HashSet<String>, base: &str, ext: &str) -> String {
    let mut file = format!("{base}{ext}");
    let mut k = 2;
    while !used.insert(file.clone()) {
        file = format!("{base}_{k}{ext}");
        k += 1;
    }
    file
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train, TrainingConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sketchql_datasets::{generate_video, EventKind, SceneFamily, VideoConfig};
    use sketchql_telemetry::names;
    use sketchql_trajectory::{Point2, Trajectory};

    fn tiny_session() -> SketchQL {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 10;
        SketchQL::new(train(cfg))
    }

    fn small_video(seed: u64) -> SyntheticVideo {
        let cfg = VideoConfig {
            family: SceneFamily::UrbanIntersection,
            events_per_kind: 1,
            distractors: 2,
            fps: 30.0,
        };
        generate_video(cfg, seed, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn upload_then_query_round_trip() {
        let mut sq = tiny_session();
        let video = small_video(1);
        let summary = sq.upload_dataset("traffic", &video);
        assert_eq!(summary.frames, video.frames);
        assert!(summary.num_tracks > 0);
        assert_eq!(sq.datasets(), vec!["traffic"]);

        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let results = sq.run_query("traffic", &query).unwrap();
        assert!(!results.is_empty());
        let views = sq.display("traffic", &results).unwrap();
        assert_eq!(views.len(), results.len());
        assert_eq!(views[0].rank, 1);
        assert!(views[0].start_seconds <= views[0].end_seconds);
    }

    #[test]
    fn unknown_dataset_is_error() {
        let sq = tiny_session();
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let err = sq.run_query("nope", &query).unwrap_err();
        assert_eq!(err, SessionError::UnknownDataset("nope".into()));
    }

    #[test]
    fn unembeddable_query_is_an_error_not_empty_results() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(7)));
        // Five objects exceed the encoder's slot budget. Previously this
        // silently fell back to scoring every candidate 0.0.
        let base = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let objects = (0..5)
            .map(|i| {
                let t = &base.objects[0];
                Trajectory::from_points(i, t.class, t.points().to_vec())
            })
            .collect();
        let crowd = Clip::new(1000.0, 600.0, objects);
        let err = sq.run_query("v", &crowd).unwrap_err();
        assert!(
            matches!(err, SessionError::Similarity(_)),
            "expected a similarity error, got {err:?}"
        );
    }

    #[test]
    fn sketch_to_results_pipeline() {
        let mut sq = tiny_session();
        let video = small_video(2);
        sq.upload_index("v", VideoIndex::from_truth(&video));

        // Steps 2-3: place a car, drag a left turn.
        let mut sketch = sq.new_sketch();
        let car = sketch
            .create_object(ObjectClass::Car, Point2::new(150.0, 450.0))
            .unwrap();
        sketch.set_mode(crate::sketcher::MouseMode::Drag);
        sketch
            .drag_object_along(
                car,
                &[
                    Point2::new(300.0, 450.0),
                    Point2::new(450.0, 450.0),
                    Point2::new(600.0, 430.0),
                    Point2::new(650.0, 300.0),
                    Point2::new(660.0, 150.0),
                ],
            )
            .unwrap();
        let seg = sketch.panel().lane(car)[0];
        sketch.stretch_segment(seg, 80).unwrap();
        let results = sq.run_sketch("v", &sketch).unwrap();
        assert!(!results.is_empty());
    }

    #[test]
    fn empty_sketch_fails_cleanly() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(3)));
        let sketch = sq.new_sketch();
        let err = sq.run_sketch("v", &sketch).unwrap_err();
        assert!(matches!(err, SessionError::Sketch(SketchError::EmptyQuery)));
    }

    #[test]
    fn moment_clip_reconstruction() {
        let mut sq = tiny_session();
        let video = small_video(4);
        sq.upload_index("v", VideoIndex::from_truth(&video));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let results = sq.run_query("v", &query).unwrap();
        let top = &results[0];
        let clip = sq.moment_clip("v", top).unwrap();
        assert_eq!(clip.num_objects(), top.track_ids.len());
        assert_eq!(clip.start_frame(), Some(0));
        assert!(clip.span() <= top.end - top.start + 1);
    }

    #[test]
    fn feedback_updates_model() {
        let mut sq = tiny_session();
        let video = small_video(5);
        sq.upload_index("v", VideoIndex::from_truth(&video));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let results = sq.run_query("v", &query).unwrap();
        assert!(results.len() >= 2);
        let pos = sq.moment_clip("v", &results[0]).unwrap();
        let neg = sq.moment_clip("v", results.last().unwrap()).unwrap();
        let before = sq.model.store.clone();
        let n = sq.apply_feedback(
            &query,
            &[
                Feedback {
                    clip: pos,
                    relevant: true,
                },
                Feedback {
                    clip: neg,
                    relevant: false,
                },
            ],
            &TunerConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        assert_eq!(n, 2);
        assert_ne!(sq.model.store, before, "feedback should update weights");
    }

    #[test]
    fn session_save_load_round_trip() {
        let mut sq = tiny_session();
        let video = small_video(9);
        sq.upload_index("v/one", VideoIndex::from_truth(&video));
        let dir = std::env::temp_dir().join(format!("sketchql-session-{}", std::process::id()));
        sq.save(&dir).unwrap();
        let back = SketchQL::load(&dir).unwrap();
        assert_eq!(back.datasets(), vec!["v/one"]);
        assert_eq!(back.model.store, sq.model.store);
        // The restored session answers queries identically.
        let q = sketchql_datasets::query_clip(EventKind::LeftTurn);
        assert_eq!(
            sq.run_query("v/one", &q).unwrap(),
            back.run_query("v/one", &q).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn colliding_sanitized_names_do_not_overwrite_each_other() {
        // "a/b" and "a_b" both sanitize to "a_b"; before the collision fix
        // the second index file silently overwrote the first and both
        // manifest entries pointed at the survivor.
        let mut sq = tiny_session();
        sq.upload_index("a/b", VideoIndex::from_truth(&small_video(21)));
        sq.upload_index("a_b", VideoIndex::from_truth(&small_video(22)));
        let expect_slash = sq.dataset("a/b").unwrap().tracks.len();
        let expect_under = sq.dataset("a_b").unwrap().tracks.len();
        let dir = std::env::temp_dir().join(format!("sketchql-collide-{}", std::process::id()));
        sq.save(&dir).unwrap();
        let back = SketchQL::load(&dir).unwrap();
        assert_eq!(back.datasets(), vec!["a/b", "a_b"]);
        assert_eq!(back.dataset("a/b").unwrap().tracks.len(), expect_slash);
        assert_eq!(back.dataset("a_b").unwrap().tracks.len(), expect_under);
        assert_ne!(
            serde_json::to_string(back.dataset("a/b").unwrap()).unwrap(),
            serde_json::to_string(back.dataset("a_b").unwrap()).unwrap(),
            "collision fix must keep both indexes distinct on disk"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_session_files_fail_with_a_path_naming_error() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(23)));
        let dir = std::env::temp_dir().join(format!("sketchql-corrupt-{}", std::process::id()));
        sq.save(&dir).unwrap();

        // Truncate the model file mid-JSON: a half-written save.
        let model_path = dir.join("model.json");
        let bytes = std::fs::read(&model_path).unwrap();
        std::fs::write(&model_path, &bytes[..bytes.len() / 2]).unwrap();
        let err = SketchQL::load(&dir).err().expect("load should fail");
        assert!(
            matches!(&err, LoadError::Corrupt { path, .. } if path.ends_with("model.json")),
            "expected Corrupt naming model.json, got {err:?}"
        );
        assert!(err.to_string().contains("model.json"), "{err}");

        // Restore the model, corrupt an index file instead.
        std::fs::write(&model_path, &bytes).unwrap();
        let idx_file = dir.join("indexes").join("v.json");
        std::fs::write(&idx_file, "{not json").unwrap();
        let err = SketchQL::load(&dir).err().expect("load should fail");
        assert!(
            matches!(&err, LoadError::Corrupt { path, .. } if path.ends_with("v.json")),
            "expected Corrupt naming v.json, got {err:?}"
        );

        // A missing file is Io, also path-named.
        std::fs::remove_file(&idx_file).unwrap();
        let err = SketchQL::load(&dir).err().expect("load should fail");
        assert!(
            matches!(&err, LoadError::Io { path, .. } if path.ends_with("v.json")),
            "expected Io naming v.json, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingested_store_survives_save_load_and_serves_queries() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(24)));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let scan_results = sq.run_query("v", &query).unwrap();

        let cfg = IngestConfig::from_matcher(&sq.matcher.config, &[query.span()]);
        let dir = std::env::temp_dir().join(format!("sketchql-store-rt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let n = sq.ingest_dataset("v", &cfg, &dir.join("ingest")).unwrap();
        assert!(n > 0, "ingest produced no vectors");
        // Exhaustive probe so the store path must agree exactly.
        let nlist = sq.store("v").unwrap().nlist();
        sq.stores.get_mut("v").unwrap().nprobe = nlist;
        assert_eq!(sq.run_query("v", &query).unwrap(), scan_results);

        sq.save(&dir.join("session")).unwrap();
        std::fs::remove_dir_all(dir.join("ingest")).unwrap();
        let mut back = SketchQL::load(&dir.join("session")).unwrap();
        assert_eq!(back.stored_datasets(), vec!["v"]);
        back.stores.get_mut("v").unwrap().nprobe = nlist;
        assert_eq!(
            back.run_query("v", &query).unwrap(),
            scan_results,
            "restored store must answer identically to the scan"
        );
        let report = back.last_query_stats().unwrap();
        assert_eq!(
            report.count(names::STORE_HITS),
            1,
            "query should be served by the store"
        );
        assert!(report.count(names::STORE_PROBED) > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The session searches through one matcher per model: a stored
    /// dataset is served by its store, `apply_feedback` swaps the matcher's
    /// similarity with the model (the stale store is refused and the
    /// query equals a scan), and the matcher's config is still the
    /// session's live search parameters.
    #[test]
    fn session_matcher_follows_the_model_and_its_config() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(24)));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let cfg = IngestConfig::from_matcher(&sq.matcher.config, &[query.span()]);
        let dir = std::env::temp_dir().join(format!("sketchql-matcher-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        sq.ingest_dataset("v", &cfg, &dir).unwrap();

        let results = sq.run_query("v", &query).unwrap();
        let hits_and_fallbacks = |sq: &SketchQL| {
            let report = sq.last_query_stats().unwrap();
            (
                report.count(names::STORE_HITS),
                report.count(names::STORE_FALLBACKS),
                report.count(names::STORE_FALLBACK_MODEL_FINGERPRINT),
            )
        };
        assert_eq!(hits_and_fallbacks(&sq), (1, 0, 0));

        let judged = |m: &RetrievedMoment, relevant| Feedback {
            clip: sq.moment_clip("v", m).unwrap(),
            relevant,
        };
        let feedback = [
            judged(&results[0], true),
            judged(results.last().unwrap(), false),
        ];
        let tuner = TunerConfig {
            epochs: 2,
            ..Default::default()
        };
        sq.apply_feedback(&query, &feedback, &tuner);
        let tuned = sq.run_query("v", &query).unwrap();
        assert_eq!(
            hits_and_fallbacks(&sq),
            (0, 1, 1),
            "a store ingested under the old weights must be refused"
        );
        let scan = Matcher::with_config(sq.model().similarity(), sq.matcher.config.clone())
            .search(sq.dataset("v").unwrap(), &query)
            .unwrap();
        assert_eq!(
            tuned, scan,
            "the fallback answers like a scan of the new model"
        );

        assert!(tuned.len() > 1, "fixture should retrieve several moments");
        sq.matcher_config_mut().top_k = 1;
        assert_eq!(sq.run_query("v", &query).unwrap(), tuned[..1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The whole query path must be usable from a shared reference across
    /// threads: the server engine holds one session behind an `Arc` and
    /// runs queries from a worker pool.
    #[test]
    fn session_query_path_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SketchQL>();
        assert_send_sync::<VideoIndex>();
        assert_send_sync::<TrainedModel>();
        assert_send_sync::<Matcher<LearnedSimilarity>>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<SessionError>();
    }

    #[test]
    fn concurrent_queries_on_shared_session_match_sequential() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(8)));
        let sq = std::sync::Arc::new(sq);
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let expected = sq.run_query("v", &query).unwrap();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let sq = std::sync::Arc::clone(&sq);
                    let query = query.clone();
                    scope.spawn(move || sq.run_query("v", &query).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r, expected, "concurrent result diverged from solo run");
        }
    }

    #[test]
    fn cancelled_query_reports_cancelled() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(10)));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = sq.run_query_cancellable("v", &query, &cancel).unwrap_err();
        assert_eq!(err, SessionError::Cancelled(CancelReason::Cancelled));
    }

    #[test]
    fn baseline_similarity_can_be_swapped_in() {
        let mut sq = tiny_session();
        let video = small_video(6);
        sq.upload_index("v", VideoIndex::from_truth(&video));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let results = sq
            .run_query_with(
                "v",
                &query,
                crate::similarity::ClassicalSimilarity::new(sketchql_trajectory::DistanceKind::Dtw),
            )
            .unwrap();
        assert!(!results.is_empty());
    }
}
