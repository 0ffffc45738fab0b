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

use crate::cancel::CancelReason;
use crate::index::VideoIndex;
use crate::matcher::{MatchError, Matcher, MatcherConfig, RetrievedMoment};
use crate::similarity::{LearnedSimilarity, Similarity, SimilarityError};
use crate::sketcher::{SketchError, Sketcher};
use crate::training::TrainedModel;
use crate::tuner::{fine_tune_counted, Feedback, Reranker, TunerConfig};

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
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            SessionError::Sketch(e) => write!(f, "sketch error: {e}"),
            SessionError::Similarity(e) => write!(f, "similarity error: {e}"),
            SessionError::Cancelled(r) => write!(f, "query {r}"),
        }
    }
}

impl std::error::Error for SessionError {}

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

/// Detector seed of [`SketchQL::upload_dataset`]'s preprocessing.
const UPLOAD_SEED: u64 = 1234;

/// A SketchQL session: a trained model plus uploaded datasets.
pub struct SketchQL {
    model: TrainedModel,
    /// `model` wrapped for search, built once per model: the embedding
    /// memo keys its rows on the similarity's fingerprint, and the
    /// similarity hashes its weights once, on first use — a fresh
    /// wrapper per query would re-hash them every time. Its `config` is
    /// the session's search parameters.
    matcher: Matcher<LearnedSimilarity>,
    datasets: BTreeMap<String, VideoIndex>,
    last_trace: Mutex<Option<Arc<QueryTrace>>>,
}

impl SketchQL {
    /// Starts a session with a trained similarity model.
    pub fn new(model: TrainedModel) -> Self {
        SketchQL {
            matcher: Matcher::new(model.similarity()),
            model,
            datasets: BTreeMap::new(),
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
            DetectorConfig::default(),
            TrackerConfig::default(),
            UPLOAD_SEED,
        );
        let summary = DatasetSummary {
            name: name.to_string(),
            frames: idx.frames,
            num_tracks: idx.tracks.len(),
        };
        self.datasets.insert(name.to_string(), idx);
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
        let index = self.dataset(dataset)?;
        self.traced(dataset, || self.matcher.search(index, query))
            .map_err(SessionError::from)
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
        let index = self.dataset(dataset)?;
        let matcher = Matcher::with_config(sim, self.matcher.config.clone());
        self.traced(dataset, || matcher.search(index, query))
            .map_err(SessionError::from)
    }

    /// The [`QueryTrace`] of the most recent query on this session (its
    /// three fronts: `run_query`, `run_query_with`, `run_sketch`), or `None`
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
    /// Returns the number of feedback items tuned on: 0 when the feedback
    /// lacks a usable positive or negative and the model is unchanged.
    pub fn apply_feedback(
        &mut self,
        query: &Clip,
        feedback: &[Feedback],
        config: &TunerConfig,
    ) -> usize {
        let (model, used) = fine_tune_counted(&self.model, query, feedback, config);
        self.model = model;
        self.matcher.sim = self.model.similarity();
        used
    }

    /// Builds a training-free re-ranker from feedback (the lighter Tuner
    /// path).
    pub fn feedback_reranker(&self, feedback: &[Feedback], config: &TunerConfig) -> Reranker {
        Reranker::new(&self.model, feedback, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::training::{train, TrainingConfig};
    use crate::vstore::model_fingerprint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sketchql_datasets::{generate_video, EventKind, SceneFamily, VideoConfig};
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

    /// Upload preprocesses with the default detector and tracker under
    /// detector seed 1234: a session's index is exactly that build.
    #[test]
    fn upload_preprocesses_with_default_detector_tracker_and_seed_1234() {
        use crate::vstore::index_fingerprint;
        let mut sq = tiny_session();
        let video = small_video(11);
        sq.upload_dataset("v", &video);
        let build = |seed| {
            VideoIndex::build(
                &video,
                sketchql_tracker::DetectorConfig::default(),
                sketchql_tracker::TrackerConfig::default(),
                seed,
            )
        };
        let uploaded = index_fingerprint(sq.dataset("v").unwrap());
        assert_eq!(uploaded, index_fingerprint(&build(1234)));
        assert_ne!(uploaded, index_fingerprint(&build(1)), "the seed is pinned");
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

    /// `apply_feedback` counts the items the Tuner used: none when every
    /// item is relevant (no triplet forms and the weights stay put), and
    /// only the clips that featurize when the feedback is mixed.
    #[test]
    fn apply_feedback_counts_the_items_it_tuned_on() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(5)));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let results = sq.run_query("v", &query).unwrap();
        assert!(results.len() >= 3);
        let judged = |m: &RetrievedMoment, relevant| Feedback {
            clip: sq.moment_clip("v", m).unwrap(),
            relevant,
        };
        let all_relevant = [judged(&results[0], true), judged(&results[1], true)];
        // Five objects exceed the encoder's slot budget: that clip is dropped.
        let t = &query.objects[0];
        let crowd = (0..5)
            .map(|i| Trajectory::from_points(i, t.class, t.points().to_vec()))
            .collect();
        let mixed = [
            judged(&results[0], true),
            judged(&results[1], false),
            judged(results.last().unwrap(), false),
            Feedback {
                clip: Clip::new(1000.0, 600.0, crowd),
                relevant: false,
            },
        ];
        let tuner = TunerConfig {
            epochs: 1,
            ..Default::default()
        };

        let before = sq.model.store.clone();
        assert_eq!(sq.apply_feedback(&query, &all_relevant, &tuner), 0);
        assert_eq!(sq.model.store, before, "no triplet, no weight change");
        assert_eq!(sq.apply_feedback(&query, &mixed, &tuner), 3);
        assert_ne!(sq.model.store, before);
    }

    /// The session searches through one matcher per model:
    /// `apply_feedback` swaps the matcher's similarity with the model (a
    /// new fingerprint, and a query equal to a fresh matcher's scan), and
    /// the matcher's config is still the session's live search
    /// parameters.
    #[test]
    fn session_matcher_follows_the_model_and_its_config() {
        let mut sq = tiny_session();
        sq.upload_index("v", VideoIndex::from_truth(&small_video(24)));
        let query = sketchql_datasets::query_clip(EventKind::LeftTurn);
        let results = sq.run_query("v", &query).unwrap();
        let before = model_fingerprint(&sq.matcher.sim);

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
        assert_ne!(
            model_fingerprint(&sq.matcher.sim),
            before,
            "new weights, new fingerprint"
        );
        let tuned = sq.run_query("v", &query).unwrap();
        let scan = Matcher::with_config(sq.model().similarity(), sq.matcher.config.clone())
            .search(sq.dataset("v").unwrap(), &query)
            .unwrap();
        assert_eq!(tuned, scan, "the session answers like the new model");

        assert!(tuned.len() > 1, "fixture should retrieve several moments");
        sq.matcher_config_mut().top_k = 1;
        assert_eq!(sq.run_query("v", &query).unwrap(), tuned[..1]);
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
        let index = sq.dataset("v").unwrap();
        let result = sq.matcher.search_with_cancel(index, &query, &cancel);
        assert_eq!(
            result.map_err(SessionError::from).unwrap_err(),
            SessionError::Cancelled(CancelReason::Cancelled)
        );
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
