//! # sketchql
//!
//! A Rust implementation of **SketchQL** (VLDB 2024 demo): a video database
//! management system for zero-shot video moment retrieval with a
//! sketch-based query interface.
//!
//! The three components of the paper:
//!
//! * **Sketcher** ([`sketcher`]) — a headless model of the drag-and-drop
//!   canvas and trajectory panel; compiles user gestures into a visual
//!   query [`Clip`](sketchql_trajectory::Clip).
//! * **Matcher** ([`matcher`], [`similarity`], [`index`]) — sliding-window
//!   similarity search over tracked object trajectories using a
//!   transformer encoder trained purely on simulator data ([`training`]),
//!   with classical distance baselines behind the same interface.
//! * **Tuner** ([`tuner`]) — optional user-feedback adaptation via
//!   prototype re-ranking or triplet fine-tuning.
//!
//! [`session::SketchQL`] ties it together as the six-step demo workflow:
//! upload → create objects → drag trajectories → edit panel → run → display.
//!
//! ```no_run
//! use sketchql::prelude::*;
//!
//! // Train (or load) the zero-shot similarity model.
//! let model = sketchql::training::train(TrainingConfig::small());
//! let mut sq = SketchQL::new(model);
//! # let video: sketchql_datasets::SyntheticVideo = unimplemented!();
//! // Step 1: upload a video (runs tracker preprocessing).
//! sq.upload_dataset("traffic", &video);
//! // Steps 2-4: sketch a left turn.
//! let mut sketch = sq.new_sketch();
//! let car = sketch.create_object(ObjectClass::Car, Point2::new(150.0, 450.0)).unwrap();
//! sketch.set_mode(MouseMode::Drag);
//! sketch.drag_object_along(car, &[Point2::new(400.0, 450.0), Point2::new(650.0, 150.0)]).unwrap();
//! // Steps 5-6: run and display.
//! let results = sq.run_sketch("traffic", &sketch).unwrap();
//! for view in sq.display("traffic", &results).unwrap() {
//!     println!("#{} frames {}..{} score {:.3}", view.rank, view.start, view.end, view.score);
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sketchql_telemetry as telemetry;

pub mod cancel;
pub mod embed_cache;
mod grid;
pub mod index;
pub mod matcher;
pub mod rules;
pub mod session;
pub mod similarity;
pub mod sketcher;
pub mod training;
pub mod tuner;
pub mod vshard;
pub mod vstore;

pub use cancel::{CancelReason, CancelToken};
pub use embed_cache::{embed_clips_parallel, MemoStats};
pub use grid::MIN_WINDOW;
pub use index::VideoIndex;
pub use matcher::{MatchError, Matcher, MatcherConfig, RetrievedMoment};
pub use rules::{
    evaluate_rule, expert_rule, motion_stats, MotionStats, Predicate, Relation, RuleQuery,
};
pub use session::{DatasetSummary, MomentView, SessionError, SketchQL};
pub use similarity::{
    ClassicalSimilarity, LearnedSimilarity, PreparedQuery, Similarity, SimilarityError,
};
pub use sketcher::{
    CanvasObject, MouseMode, ObjectId, SegmentId, SketchError, Sketcher, TrajectoryPanel,
};
/// What [`ShardSet::manifest`] returns; loading it alone reads a set's
/// epoch without attaching the set.
pub use sketchql_store::Manifest;
pub use training::{train, train_with_schedule, PairEval, TrainedModel, TrainingConfig};
pub use tuner::{active_feedback_loop, fine_tune, Feedback, FeedbackRound, Reranker, TunerConfig};
pub use vshard::{
    append_frames, enumerate_store_rows, ingest_sharded, load_store_tier_dir, shard_set_dir_name,
    AppendOutcome, IngestProgress, ShardSet, StoreTier,
};
pub use vstore::{index_fingerprint, model_fingerprint, IngestConfig, StoreSearch};

/// `items` cut into at most `threads` contiguous pieces, each run through
/// `f` on a scoped worker thread that has entered the caller's live
/// traces (so its CPU and allocations attribute to the caller's query);
/// the per-piece results come back in piece order. With fewer than two
/// items per thread the whole slice is one piece, run inline. A worker's
/// panic resumes on the caller.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&[T]) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1);
    if threads == 1 || items.len() < 2 * threads {
        return vec![f(items)];
    }
    let entered = telemetry::TraceContext::entered();
    std::thread::scope(|scope| {
        let (f, entered) = (&f, &entered);
        let handles: Vec<_> = items
            .chunks(items.len().div_ceil(threads))
            .map(|piece| {
                scope.spawn(move || {
                    let _attribution: Vec<_> = entered.iter().map(|t| t.enter()).collect();
                    f(piece)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Convenient re-exports for application code.
pub mod prelude {
    pub use crate::session::SketchQL;
    pub use crate::sketcher::{MouseMode, Sketcher};
    pub use crate::training::{TrainedModel, TrainingConfig};
    pub use crate::tuner::{Feedback, TunerConfig};
    pub use sketchql_trajectory::{Clip, ObjectClass, Point2};
}
