//! # sketchql-trajectory
//!
//! Geometry and trajectory substrate for SketchQL: bounding boxes, per-object
//! trajectories, multi-object clips, canonical normalization/resampling, the
//! encoder feature extractor, and the classical trajectory distance measures
//! (Euclidean, DTW, discrete Fréchet, Hausdorff) used as Matcher baselines.
//!
//! Everything in SketchQL — the 3D simulator's camera projections, the
//! tracker's outputs, the sketcher's drag-recorded queries, and the Matcher's
//! sliding windows — speaks the types defined here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bbox;
pub mod clip;
pub mod distance;
pub mod features;
pub mod geom;
pub mod object;
pub mod render;
pub mod simplify;
pub mod trajectory;

pub use bbox::BBox;
pub use clip::Clip;
pub use distance::{clip_distance, distance_to_similarity, path_distance, DistanceKind};
pub use features::{
    extract_features, ClipFeatures, FeatureError, DEFAULT_STEPS, MAX_OBJECTS, SLOT_DIM, TOKEN_DIM,
};
pub use geom::{angle_diff, wrap_angle, Point2, Point3};
pub use object::{ObjectClass, TrackId, UnknownClass};
pub use render::{render_frame, render_storyboard};
pub use simplify::{max_deviation, simplify_path};
pub use trajectory::{TrajPoint, Trajectory};
