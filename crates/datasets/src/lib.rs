//! # sketchql-datasets
//!
//! Synthetic evaluation datasets standing in for the real-world surveillance
//! videos (VIRAT \[7\]) the demo runs on. Provides:
//!
//! * an event vocabulary ([`EventKind`]) covering the demo's queries — Q1
//!   (left turn) and Q2 (car/person perpendicular crossing) — plus six more,
//! * a scene generator ([`generate_video`]) embedding ground-truth event
//!   occurrences among distractor traffic, recorded through per-family
//!   camera geometries ([`SceneFamily`]),
//! * the canonical user sketches for each query ([`canonical_sketch`],
//!   [`query_clip`]), and
//! * retrieval metrics ([`evaluate_retrieval`]).

#![warn(missing_docs)]

pub mod events;
pub mod generator;
pub mod queries;
pub mod retrieval;

pub use events::{distractor_script, EventKind};
pub use generator::{
    extend_video, generate_video, EventAnnotation, ExtendConfig, SceneFamily, SyntheticVideo,
    VideoConfig,
};
pub use queries::{
    canonical_sketch, query_clip, sample_path, CanonicalSketch, SketchObject, SketchStroke,
    CANVAS_H, CANVAS_W,
};
pub use retrieval::{evaluate_retrieval, PredictedMoment, RetrievalReport, TIOU_THRESH};
