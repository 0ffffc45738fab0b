//! # sketchql-tracker
//!
//! The object-tracking substrate SketchQL preprocesses videos with. Since no
//! pre-trained CNN detector is available, a [`DetectorSim`] turns
//! ground-truth bounding box clips into realistic noisy detections
//! (localization jitter, misses, false positives, confidence scores), and a
//! full ByteTrack-style tracker — constant-velocity Kalman filter
//! ([`KalmanBoxTracker`]), Hungarian assignment ([`hungarian::assign`]),
//! two-stage high/low-confidence association ([`ByteTracker`]) — turns
//! detections back into per-object trajectories, complete with the
//! real-world artifacts (fragmentation, id switches, coasting error) the
//! Matcher must be robust to.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytetrack;
pub mod detection;
pub mod hungarian;
pub mod kalman;
pub mod metrics;
pub mod postprocess;

pub use bytetrack::{track_detections, ByteTracker, Track, TrackState, TrackerConfig};
pub use detection::{Detection, DetectorConfig, DetectorSim};
pub use kalman::KalmanBoxTracker;
pub use metrics::{evaluate_tracking, TrackingReport};
pub use postprocess::{interpolate_tracks, stitch_fragments, StitchConfig};
