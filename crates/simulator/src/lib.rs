//! # sketchql-simulator
//!
//! The paper's 3D trajectory simulator: the training-data engine behind
//! SketchQL's zero-shot similarity model. Motions are generated in a 3D
//! world ([`motion`], [`agent`]), recorded by virtual pinhole cameras with
//! optional shake ([`camera`]), and projected into 2D bounding box clips
//! ([`scene`]). Two recordings of the same 3D event from different cameras
//! form a contrastive positive pair; recordings of different events are
//! negatives ([`pairs`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod camera;
pub mod motion;
pub mod pairs;
pub mod scene;

pub use agent::{class_priors, Agent, BodyDims, ClassPriors};
pub use camera::{gauss, gauss_pair, Camera, CameraRig, ShakeConfig};
pub use motion::{templates, AgentPose, MotionPrimitive, MotionScript};
pub use pairs::{PairGenConfig, PairGenerator, RandomSceneSampler, SamplerConfig, TrainingPair};
pub use scene::{Scene3D, SceneObject};
