//! # sketchql-nn
//!
//! A from-scratch, CPU-only neural network library sized for SketchQL's
//! trajectory encoder: a dense 2D [`Tensor`], transformer building blocks
//! ([`Linear`], [`MultiHeadSelfAttention`], [`EncoderLayer`]), the
//! [`TrajectoryEncoder`] itself with its one forward and the hand-written
//! backward beside it ([`TrajectoryEncoder::backward`], every block
//! checked against finite differences), the NT-Xent / triplet losses as
//! plain functions of the embeddings, and an [`Adam`] optimizer.
//!
//! The paper trains its similarity model in PyTorch; this crate substitutes
//! an architecturally identical (smaller) encoder so the entire zero-shot
//! pipeline — simulator-generated contrastive pairs → transformer embedding
//! → cosine similarity search — runs in pure Rust.

#![warn(missing_docs)]
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block
)]

pub mod kernels;
pub mod loss;
pub mod modules;
pub mod optim;
pub mod schedule;
pub mod tensor;

pub use loss::{nt_xent, triplet};
pub use modules::{
    cosine_scores, cosine_similarity, sinusoidal_positions, EncoderConfig, EncoderLayer,
    FeedForward, KeptForward, LayerNorm, Linear, MultiHeadSelfAttention, ParamMismatch, ParamStore,
    Pooling, TrajectoryEncoder,
};
pub use optim::{Adam, AdamConfig};
pub use schedule::LrSchedule;
pub use tensor::Tensor;
