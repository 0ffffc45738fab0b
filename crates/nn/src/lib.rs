//! # sketchql-nn
//!
//! A from-scratch, CPU-only neural network library sized for SketchQL's
//! trajectory encoder: a dense 2D [`Tensor`], a reverse-mode autograd
//! [`Tape`] over a closed op set (every backward rule gradient-checked),
//! transformer building blocks ([`Linear`], [`MultiHeadSelfAttention`],
//! [`EncoderLayer`]), the [`TrajectoryEncoder`] itself, the NT-Xent /
//! triplet losses, and an [`Adam`] optimizer.
//!
//! The paper trains its similarity model in PyTorch; this crate substitutes
//! an architecturally identical (smaller) encoder so the entire zero-shot
//! pipeline — simulator-generated contrastive pairs → transformer embedding
//! → cosine similarity search — runs in pure Rust.

#![warn(missing_docs)]

pub mod kernels;
pub mod loss;
pub mod modules;
pub mod optim;
pub mod schedule;
pub mod tape;
pub mod tensor;

pub use loss::{mse, nt_xent, triplet};
pub use modules::{
    cosine_scores, cosine_similarity, sinusoidal_positions, EncoderConfig, EncoderLayer,
    FeedForward, Graph, LayerNorm, Linear, MultiHeadSelfAttention, ParamStore, Pooling,
    TrajectoryEncoder,
};
pub use optim::{Adam, AdamConfig};
pub use schedule::LrSchedule;
pub use tape::{Gradients, NodeId, Tape};
pub use tensor::Tensor;
