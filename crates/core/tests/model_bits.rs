//! The bits of the models this repository trains, pinned.
//!
//! Every store, golden and recall figure downstream is a function of
//! trained weights, and a seed must yield the same weights however the
//! training step is arranged (which matmul kernel, how many threads, in
//! what order clips are differentiated). The constants below were captured
//! on the scalar, single-threaded, one-graph-per-step trainer; the encoder
//! kernels are bit-identical across scalar / AVX2 / AVX-512, so they hold
//! on any host. A change that moves one of them changes every model —
//! that is a results-changing PR and must say so.

use sketchql::training::{train, TrainedModel, TrainingConfig};
use sketchql::tuner::{fine_tune, Feedback, TunerConfig};
use sketchql_nn::Pooling;
use sketchql_store::Fnv64;
use sketchql_trajectory::{BBox, Clip, ObjectClass, TrajPoint, Trajectory};

/// FNV-64 over the bit patterns of the weights (in name order), then of
/// the per-step losses.
fn model_hash(model: &TrainedModel) -> u64 {
    let mut h = Fnv64::new();
    for (_, tensor) in model.store.iter() {
        for &v in &tensor.data {
            h.write_f32(v);
        }
    }
    for &loss in &model.loss_history {
        h.write_f32(loss);
    }
    h.finish()
}

fn at_steps(mut config: TrainingConfig, steps: usize) -> TrainingConfig {
    config.steps = steps;
    config
}

#[test]
fn tiny_recipe_bits() {
    let model = train(TrainingConfig::tiny());
    assert_eq!(model.loss_history.len(), 40);
    assert_eq!(model_hash(&model), TINY_40);
}

/// perfbench's `gen::model()`: what every benchmark workload serves.
#[test]
fn bench_recipe_bits() {
    let model = train(at_steps(TrainingConfig::small(), 5));
    assert_eq!(model_hash(&model), SMALL_5);
}

#[test]
fn default_recipe_bits() {
    let model = train(at_steps(TrainingConfig::default(), 3));
    assert_eq!(model_hash(&model), DEFAULT_3);
}

/// The `experiments` ablation without positional encodings.
#[test]
fn no_positions_recipe_bits() {
    let mut config = at_steps(TrainingConfig::small(), 3);
    config.encoder.positional = false;
    assert_eq!(model_hash(&train(config)), NO_POSITIONS_3);
}

/// The `experiments` ablation that pools the last time step.
#[test]
fn last_pooling_recipe_bits() {
    let mut config = at_steps(TrainingConfig::small(), 3);
    config.encoder.pooling = Pooling::Last;
    assert_eq!(model_hash(&train(config)), LAST_POOLING_3);
}

fn clip_with_slope(slope: f32) -> Clip {
    let points = (0..30)
        .map(|f| {
            TrajPoint::new(
                f,
                BBox::new(f as f32 * 6.0, 300.0 + f as f32 * slope, 50.0, 30.0),
            )
        })
        .collect();
    let track = Trajectory::from_points(1, ObjectClass::Car, points);
    Clip::new(1280.0, 720.0, vec![track])
}

/// The Tuner over 2 positives x 2 negatives: seven encoder forwards per
/// epoch (each negative once per positive), one triplet loss.
#[test]
fn fine_tune_bits() {
    let model = train(at_steps(TrainingConfig::tiny(), 10));
    let feedback: Vec<Feedback> = [(0.0, true), (0.5, true), (12.0, false), (-9.0, false)]
        .into_iter()
        .map(|(slope, relevant)| Feedback {
            clip: clip_with_slope(slope),
            relevant,
        })
        .collect();
    let tuned = fine_tune(
        &model,
        &clip_with_slope(0.2),
        &feedback,
        &TunerConfig::default(),
    );
    assert_ne!(tuned.store, model.store);
    assert_eq!(model_hash(&tuned), FINE_TUNE_2X2);
}

const TINY_40: u64 = 0x5b25_ed01_f44e_8064;
const SMALL_5: u64 = 0xacd2_ab71_472b_b5f9;
const DEFAULT_3: u64 = 0x9696_1611_0ead_6e4e;
const FINE_TUNE_2X2: u64 = 0x1948_78ea_8220_0087;
const NO_POSITIONS_3: u64 = 0x8b46_a4d2_cec8_557a;
const LAST_POOLING_3: u64 = 0x04a7_6aef_fe6e_df1a;
