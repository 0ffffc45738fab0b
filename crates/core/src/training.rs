//! Zero-shot training pipeline for the trajectory encoder.
//!
//! Implements the paper's recipe end-to-end: sample random 3D events, record
//! each from multiple virtual cameras, extract clip features, and train the
//! transformer encoder with the NT-Xent contrastive objective so that views
//! of the same event embed close together and views of different events
//! embed far apart. **No real video or human label is involved** — this is
//! what makes SketchQL's retrieval zero-shot.

// Index arithmetic is clearer than iterator adapters in these numeric
// kernels.
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sketchql_nn::{
    nt_xent, Adam, AdamConfig, EncoderConfig, Graph, ParamStore, Tensor, TrajectoryEncoder,
};
use sketchql_simulator::{PairGenConfig, PairGenerator, RandomSceneSampler, SamplerConfig};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{extract_features, Clip, TOKEN_DIM};
use std::path::Path;

use crate::similarity::{embed_clip, LearnedSimilarity};

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Encoder architecture.
    pub encoder: EncoderConfig,
    /// Contrastive pairs per batch (negatives come from the same batch).
    pub batch_size: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// NT-Xent temperature.
    pub temperature: f32,
    /// RNG seed controlling initialization and data generation.
    pub seed: u64,
    /// Random-event sampler settings.
    pub sampler: SamplerConfig,
    /// Camera/recording settings for pair generation.
    pub pairgen: PairGenConfig,
    /// Include the x-mirrored copy of half the batch's pairs as additional
    /// batch items. Mirrored events differ only in chirality (left vs right
    /// turns), so they act as in-batch hard negatives that force the
    /// encoder to represent turn direction.
    pub mirror_negatives: bool,
}

impl Default for TrainingConfig {
    /// The full recipe found by the development sweep (see DESIGN.md §4.5):
    /// d_model 48, 3 layers, 2500 NT-Xent steps with sketchify/padding/
    /// mirror augmentation. Trains in a few minutes on a laptop CPU.
    fn default() -> Self {
        TrainingConfig {
            encoder: EncoderConfig {
                input_dim: TOKEN_DIM,
                d_model: 48,
                heads: 4,
                layers: 3,
                ff_hidden: 96,
                embed_dim: 48,
                steps: 32,
                ..Default::default()
            },
            batch_size: 24,
            steps: 2500,
            lr: 1e-3,
            temperature: 0.1,
            seed: 17,
            sampler: SamplerConfig::default(),
            pairgen: PairGenConfig {
                sketchify_prob: 0.6,
                ..Default::default()
            },
            mirror_negatives: true,
        }
    }
}

impl TrainingConfig {
    /// A smaller configuration (same architecture, fewer steps) that trains
    /// in about a minute; used where the full recipe is overkill.
    pub fn small() -> Self {
        TrainingConfig {
            steps: 1200,
            ..Default::default()
        }
    }

    /// An even smaller configuration for unit tests.
    pub fn tiny() -> Self {
        TrainingConfig {
            encoder: EncoderConfig {
                input_dim: TOKEN_DIM,
                d_model: 16,
                heads: 2,
                layers: 1,
                ff_hidden: 32,
                embed_dim: 16,
                steps: 16,
                ..Default::default()
            },
            batch_size: 8,
            steps: 40,
            // The tiny model exists to exercise machinery quickly; mirror
            // hard negatives make the objective too hard for it to show a
            // clean loss decrease in a handful of steps.
            mirror_negatives: false,
            ..Default::default()
        }
    }
}

/// A trained encoder: architecture + weights + training record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The encoder (architecture and parameter names).
    pub encoder: TrajectoryEncoder,
    /// Trained weights.
    pub store: ParamStore,
    /// The configuration it was trained with.
    pub config: TrainingConfig,
    /// Per-step training loss.
    pub loss_history: Vec<f32>,
}

impl TrainedModel {
    /// Wraps this model as a [`LearnedSimilarity`] for the Matcher.
    pub fn similarity(&self) -> LearnedSimilarity {
        LearnedSimilarity::new(self.encoder.clone(), self.store.clone())
    }

    /// Extracts features and embeds a clip (`None` if the clip is empty or
    /// exceeds the object limit).
    pub fn embed(&self, clip: &Clip) -> Option<Vec<f32>> {
        embed_clip(&self.encoder, &self.store, clip).ok()
    }

    /// Saves the model as JSON.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a model from JSON.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(std::io::Error::other)
    }

    /// Loads a cached model if `path` exists and matches `config`;
    /// otherwise trains and caches.
    pub fn load_or_train(path: &Path, config: TrainingConfig) -> Self {
        if let Ok(m) = TrainedModel::load(path) {
            if m.config == config {
                return m;
            }
        }
        let m = train(config);
        // Cache failures are non-fatal.
        let _ = m.save(path);
        m
    }
}

/// Converts a clip into the encoder's input tensor, or `None` when the clip
/// cannot be featurized.
pub fn clip_features_tensor(clip: &Clip, steps: usize) -> Option<Tensor> {
    let f = extract_features(clip, steps).ok()?;
    Some(Tensor::from_vec(steps, TOKEN_DIM, f.data))
}

/// Trains an encoder from scratch on simulator-generated contrastive pairs.
pub fn train(config: TrainingConfig) -> TrainedModel {
    train_with_callback(config, |_, _| {})
}

/// Like [`train`], invoking `progress(step, loss)` after each step.
pub fn train_with_callback(
    config: TrainingConfig,
    progress: impl FnMut(usize, f32),
) -> TrainedModel {
    train_with_schedule(config, sketchql_nn::LrSchedule::Constant, progress)
}

/// Like [`train`] with a learning-rate schedule (warmup/cosine/step decay)
/// applied on top of the config's base learning rate.
pub fn train_with_schedule(
    config: TrainingConfig,
    schedule: sketchql_nn::LrSchedule,
    mut progress: impl FnMut(usize, f32),
) -> TrainedModel {
    assert_eq!(
        config.encoder.input_dim, TOKEN_DIM,
        "encoder input must match TOKEN_DIM"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut store = ParamStore::new();
    let encoder = TrajectoryEncoder::new(&mut store, &mut rng, "enc", config.encoder.clone());
    let mut adam = Adam::new(AdamConfig {
        lr: config.lr,
        ..Default::default()
    });
    let generator = PairGenerator::new(RandomSceneSampler::new(config.sampler), config.pairgen);
    let steps = config.encoder.steps;

    let _run_span = telemetry::span(names::TRAINING_RUN);
    // Per-step wall time, 1ms..10s.
    let step_ms = telemetry::histogram(
        names::TRAINING_STEP_MS,
        &[1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 10000.0],
    );

    let mut loss_history = Vec::with_capacity(config.steps);
    for step in 0..config.steps {
        let step_start = std::time::Instant::now();
        // Sample a batch of (anchor, positive) views, skipping the rare
        // degenerate pair the featurizer rejects.
        let mut anchors_t = Vec::with_capacity(config.batch_size);
        let mut positives_t = Vec::with_capacity(config.batch_size);
        while anchors_t.len() < config.batch_size {
            let pair = generator.sample_pair(&mut rng);
            let (Some(a), Some(p)) = (
                clip_features_tensor(&pair.anchor, steps),
                clip_features_tensor(&pair.positive, steps),
            ) else {
                continue;
            };
            anchors_t.push(a);
            positives_t.push(p);
            // Mirror hard negatives: the mirrored pair is a *different*
            // event (opposite chirality), entering the batch as its own
            // positive pair and everyone else's negative.
            if config.mirror_negatives && anchors_t.len() < config.batch_size {
                let ma = pair.anchor.mirrored_x();
                let mp = pair.positive.mirrored_x();
                if let (Some(a), Some(p)) = (
                    clip_features_tensor(&ma, steps),
                    clip_features_tensor(&mp, steps),
                ) {
                    anchors_t.push(a);
                    positives_t.push(p);
                }
            }
        }

        let mut g = Graph::new(&store);
        let mut anchor_ids = Vec::with_capacity(config.batch_size);
        let mut positive_ids = Vec::with_capacity(config.batch_size);
        for (a, p) in anchors_t.into_iter().zip(positives_t) {
            let ai = g.input(a);
            let pi = g.input(p);
            anchor_ids.push(encoder.forward(&mut g, ai));
            positive_ids.push(encoder.forward(&mut g, pi));
        }
        let loss = nt_xent(&mut g, &anchor_ids, &positive_ids, config.temperature);
        let loss_val = g.tape.value(loss).item();
        let grads = g.grads_by_name(loss);
        adam.step_scaled(&mut store, &grads, schedule.multiplier(step));
        loss_history.push(loss_val);

        step_ms.observe(step_start.elapsed().as_secs_f64() * 1e3);

        progress(step, loss_val);
    }

    TrainedModel {
        encoder,
        store,
        config,
        loss_history,
    }
}

/// Separation statistics of a model on freshly generated pairs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairEval {
    /// Mean cosine similarity of positive pairs.
    pub mean_positive: f32,
    /// Mean cosine similarity of negative (cross-event) pairs.
    pub mean_negative: f32,
    /// Fraction of anchors whose own positive outranks every negative
    /// (top-1 retrieval accuracy within the evaluation pool).
    pub top1_accuracy: f32,
}

/// Evaluates embedding quality on `n` held-out pairs generated from
/// `generator` with the given seed.
pub fn evaluate_pairs(
    model: &TrainedModel,
    generator: &PairGenerator,
    n: usize,
    seed: u64,
) -> PairEval {
    let mut rng = StdRng::seed_from_u64(seed);
    let steps = model.config.encoder.steps;
    let sim = model.similarity();
    let mut anchors = Vec::with_capacity(n);
    let mut positives = Vec::with_capacity(n);
    while anchors.len() < n {
        let pair = generator.sample_pair(&mut rng);
        let (Some(af), Some(pf)) = (
            clip_features_tensor(&pair.anchor, steps),
            clip_features_tensor(&pair.positive, steps),
        ) else {
            continue;
        };
        anchors.push(model.encoder.embed(&sim.store, &af));
        positives.push(model.encoder.embed(&sim.store, &pf));
    }

    let mut pos_sum = 0.0;
    let mut neg_sum = 0.0;
    let mut neg_count = 0usize;
    let mut top1 = 0usize;
    for i in 0..n {
        let pos_sim = sketchql_nn::cosine_similarity(&anchors[i], &positives[i]);
        pos_sum += pos_sim;
        let mut beaten = true;
        for j in 0..n {
            if i == j {
                continue;
            }
            let s = sketchql_nn::cosine_similarity(&anchors[i], &positives[j]);
            neg_sum += s;
            neg_count += 1;
            if s >= pos_sim {
                beaten = false;
            }
        }
        if beaten {
            top1 += 1;
        }
    }
    PairEval {
        mean_positive: pos_sum / n as f32,
        mean_negative: neg_sum / neg_count.max(1) as f32,
        top1_accuracy: top1 as f32 / n as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_reduces_loss() {
        let model = train(TrainingConfig::tiny());
        let head: f32 = model.loss_history[..5].iter().sum::<f32>() / 5.0;
        let tail: f32 = model.loss_history[model.loss_history.len() - 5..]
            .iter()
            .sum::<f32>()
            / 5.0;
        assert!(
            tail < head,
            "loss should decrease: first {head:.3} vs last {tail:.3}"
        );
        assert!(model.loss_history.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn trained_model_separates_pos_from_neg() {
        let model = train(TrainingConfig::tiny());
        let generator = PairGenerator::new(
            RandomSceneSampler::new(model.config.sampler),
            model.config.pairgen,
        );
        let eval = evaluate_pairs(&model, &generator, 12, 999);
        assert!(
            eval.mean_positive > eval.mean_negative,
            "positives should embed closer: {eval:?}"
        );
    }

    #[test]
    fn schedules_change_the_optimization_but_still_train() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 12;
        let plain = train(cfg.clone());
        let warm = train_with_schedule(
            cfg,
            sketchql_nn::LrSchedule::WarmupCosine {
                warmup: 4,
                total: 12,
                floor: 0.1,
            },
            |_, _| {},
        );
        // Identical data (same seed) but different update magnitudes.
        assert_eq!(
            plain.loss_history[0], warm.loss_history[0],
            "same first batch"
        );
        assert_ne!(plain.store, warm.store);
        assert!(warm.loss_history.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn training_is_deterministic() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 5;
        let a = train(cfg.clone());
        let b = train(cfg);
        assert_eq!(a.loss_history, b.loss_history);
        assert_eq!(a.store, b.store);
    }

    #[test]
    fn save_load_round_trip() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 3;
        let model = train(cfg);
        let dir = std::env::temp_dir().join("sketchql-test-model");
        let path = dir.join("model.json");
        model.save(&path).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(model.store, back.store);
        assert_eq!(model.config, back.config);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A model file is outside input: a weight whose data is shorter than
    /// its shape must fail the load, not reach the kernels.
    #[test]
    fn load_rejects_a_model_with_a_truncated_weight() {
        use serde::{Serialize, Value};
        fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
            let Value::Obj(fields) = v else {
                panic!("{key}: not an object");
            };
            let (_, value) = fields.iter_mut().find(|(k, _)| k == key).expect(key);
            value
        }
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 1;
        let model = train(cfg);
        let name = model.store.names().swap_remove(0);
        let mut tree = model.to_value();
        let weight = field(field(field(&mut tree, "store"), "params"), &name);
        let Value::Arr(data) = field(weight, "data") else {
            panic!("data: not an array");
        };
        data.pop();
        let dir = std::env::temp_dir().join(format!("sketchql-truncated-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        std::fs::write(&path, serde_json::to_string(&tree).unwrap()).unwrap();
        let err = TrainedModel::load(&path).expect_err("truncated weight");
        assert!(err.to_string().contains("tensor data holds"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_train_uses_cache() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 3;
        let dir = std::env::temp_dir().join(format!("sketchql-cache-{}", std::process::id()));
        let path = dir.join("m.json");
        let a = TrainedModel::load_or_train(&path, cfg.clone());
        assert!(path.exists());
        let b = TrainedModel::load_or_train(&path, cfg.clone());
        assert_eq!(a.store, b.store);
        // A different config must retrain, not reuse.
        let mut cfg2 = cfg;
        cfg2.seed += 1;
        let c = TrainedModel::load_or_train(&path, cfg2);
        assert_ne!(a.store, c.store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn embed_returns_unit_vector() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 2;
        let model = train(cfg);
        let q = sketchql_datasets::query_clip(sketchql_datasets::EventKind::LeftTurn);
        let e = model.embed(&q).unwrap();
        let norm: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-3);
    }
}
