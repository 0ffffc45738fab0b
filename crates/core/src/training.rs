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
    nt_xent, Adam, AdamConfig, EncoderConfig, Graph, NodeId, ParamStore, Tensor, TrajectoryEncoder,
};
use sketchql_simulator::{PairGenConfig, PairGenerator, RandomSceneSampler, SamplerConfig};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{extract_features, Clip, TOKEN_DIM};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
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

/// Version of everything that shapes a model besides its
/// [`TrainingConfig`]: **bump when the sampler, pair generator or features
/// change** (`simulator/sampler.rs`, `simulator/pairs.rs`,
/// `trajectory/features.rs`, the batch assembly below), i.e. whenever the
/// same config would now train different weights. It is stored in every
/// model file, and [`TrainedModel::load_or_train`] retrains a cached model
/// whose version differs, so an edit to the recipe is never evaluated on
/// weights from before it.
pub const RECIPE_VERSION: u32 = 1;

/// A trained encoder: architecture + weights + training record.
#[derive(Debug, Clone, Serialize)]
pub struct TrainedModel {
    /// The encoder (architecture and parameter names).
    pub encoder: TrajectoryEncoder,
    /// Trained weights.
    pub store: ParamStore,
    /// The configuration it was trained with.
    pub config: TrainingConfig,
    /// Per-step training loss.
    pub loss_history: Vec<f32>,
    /// The [`RECIPE_VERSION`] it was trained under (0 in a model file
    /// from before the field existed).
    pub recipe_version: u32,
}

/// Hand-written because the vendored derive has no field defaults: a
/// model file without `recipe_version` is still a model (`query --model`
/// serves it), just never a current cache entry.
impl Deserialize for TrainedModel {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        use serde::__private::{as_obj, obj_get};
        let fields = as_obj(v, "struct TrainedModel")?;
        Ok(TrainedModel {
            encoder: Deserialize::from_value(obj_get(fields, "encoder")?)?,
            store: Deserialize::from_value(obj_get(fields, "store")?)?,
            config: Deserialize::from_value(obj_get(fields, "config")?)?,
            loss_history: Deserialize::from_value(obj_get(fields, "loss_history")?)?,
            recipe_version: match obj_get(fields, "recipe_version") {
                Ok(version) => Deserialize::from_value(version)?,
                Err(_) => 0,
            },
        })
    }
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

    /// Loads a cached model if `path` exists and was trained with this
    /// `config` under the current [`RECIPE_VERSION`]; otherwise trains and
    /// caches. (A run that diverges panics in [`train`], so a non-finite
    /// model is never cached.)
    pub fn load_or_train(path: &Path, config: TrainingConfig) -> Self {
        if let Ok(m) = TrainedModel::load(path) {
            if m.config == config && m.recipe_version == RECIPE_VERSION {
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
///
/// # Panics
/// If the loss stops being finite (see [`train_with_schedule`]).
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
/// applied on top of the config's base learning rate. Each step's clips
/// are differentiated on every core ([`training_threads`]); the model is
/// the same bits at any core count.
///
/// # Panics
/// If a step's loss is not finite — the run has diverged (a learning rate
/// too high for the recipe), every later step would train on NaN, and the
/// result must never reach a cache. The message names the step.
pub fn train_with_schedule(
    config: TrainingConfig,
    schedule: sketchql_nn::LrSchedule,
    progress: impl FnMut(usize, f32),
) -> TrainedModel {
    train_on(config, schedule, training_threads(), progress)
}

/// The worker threads training and fine-tuning fan a step out to: one per
/// core. Not a setting — the trained bits do not depend on it.
pub fn training_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The training loop, on `threads` worker threads.
fn train_on(
    config: TrainingConfig,
    schedule: sketchql_nn::LrSchedule,
    threads: usize,
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

    let mut loss_history = Vec::with_capacity(config.steps);
    for step in 0..config.steps {
        // Sample a batch of (anchor, positive) views, skipping the rare
        // degenerate pair the featurizer rejects. Clip `2i` is pair `i`'s
        // anchor and clip `2i + 1` its positive.
        let mut clips = Vec::with_capacity(2 * config.batch_size);
        while clips.len() < 2 * config.batch_size {
            let pair = generator.sample_pair(&mut rng);
            let (Some(a), Some(p)) = (
                clip_features_tensor(&pair.anchor, steps),
                clip_features_tensor(&pair.positive, steps),
            ) else {
                continue;
            };
            clips.extend([a, p]);
            // Mirror hard negatives: the mirrored pair is a *different*
            // event (opposite chirality), entering the batch as its own
            // positive pair and everyone else's negative.
            if config.mirror_negatives && clips.len() < 2 * config.batch_size {
                let ma = pair.anchor.mirrored_x();
                let mp = pair.positive.mirrored_x();
                if let (Some(a), Some(p)) = (
                    clip_features_tensor(&ma, steps),
                    clip_features_tensor(&mp, steps),
                ) {
                    clips.extend([a, p]);
                }
            }
        }

        let clips: Vec<&Tensor> = clips.iter().collect();
        let (loss, grads) = step_gradients(&encoder, &store, &clips, threads, |g, embeddings| {
            pair_loss(g, embeddings, config.temperature)
        });
        assert!(
            loss.is_finite(),
            "training diverged at step {step}: the loss is {loss}"
        );
        adam.step_scaled(&mut store, &grads, schedule.multiplier(step));
        loss_history.push(loss);
        progress(step, loss);
    }

    TrainedModel {
        encoder,
        store,
        config,
        loss_history,
        recipe_version: RECIPE_VERSION,
    }
}

/// NT-Xent over a batch laid out anchor, positive, anchor, positive, ...
fn pair_loss(g: &mut Graph<'_>, embeddings: &[NodeId], temperature: f32) -> NodeId {
    let anchors: Vec<NodeId> = embeddings.iter().copied().step_by(2).collect();
    let positives: Vec<NodeId> = embeddings.iter().copied().skip(1).step_by(2).collect();
    nt_xent(g, &anchors, &positives, temperature)
}

/// The loss of one optimisation step and its gradient per parameter name:
/// `loss` over the encoder's embeddings of `clips`.
///
/// Clip `i`'s sub-graph shares nothing with clip `j`'s but the weights, so
/// the step is cut at the embeddings, and every part runs per clip on
/// `threads` workers:
///
/// 1. the embeddings come from the inference path ([`TrajectoryEncoder::embed`],
///    bit-identical to the tape forward at a fraction of its cost);
/// 2. `loss` is built over one differentiable leaf per embedding, in clip
///    order, and its backward yields the loss value and `dL/d embedding`;
/// 3. each clip gets a small tape of its own (weights borrowed), run
///    forward and at once backward from its embedding, seeded with that
///    gradient, then dropped — a step holds `threads` tapes, warm in
///    cache, never the 48 of the batch;
/// 4. the per-clip parameter gradients are folded **last clip first**.
///
/// That order is the point. Every weight is used exactly once per clip, so
/// one graph over the whole batch — what a step used to be, and what the
/// tests still referee against — walked in reverse accumulates each
/// parameter's gradient as `((g[n-1] + g[n-2]) + ...) + g[0]`, one addend
/// per clip in reverse forward order. Reproducing exactly that sum makes
/// the result bit-identical to the single graph's, whatever `threads` is.
pub(crate) fn step_gradients(
    encoder: &TrajectoryEncoder,
    store: &ParamStore,
    clips: &[&Tensor],
    threads: usize,
    loss: impl FnOnce(&mut Graph<'_>, &[NodeId]) -> NodeId,
) -> (f32, HashMap<String, Tensor>) {
    let embeddings = crate::fan_out(clips, threads, |piece| {
        let embed = |features| encoder.embed(store, features);
        piece.iter().copied().map(embed).collect::<Vec<_>>()
    });

    // The loss graph binds no parameter; the store is there for the type.
    let mut head = Graph::new(store);
    let leaves: Vec<NodeId> = embeddings
        .into_iter()
        .flatten()
        .map(|e| head.tape.leaf(Tensor::from_vec(1, e.len(), e)))
        .collect();
    let loss = loss(&mut head, &leaves);
    let loss_value = head.tape.value(loss).item();
    let mut seeds = head.tape.backward(loss);

    // A clip whose embedding the loss never read has no gradient to add,
    // as its nodes had none in the single graph.
    let seeded: Vec<_> = clips
        .iter()
        .zip(leaves)
        .map(|(&features, leaf)| (features, seeds.take(leaf)))
        .collect();
    let per_clip = crate::fan_out(&seeded, threads, |piece| {
        let backward = |(features, seed): &(&Tensor, Option<Tensor>)| {
            let seed = seed.clone()?;
            let mut g = Graph::new(store);
            let input = g.input((*features).clone());
            let embedding = encoder.forward(&mut g, input);
            Some(g.grads_by_name_from(embedding, seed))
        };
        piece.iter().map(backward).collect::<Vec<_>>()
    });

    let mut grads: HashMap<String, Tensor> = HashMap::new();
    for clip_grads in per_clip.into_iter().flatten().rev().flatten() {
        for (name, g) in clip_grads {
            match grads.entry(name) {
                Entry::Occupied(mut sum) => sum.get_mut().add_scaled(&g, 1.0),
                Entry::Vacant(slot) => {
                    slot.insert(g);
                }
            }
        }
    }
    (loss_value, grads)
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
#[path = "../../../tests/support/mutants.rs"]
mod mutants;

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

    /// A seed is a model: run to run, and at any thread count — with
    /// clip counts that split evenly, raggedly, into more pieces than a
    /// piece holds, or not at all.
    #[test]
    fn training_is_deterministic() {
        for batch_size in [8, 5] {
            let mut cfg = TrainingConfig::tiny();
            cfg.steps = 5;
            cfg.batch_size = batch_size;
            let constant = sketchql_nn::LrSchedule::Constant;
            let a = train_on(cfg.clone(), constant, 1, |_, _| {});
            let again = train(cfg.clone());
            assert_eq!(a.loss_history, again.loss_history);
            assert_eq!(a.store, again.store);
            for threads in [2, 3, 7] {
                let b = train_on(cfg.clone(), constant, threads, |_, _| {});
                assert_eq!(a.loss_history, b.loss_history, "{threads} threads");
                assert_eq!(a.store, b.store, "{threads} threads");
            }
        }
    }

    /// `n` pairs of the default recipe's training clips, featurized, in
    /// batch order (anchor, positive, anchor, ...).
    fn sample_clips(config: &TrainingConfig, pairs: usize) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(5);
        let generator = PairGenerator::new(RandomSceneSampler::new(config.sampler), config.pairgen);
        let mut clips = Vec::new();
        while clips.len() < 2 * pairs {
            let pair = generator.sample_pair(&mut rng);
            if let (Some(a), Some(p)) = (
                clip_features_tensor(&pair.anchor, config.encoder.steps),
                clip_features_tensor(&pair.positive, config.encoder.steps),
            ) {
                clips.extend([a, p]);
            }
        }
        clips
    }

    /// Loss and every gradient tensor, bit for bit.
    #[track_caller]
    fn assert_same_bits(
        got: &(f32, HashMap<String, Tensor>),
        want: &(f32, HashMap<String, Tensor>),
        what: &str,
    ) {
        assert_eq!(got.0.to_bits(), want.0.to_bits(), "{what}: loss");
        assert_eq!(got.1.len(), want.1.len(), "{what}: parameters");
        for (name, w) in &want.1 {
            let g = &got.1[name];
            assert_eq!((g.rows, g.cols), (w.rows, w.cols), "{what}: {name}");
            let bits = |t: &Tensor| t.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}: {name}");
        }
    }

    /// The referee: one graph over the whole batch, as a step used to be.
    fn single_graph_gradients(
        encoder: &TrajectoryEncoder,
        store: &ParamStore,
        clips: &[&Tensor],
        loss: impl FnOnce(&mut Graph<'_>, &[NodeId]) -> NodeId,
    ) -> (f32, HashMap<String, Tensor>) {
        let mut g = Graph::new(store);
        let embeddings: Vec<NodeId> = clips
            .iter()
            .map(|&features| {
                let input = g.input(features.clone());
                encoder.forward(&mut g, input)
            })
            .collect();
        let loss = loss(&mut g, &embeddings);
        (g.tape.value(loss).item(), g.grads_by_name(loss))
    }

    /// The step's contract: per-clip tapes, folded last clip first, are
    /// the single graph — loss and every gradient tensor bit for bit —
    /// for both objectives (in the Tuner's, embeddings are read by several
    /// triplets and one clip appears twice) and any thread count.
    #[test]
    fn folded_per_clip_gradients_are_the_single_graphs() {
        let config = TrainingConfig::default();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let encoder = TrajectoryEncoder::new(&mut store, &mut rng, "enc", config.encoder.clone());
        let owned = sample_clips(&config, 6);
        let mut clips: Vec<&Tensor> = owned.iter().collect();

        let contrastive = |g: &mut Graph<'_>, e: &[NodeId]| pair_loss(g, e, config.temperature);
        let want = single_graph_gradients(&encoder, &store, &clips, contrastive);
        assert_eq!(want.1.len(), store.names().len(), "every parameter trained");
        for threads in [1, 2, 3, 7] {
            let got = step_gradients(&encoder, &store, &clips, threads, contrastive);
            assert_same_bits(&got, &want, &format!("nt_xent, {threads} threads"));
        }

        // Query 0, positives 1 and 4, negatives 2/3 embedded once per
        // positive — and a last clip no triplet reads.
        clips.truncate(8);
        (clips[5], clips[6]) = (clips[2], clips[3]);
        let feedback = |g: &mut Graph<'_>, e: &[NodeId]| {
            let at = |q: usize, p: usize, n: usize| (e[q], e[p], e[n]);
            let triplets = [at(0, 1, 2), at(0, 1, 3), at(0, 4, 5), at(0, 4, 6)];
            sketchql_nn::triplet(g, &triplets, 0.9)
        };
        let want = single_graph_gradients(&encoder, &store, &clips, feedback);
        assert!(want.0 > 0.0, "an active hinge, or the gradients are zero");
        for threads in [1, 2, 3] {
            let got = step_gradients(&encoder, &store, &clips, threads, feedback);
            assert_same_bits(&got, &want, &format!("triplet, {threads} threads"));
        }
    }

    /// A diverged run fails at the step that shows it, in any build, and
    /// nothing of it reaches the model cache.
    #[test]
    fn a_non_finite_loss_fails_the_step_and_is_never_cached() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 3;
        cfg.lr = f32::INFINITY;
        let dir = std::env::temp_dir().join(format!("sketchql-diverged-{}", std::process::id()));
        let path = dir.join("m.json");
        let panic = std::panic::catch_unwind(|| TrainedModel::load_or_train(&path, cfg))
            .expect_err("an infinite learning rate diverges");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("training diverged at step 1"), "{message}");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
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

    /// The cache key is config + recipe version: a cached model from
    /// another `RECIPE_VERSION` — or from before model files carried one —
    /// is retrained, not served, though its config is equal.
    #[test]
    fn load_or_train_retrains_a_model_from_another_recipe_version() {
        use serde::{Serialize, Value};
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 2;
        let fresh = train(cfg.clone());
        assert_eq!(fresh.recipe_version, RECIPE_VERSION);
        // Recognisably not what training yields.
        let mut stale = fresh.clone();
        stale.loss_history.clear();
        let dir = std::env::temp_dir().join(format!("sketchql-recipe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.json");

        // Control: under the current version the file is a cache hit.
        stale.save(&path).unwrap();
        let hit = TrainedModel::load_or_train(&path, cfg.clone());
        assert!(hit.loss_history.is_empty());

        stale.recipe_version = RECIPE_VERSION + 1;
        stale.save(&path).unwrap();
        let retrained = TrainedModel::load_or_train(&path, cfg.clone());
        assert_eq!(retrained.loss_history, fresh.loss_history);
        assert_eq!(retrained.store, fresh.store);
        assert_eq!(
            TrainedModel::load(&path).unwrap().recipe_version,
            RECIPE_VERSION,
            "the retrained model replaced the stale file"
        );

        // A file with no version still loads as a model, and is stale.
        let Value::Obj(mut fields) = stale.to_value() else {
            panic!("a model serialises as an object");
        };
        fields.retain(|(key, _)| key != "recipe_version");
        std::fs::write(&path, serde_json::to_string(&Value::Obj(fields)).unwrap()).unwrap();
        assert_eq!(TrainedModel::load(&path).unwrap().recipe_version, 0);
        let retrained = TrainedModel::load_or_train(&path, cfg);
        assert_eq!(retrained.loss_history, fresh.loss_history);
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

    /// Hostile model files never panic the loader: a
    /// `TrainingConfig::tiny()` model file cut at every byte, then 2 000
    /// seeded mutants, each decoded to `Ok` or `Err`.
    #[test]
    fn damaged_model_file_is_an_error_not_a_panic() {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 1;
        let golden = serde_json::to_string(&train(cfg)).unwrap();
        super::mutants::never_panics(golden.as_bytes(), 2_000, 0x30de1, |bytes| {
            let _ = serde_json::from_str::<TrainedModel>(&String::from_utf8_lossy(bytes));
        });
    }
}
