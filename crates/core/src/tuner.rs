//! The Tuner: adapting the learned similarity with explicit user feedback
//! (§2.2, optional component).
//!
//! Two mechanisms, matching the paper's description of incorporating
//! "explicit user feedback when provided to improve the retrieval quality":
//!
//! * [`Reranker`] — a training-free prototype re-ranker: candidates near
//!   user-confirmed positives gain score, candidates near rejected clips
//!   lose score. Instant, reversible, no weight updates.
//! * [`fine_tune`] — triplet-loss fine-tuning of the encoder on
//!   (query, positive, negative) triplets built from the feedback, for
//!   queries where re-ranking is not enough.

use serde::{Deserialize, Serialize};
use sketchql_nn::{cosine_similarity, triplet, Adam, AdamConfig};
use sketchql_trajectory::Clip;

use crate::training::{clip_features_tensor, training_threads, StepBuffers, TrainedModel};

/// One piece of user feedback on a retrieved clip.
#[derive(Debug, Clone)]
pub struct Feedback {
    /// The retrieved candidate clip the user judged.
    pub clip: Clip,
    /// Whether the user marked it relevant.
    pub relevant: bool,
}

/// Tuner hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunerConfig {
    /// Triplet margin for fine-tuning.
    pub margin: f32,
    /// Fine-tuning learning rate (smaller than pretraining).
    pub lr: f32,
    /// Fine-tuning epochs over the feedback triplets.
    pub epochs: usize,
    /// Weight of the prototype terms in re-ranking.
    pub proto_weight: f32,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            margin: 0.2,
            lr: 2e-4,
            epochs: 12,
            proto_weight: 0.5,
        }
    }
}

/// A training-free feedback re-ranker over embedding space.
#[derive(Debug, Clone)]
pub struct Reranker {
    positives: Vec<Vec<f32>>,
    negatives: Vec<Vec<f32>>,
    weight: f32,
}

impl Reranker {
    /// Builds a re-ranker from feedback, embedding each judged clip with
    /// `model`. Clips the featurizer rejects are ignored.
    pub fn new(model: &TrainedModel, feedback: &[Feedback], config: &TunerConfig) -> Self {
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        for f in feedback {
            if let Some(e) = model.embed(&f.clip) {
                if f.relevant {
                    positives.push(e);
                } else {
                    negatives.push(e);
                }
            }
        }
        Reranker {
            positives,
            negatives,
            weight: config.proto_weight,
        }
    }

    /// Number of positive / negative prototypes held.
    pub fn prototype_counts(&self) -> (usize, usize) {
        (self.positives.len(), self.negatives.len())
    }

    /// Adjusts a base similarity score for a candidate embedding: pulled up
    /// by proximity to positive prototypes, pushed down by proximity to
    /// negative prototypes. Output is clamped to `[0, 1]`.
    pub fn adjust(&self, base_score: f32, candidate_embedding: &[f32]) -> f32 {
        let mean_sim = |protos: &[Vec<f32>]| -> f32 {
            if protos.is_empty() {
                return 0.0;
            }
            protos
                .iter()
                .map(|p| cosine_similarity(p, candidate_embedding))
                .sum::<f32>()
                / protos.len() as f32
        };
        let bonus = mean_sim(&self.positives);
        let penalty = mean_sim(&self.negatives);
        (base_score + self.weight * (bonus - penalty) * 0.5).clamp(0.0, 1.0)
    }
}

/// Fine-tunes the encoder with triplet loss on (query, positive, negative)
/// combinations from the feedback. Returns a new model; the input model is
/// untouched (so tuning is per-query and revertible, as in the paper's
/// design where the Tuner is optional).
///
/// If the feedback lacks positives or negatives, the model is returned
/// unchanged (no triplets can be formed).
pub fn fine_tune(
    model: &TrainedModel,
    query: &Clip,
    feedback: &[Feedback],
    config: &TunerConfig,
) -> TrainedModel {
    fine_tune_counted(model, query, feedback, config).0
}

/// [`fine_tune`], and how many feedback items it tuned on: the positives
/// and negatives whose clips featurize, or 0 when the model came back
/// unchanged.
pub(crate) fn fine_tune_counted(
    model: &TrainedModel,
    query: &Clip,
    feedback: &[Feedback],
    config: &TunerConfig,
) -> (TrainedModel, usize) {
    let steps = model.config.encoder.steps;
    let Some(query_t) = clip_features_tensor(query, steps) else {
        return (model.clone(), 0);
    };
    let pos_t: Vec<_> = feedback
        .iter()
        .filter(|f| f.relevant)
        .filter_map(|f| clip_features_tensor(&f.clip, steps))
        .collect();
    let neg_t: Vec<_> = feedback
        .iter()
        .filter(|f| !f.relevant)
        .filter_map(|f| clip_features_tensor(&f.clip, steps))
        .collect();
    if pos_t.is_empty() || neg_t.is_empty() {
        return (model.clone(), 0);
    }

    // One step's clips in forward order: the query, then each positive
    // followed by every negative, and the triplets over their positions.
    // A negative is embedded once per positive although its embedding is
    // the same each time: embedding it once would add its triplets'
    // gradients in another order and so tune different bits, which belongs
    // with the other results-changing decisions (ROADMAP item 4).
    let mut clips = vec![&query_t];
    let mut triplets = Vec::with_capacity(pos_t.len() * neg_t.len());
    for p in &pos_t {
        let positive = clips.len();
        clips.push(p);
        for n in &neg_t {
            triplets.push((0, positive, clips.len()));
            clips.push(n);
        }
    }

    let mut tuned = model.clone();
    let mut adam = Adam::new(AdamConfig {
        lr: config.lr,
        ..Default::default()
    });
    let threads = training_threads();
    let mut buffers = StepBuffers::default();
    for _ in 0..config.epochs {
        let (_, grads) = buffers.gradients(
            &tuned.encoder,
            &tuned.store,
            &clips,
            threads,
            |embeddings| triplet(embeddings, &triplets, config.margin),
        );
        adam.step(&mut tuned.store, &grads);
    }
    (tuned, pos_t.len() + neg_t.len())
}

/// One round of the interactive feedback loop.
#[derive(Debug, Clone)]
pub struct FeedbackRound {
    /// 1-based round number.
    pub round: usize,
    /// Number of newly labeled results this round.
    pub labeled: usize,
    /// How many of the labeled results were relevant.
    pub relevant: usize,
}

/// Runs the demo's implicit interaction loop programmatically: query →
/// user labels the top `k` unseen results → fine-tune → repeat.
///
/// `judge` plays the user: given a retrieved clip and its frame range it
/// returns whether the user would mark it relevant. Returns the per-round
/// summaries and leaves the session's model fine-tuned in place. Rounds where
/// no *new* results surface stop the loop early.
pub fn active_feedback_loop(
    session: &mut crate::session::SketchQL,
    dataset: &str,
    query: &Clip,
    rounds: usize,
    top_k: usize,
    config: &TunerConfig,
    mut judge: impl FnMut(&Clip, u32, u32) -> bool,
) -> Result<Vec<FeedbackRound>, crate::session::SessionError> {
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    let mut log = Vec::new();
    for round in 1..=rounds {
        let results = session.run_query(dataset, query)?;
        let mut feedback = Vec::new();
        for m in results.iter().take(top_k) {
            if !seen.insert((m.start, m.end)) {
                continue;
            }
            let clip = session.moment_clip(dataset, m)?;
            let relevant = judge(&clip, m.start, m.end);
            feedback.push(Feedback { clip, relevant });
        }
        if feedback.is_empty() {
            break;
        }
        let relevant = feedback.iter().filter(|f| f.relevant).count();
        log.push(FeedbackRound {
            round,
            labeled: feedback.len(),
            relevant,
        });
        session.apply_feedback(query, &feedback, config);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::{train, TrainingConfig};
    use sketchql_trajectory::{BBox, ObjectClass, TrajPoint, Trajectory};

    fn clip_with_slope(slope: f32) -> Clip {
        let t = Trajectory::from_points(
            1,
            ObjectClass::Car,
            (0..30)
                .map(|f| {
                    TrajPoint::new(
                        f,
                        BBox::new(f as f32 * 6.0, 300.0 + f as f32 * slope, 50.0, 30.0),
                    )
                })
                .collect(),
        );
        Clip::new(1280.0, 720.0, vec![t])
    }

    fn tiny_model() -> TrainedModel {
        let mut cfg = TrainingConfig::tiny();
        cfg.steps = 10;
        train(cfg)
    }

    #[test]
    fn reranker_boosts_near_positives() {
        let model = tiny_model();
        let cfg = TunerConfig::default();
        let pos = clip_with_slope(0.0);
        let neg = clip_with_slope(10.0);
        let feedback = vec![
            Feedback {
                clip: pos.clone(),
                relevant: true,
            },
            Feedback {
                clip: neg.clone(),
                relevant: false,
            },
        ];
        let rr = Reranker::new(&model, &feedback, &cfg);
        assert_eq!(rr.prototype_counts(), (1, 1));
        // A candidate identical to the positive prototype gains; one
        // identical to the negative loses.
        let e_pos = model.embed(&pos).unwrap();
        let e_neg = model.embed(&neg).unwrap();
        let up = rr.adjust(0.5, &e_pos);
        let down = rr.adjust(0.5, &e_neg);
        assert!(
            up > down,
            "positive-like {up} should beat negative-like {down}"
        );
    }

    #[test]
    fn reranker_clamps_scores() {
        let model = tiny_model();
        let cfg = TunerConfig {
            proto_weight: 10.0,
            ..Default::default()
        };
        let pos = clip_with_slope(0.0);
        let feedback = vec![Feedback {
            clip: pos.clone(),
            relevant: true,
        }];
        let rr = Reranker::new(&model, &feedback, &cfg);
        let e = model.embed(&pos).unwrap();
        let s = rr.adjust(0.9, &e);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn reranker_without_feedback_is_identity() {
        let model = tiny_model();
        let rr = Reranker::new(&model, &[], &TunerConfig::default());
        let e = model.embed(&clip_with_slope(1.0)).unwrap();
        assert_eq!(rr.adjust(0.42, &e), 0.42);
    }

    /// With unit embeddings and `score = (cos + 1) / 2`, the re-ranker is
    /// one shifted query vector (Rocchio): `adjust(score, c)` equals
    /// `clamp(1/2 + 1/2 · dot(c, q + w·(mean⁺ − mean⁻)))`.
    #[test]
    fn reranker_is_rocchio_on_unit_embeddings() {
        use crate::similarity::Similarity;
        let model = tiny_model();
        let cfg = TunerConfig::default();
        let judged = [
            (0.0, true),
            (2.0, true),
            (4.0, true),
            (10.0, false),
            (-6.0, false),
        ];
        let feedback: Vec<Feedback> = judged
            .iter()
            .map(|&(slope, relevant)| Feedback {
                clip: clip_with_slope(slope),
                relevant,
            })
            .collect();
        let rr = Reranker::new(&model, &feedback, &cfg);
        assert_eq!(rr.prototype_counts(), (3, 2));

        let embed = |slope: f32| model.embed(&clip_with_slope(slope)).unwrap();
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        let mean = |relevant: bool| {
            let picked: Vec<Vec<f32>> = judged
                .iter()
                .filter(|j| j.1 == relevant)
                .map(|j| embed(j.0))
                .collect();
            let n = picked.len() as f32;
            (0..picked[0].len())
                .map(|i| picked.iter().map(|e| e[i]).sum::<f32>() / n)
                .collect::<Vec<f32>>()
        };
        let (pos, neg) = (mean(true), mean(false));
        let q = embed(1.0);
        let shifted: Vec<f32> = (0..q.len())
            .map(|i| q[i] + cfg.proto_weight * (pos[i] - neg[i]))
            .collect();

        let sim = model.similarity();
        let prepared = sim.prepare(&clip_with_slope(1.0)).unwrap();
        for slope in [-3.0, 0.5, 5.0, 12.0] {
            let c = embed(slope);
            for v in [&q, &c] {
                assert!((dot(v, v) - 1.0).abs() < 1e-5, "not a unit embedding");
            }
            let score = sim.score(&prepared, &clip_with_slope(slope));
            let rocchio = (0.5 + 0.5 * dot(&c, &shifted)).clamp(0.0, 1.0);
            let adjusted = rr.adjust(score, &c);
            assert!(
                (adjusted - rocchio).abs() < 1e-5,
                "slope {slope}: adjust {adjusted} vs Rocchio {rocchio}"
            );
        }
    }

    #[test]
    fn fine_tune_moves_positive_closer_than_negative() {
        let model = tiny_model();
        let query = clip_with_slope(0.2);
        let pos = clip_with_slope(0.0);
        let neg = clip_with_slope(12.0);
        let feedback = vec![
            Feedback {
                clip: pos.clone(),
                relevant: true,
            },
            Feedback {
                clip: neg.clone(),
                relevant: false,
            },
        ];
        let cfg = TunerConfig {
            epochs: 25,
            lr: 1e-3,
            ..Default::default()
        };
        let tuned = fine_tune(&model, &query, &feedback, &cfg);

        let sim = |m: &TrainedModel, a: &Clip, b: &Clip| {
            cosine_similarity(&m.embed(a).unwrap(), &m.embed(b).unwrap())
        };
        let before_gap = sim(&model, &query, &pos) - sim(&model, &query, &neg);
        let after_gap = sim(&tuned, &query, &pos) - sim(&tuned, &query, &neg);
        assert!(
            after_gap > before_gap,
            "tuning should widen the pos/neg gap: {before_gap:.3} -> {after_gap:.3}"
        );
    }

    #[test]
    fn fine_tune_without_usable_feedback_is_noop() {
        let model = tiny_model();
        let query = clip_with_slope(0.0);
        let only_pos = vec![Feedback {
            clip: clip_with_slope(0.1),
            relevant: true,
        }];
        let tuned = fine_tune(&model, &query, &only_pos, &TunerConfig::default());
        assert_eq!(tuned.store, model.store);
    }

    #[test]
    fn active_loop_labels_fresh_results_each_round() {
        use rand::SeedableRng;
        let model = tiny_model();
        let mut sq = crate::session::SketchQL::new(model);
        let video = sketchql_datasets::generate_video(
            sketchql_datasets::VideoConfig {
                family: sketchql_datasets::SceneFamily::UrbanIntersection,
                events_per_kind: 1,
                distractors: 2,
                fps: 30.0,
            },
            321,
            &mut rand::rngs::StdRng::seed_from_u64(321),
        );
        sq.upload_index("v", crate::index::VideoIndex::from_truth(&video));
        let query = sketchql_datasets::query_clip(sketchql_datasets::EventKind::LeftTurn);
        let truth = video.events_of(sketchql_datasets::EventKind::LeftTurn);
        let cfg = TunerConfig {
            epochs: 1,
            ..Default::default()
        };
        let rounds = active_feedback_loop(&mut sq, "v", &query, 3, 4, &cfg, |_, s, e| {
            truth.iter().any(|t| t.temporal_iou(s, e) >= 0.3)
        })
        .unwrap();
        assert!(!rounds.is_empty());
        assert_eq!(rounds[0].round, 1);
        assert!(rounds[0].labeled <= 4);
        // No (start,end) pair is labeled twice across rounds: total labels
        // grow round over round only with fresh results.
        let total: usize = rounds.iter().map(|r| r.labeled).sum();
        assert!(total >= rounds[0].labeled);
    }

    #[test]
    fn fine_tune_does_not_mutate_original() {
        let model = tiny_model();
        let snapshot = model.store.clone();
        let query = clip_with_slope(0.0);
        let feedback = vec![
            Feedback {
                clip: clip_with_slope(0.1),
                relevant: true,
            },
            Feedback {
                clip: clip_with_slope(8.0),
                relevant: false,
            },
        ];
        let _ = fine_tune(&model, &query, &feedback, &TunerConfig::default());
        assert_eq!(model.store, snapshot);
    }
}
