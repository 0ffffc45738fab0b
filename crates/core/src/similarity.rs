//! Clip similarity functions: the learned encoder and classical baselines
//! behind one interface.
//!
//! The Matcher is generic over a [`Similarity`] so experiments can swap the
//! paper's learned similarity against DTW/Fréchet/etc. baselines without
//! touching the search loop. Queries are `prepare`d once (for the learned
//! similarity this embeds the query a single time) and scored against many
//! candidate windows.
//!
//! Embedding-based similarities additionally expose a *batched* candidate
//! path ([`Similarity::embed_candidates`] + [`Similarity::score_embeddings`])
//! so the Matcher can embed each distinct candidate segment once per
//! index and model ([`Similarity::embedding_identity`] keys the index's
//! window memo), push whole batches through the encoder in one forward,
//! and score a window's rows in one call.

use sketchql_nn::{cosine_scores, cosine_similarity, ParamStore, TrajectoryEncoder};
use sketchql_telemetry::{self as telemetry, names};
use sketchql_trajectory::{
    clip_distance, distance_to_similarity, extract_features, Clip, DistanceKind, FeatureError,
};
use std::fmt;
use std::sync::OnceLock;

/// Largest number of candidate clips stacked into one batched encoder
/// forward. Bounds peak memory of the stacked activation tensors.
const MAX_EMBED_BATCH: usize = 64;

/// Cached handle for the embedding counter: `embed_candidates` adds to
/// it once per batch, so the registry lookup is paid once per process
/// instead of per batch.
fn embeds_counter() -> &'static telemetry::Counter {
    static C: OnceLock<&'static telemetry::Counter> = OnceLock::new();
    C.get_or_init(|| telemetry::counter(names::EMBEDDINGS_COMPUTED))
}

/// Errors from preparing a query for similarity search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimilarityError {
    /// The query clip was rejected by the learned encoder's feature
    /// extractor (empty, or more objects than the encoder supports).
    /// Surfaced instead of silently scoring every candidate 0.0.
    QueryFeatures(FeatureError),
}

impl fmt::Display for SimilarityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimilarityError::QueryFeatures(e) => {
                write!(f, "query cannot be embedded: {e}")
            }
        }
    }
}

impl std::error::Error for SimilarityError {}

/// A prepared (pre-processed) query, produced by [`Similarity::prepare`].
#[derive(Debug, Clone)]
pub enum PreparedQuery {
    /// The query's embedding vector (learned similarity).
    Embedding(Vec<f32>),
    /// The raw query clip (classical distances re-align per candidate).
    Clip(Clip),
}

/// A similarity measure between a visual query and a candidate video clip.
/// Scores are in `[0, 1]`, higher = more similar.
pub trait Similarity: Send + Sync {
    /// Short name used in experiment tables.
    fn name(&self) -> String;

    /// Pre-processes the query once. Fails when the query itself cannot be
    /// scored by this similarity (e.g. the learned encoder rejects it); a
    /// failed prepare means *every* candidate would score 0.0, so callers
    /// surface the error instead of returning silently-empty results.
    fn prepare(&self, query: &Clip) -> Result<PreparedQuery, SimilarityError>;

    /// Scores a candidate clip against a prepared query.
    fn score(&self, prepared: &PreparedQuery, candidate: &Clip) -> f32;

    /// Convenience: prepare + score in one call (0.0 when prepare fails).
    fn score_pair(&self, query: &Clip, candidate: &Clip) -> f32 {
        match self.prepare(query) {
            Ok(p) => self.score(&p, candidate),
            Err(_) => 0.0,
        }
    }

    /// The identity under which candidate embeddings of this similarity
    /// may be remembered: two similarities that answer the same value
    /// must embed every clip to the same bits (for the learned
    /// similarity, the model fingerprint). `Some` means candidates are
    /// scored from embeddings via
    /// [`embed_candidates`](Self::embed_candidates) +
    /// [`score_embeddings`](Self::score_embeddings) and the index's
    /// window memo keeps them under this key; `None` (the default)
    /// means the Matcher scores every candidate directly with
    /// [`score`](Self::score).
    fn embedding_identity(&self) -> Option<u64> {
        None
    }

    /// Embeds a batch of candidate clips, one `Option` per input clip
    /// (`None` where the clip cannot be embedded). The default
    /// implementation embeds nothing.
    fn embed_candidates(&self, clips: &[Clip]) -> Vec<Option<Vec<f32>>> {
        clips.iter().map(|_| None).collect()
    }

    /// Scores a candidate from its precomputed embedding (`None` when the
    /// candidate could not be embedded). Must agree exactly with
    /// [`score`](Self::score) on the same candidate.
    fn score_embedding(&self, _prepared: &PreparedQuery, _embedding: Option<&[f32]>) -> f32 {
        0.0
    }

    /// Scores `scores.len()` precomputed embeddings of one width, laid
    /// back to back in `rows`: `scores[i]` is
    /// [`score_embedding`](Self::score_embedding) of row `i`, which stays
    /// the contract. The default makes exactly those calls; an override
    /// may only be faster.
    fn score_embeddings(&self, prepared: &PreparedQuery, rows: &[f32], scores: &mut [f32]) {
        let dim = rows.len() / scores.len().max(1);
        for (i, score) in scores.iter_mut().enumerate() {
            *score = self.score_embedding(prepared, Some(&rows[i * dim..][..dim]));
        }
    }
}

/// Extracts `clip`'s features and embeds them with `encoder` over the
/// weights in `store` — borrowed, so callers that own a model embed
/// without first cloning it into a [`LearnedSimilarity`].
pub(crate) fn embed_clip(
    encoder: &TrajectoryEncoder,
    store: &ParamStore,
    clip: &Clip,
) -> Result<Vec<f32>, FeatureError> {
    let steps = encoder.config.steps;
    let feats = extract_features(clip, steps)?;
    let t = sketchql_nn::Tensor::from_vec(steps, feats.data.len() / steps, feats.data);
    embeds_counter().inc();
    Ok(encoder.embed(store, &t))
}

/// The paper's learned similarity: transformer embeddings + cosine.
///
/// Immutable once built: [`model_fingerprint`](crate::model_fingerprint)
/// hashes `encoder` and `store` the first time it is asked and answers
/// from that value afterwards, so a changed weight needs a new
/// `LearnedSimilarity`.
pub struct LearnedSimilarity {
    /// The trained encoder (architecture + hyper-parameters).
    pub encoder: TrajectoryEncoder,
    /// The encoder's trained weights.
    pub store: ParamStore,
    /// The model fingerprint, once something asked for it. Lazy, so
    /// wrapping a model ([`TrainedModel::similarity`]) costs no weight
    /// hash unless a store is consulted.
    ///
    /// [`TrainedModel::similarity`]: crate::training::TrainedModel::similarity
    pub(crate) fingerprint: OnceLock<u64>,
}

impl LearnedSimilarity {
    /// Wraps a trained encoder.
    pub fn new(encoder: TrajectoryEncoder, store: ParamStore) -> Self {
        LearnedSimilarity {
            encoder,
            store,
            fingerprint: OnceLock::new(),
        }
    }

    /// Embeds a clip into the encoder's unit-norm embedding space, or the
    /// reason the feature extractor rejected it (empty clip, too many
    /// objects).
    pub fn try_embed(&self, clip: &Clip) -> Result<Vec<f32>, FeatureError> {
        embed_clip(&self.encoder, &self.store, clip)
    }

    /// Embeds a clip into the encoder's unit-norm embedding space.
    /// Returns `None` for clips the feature extractor rejects (empty or
    /// too many objects).
    pub fn embed(&self, clip: &Clip) -> Option<Vec<f32>> {
        self.try_embed(clip).ok()
    }
}

impl Similarity for LearnedSimilarity {
    fn name(&self) -> String {
        "sketchql".to_string()
    }

    fn prepare(&self, query: &Clip) -> Result<PreparedQuery, SimilarityError> {
        self.try_embed(query)
            .map(PreparedQuery::Embedding)
            .map_err(SimilarityError::QueryFeatures)
    }

    fn score(&self, prepared: &PreparedQuery, candidate: &Clip) -> f32 {
        let PreparedQuery::Embedding(qe) = prepared else {
            return 0.0;
        };
        match self.embed(candidate) {
            // Map cosine in [-1, 1] to [0, 1].
            Some(ce) => (cosine_similarity(qe, &ce) + 1.0) * 0.5,
            None => 0.0,
        }
    }

    fn embedding_identity(&self) -> Option<u64> {
        Some(crate::vstore::model_fingerprint(self))
    }

    fn embed_candidates(&self, clips: &[Clip]) -> Vec<Option<Vec<f32>>> {
        let steps = self.encoder.config.steps;
        let mut out: Vec<Option<Vec<f32>>> = vec![None; clips.len()];
        // Feature-extract everything first; rejected clips stay `None` and
        // are excluded from the batches.
        let feats: Vec<Option<sketchql_nn::Tensor>> = clips
            .iter()
            .map(|c| {
                extract_features(c, steps).ok().map(|f| {
                    let cols = f.data.len() / steps;
                    sketchql_nn::Tensor::from_vec(steps, cols, f.data)
                })
            })
            .collect();
        let embeddable: Vec<usize> = feats
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|_| i))
            .collect();
        for chunk in embeddable.chunks(MAX_EMBED_BATCH) {
            let refs: Vec<&sketchql_nn::Tensor> = chunk
                .iter()
                .map(|&i| feats[i].as_ref().expect("chunk holds embeddable indices"))
                .collect();
            let embeddings = self.encoder.embed_batch(&self.store, &refs);
            embeds_counter().add(refs.len() as u64);
            for (&i, e) in chunk.iter().zip(embeddings) {
                out[i] = Some(e);
            }
        }
        out
    }

    fn score_embedding(&self, prepared: &PreparedQuery, embedding: Option<&[f32]>) -> f32 {
        let PreparedQuery::Embedding(qe) = prepared else {
            return 0.0;
        };
        match embedding {
            Some(ce) => (cosine_similarity(qe, ce) + 1.0) * 0.5,
            None => 0.0,
        }
    }

    fn score_embeddings(&self, prepared: &PreparedQuery, rows: &[f32], scores: &mut [f32]) {
        match prepared {
            PreparedQuery::Embedding(qe) => cosine_scores(qe, rows, scores),
            PreparedQuery::Clip(_) => scores.fill(0.0),
        }
    }
}

/// A classical trajectory-distance baseline lifted to clip similarity.
pub struct ClassicalSimilarity {
    /// Which distance to apply.
    pub kind: DistanceKind,
    /// Scale applied to distances before converting to similarity; the
    /// canonical clips live in the unit square, so distances are O(0.1).
    pub distance_scale: f32,
}

impl ClassicalSimilarity {
    /// A baseline using `kind` with the default distance scale.
    pub fn new(kind: DistanceKind) -> Self {
        ClassicalSimilarity {
            kind,
            distance_scale: 8.0,
        }
    }
}

impl Similarity for ClassicalSimilarity {
    fn name(&self) -> String {
        self.kind.name().to_string()
    }

    fn prepare(&self, query: &Clip) -> Result<PreparedQuery, SimilarityError> {
        Ok(PreparedQuery::Clip(query.clone()))
    }

    fn score(&self, prepared: &PreparedQuery, candidate: &Clip) -> f32 {
        let PreparedQuery::Clip(q) = prepared else {
            return 0.0;
        };
        let d = clip_distance(self.kind, q, candidate);
        distance_to_similarity(d * self.distance_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sketchql_nn::EncoderConfig;
    use sketchql_trajectory::{BBox, ObjectClass, TrajPoint, Trajectory, TOKEN_DIM};

    fn clip_line(slope: f32) -> Clip {
        let t = Trajectory::from_points(
            1,
            ObjectClass::Car,
            (0..24)
                .map(|f| {
                    TrajPoint::new(
                        f,
                        BBox::new(f as f32 * 5.0, 200.0 + f as f32 * slope, 30.0, 20.0),
                    )
                })
                .collect(),
        );
        Clip::new(640.0, 480.0, vec![t])
    }

    fn untrained_learned() -> LearnedSimilarity {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = EncoderConfig {
            input_dim: TOKEN_DIM,
            steps: 16,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut rng, "enc", cfg);
        LearnedSimilarity::new(enc, store)
    }

    #[test]
    fn learned_scores_self_highest() {
        let sim = untrained_learned();
        let a = clip_line(0.0);
        let b = clip_line(8.0);
        let p = sim.prepare(&a).unwrap();
        let saa = sim.score(&p, &a);
        let sab = sim.score(&p, &b);
        assert!(
            (saa - 1.0).abs() < 1e-4,
            "self-similarity should be 1, got {saa}"
        );
        assert!(sab <= saa + 1e-5);
        assert!((0.0..=1.0).contains(&sab));
    }

    #[test]
    fn learned_handles_empty_candidate() {
        let sim = untrained_learned();
        let p = sim.prepare(&clip_line(0.0)).unwrap();
        let empty = Clip::new(10.0, 10.0, vec![]);
        assert_eq!(sim.score(&p, &empty), 0.0);
    }

    #[test]
    fn learned_prepare_rejects_unembeddable_queries() {
        let sim = untrained_learned();
        let empty = Clip::new(10.0, 10.0, vec![]);
        assert!(matches!(
            sim.prepare(&empty),
            Err(SimilarityError::QueryFeatures(FeatureError::EmptyClip)),
        ));
        let base = clip_line(0.0);
        let crowd = Clip::new(
            640.0,
            480.0,
            (0..5).map(|_| base.objects[0].clone()).collect(),
        );
        assert!(matches!(
            sim.prepare(&crowd),
            Err(SimilarityError::QueryFeatures(
                FeatureError::TooManyObjects { got: 5, .. }
            )),
        ));
    }

    #[test]
    fn embed_candidates_matches_scalar_embed() {
        let sim = untrained_learned();
        let clips = vec![
            clip_line(0.0),
            Clip::new(10.0, 10.0, vec![]), // rejected: stays None
            clip_line(4.0),
            clip_line(-2.0),
        ];
        let batched = sim.embed_candidates(&clips);
        assert_eq!(batched.len(), clips.len());
        assert!(batched[1].is_none());
        for (clip, emb) in clips.iter().zip(&batched) {
            assert_eq!(&sim.embed(clip), emb, "batched embedding must be exact");
        }
    }

    #[test]
    fn score_embedding_agrees_with_score() {
        let sim = untrained_learned();
        let query = clip_line(1.0);
        let p = sim.prepare(&query).unwrap();
        let candidates = vec![clip_line(0.0), clip_line(8.0), clip_line(-3.0)];
        let embeddings = sim.embed_candidates(&candidates);
        for (c, e) in candidates.iter().zip(&embeddings) {
            assert_eq!(sim.score(&p, c), sim.score_embedding(&p, e.as_deref()));
        }
        assert_eq!(sim.score_embedding(&p, None), 0.0);

        // The batched form, over enough rows to fill a lane block and
        // leave a tail, gives every row the per-row score.
        let rows: Vec<f32> = (0..11)
            .flat_map(|i| embeddings[i % 3].clone().unwrap())
            .collect();
        let mut scores = vec![f32::NAN; 11];
        sim.score_embeddings(&p, &rows, &mut scores);
        for (i, score) in scores.iter().enumerate() {
            let want = sim.score_embedding(&p, embeddings[i % 3].as_deref());
            assert_eq!(score.to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn classical_scores_self_as_one() {
        for &k in DistanceKind::ALL {
            let sim = ClassicalSimilarity::new(k);
            let a = clip_line(2.0);
            let s = sim.score_pair(&a, &a);
            assert!((s - 1.0).abs() < 1e-3, "{k:?} self-score {s}");
        }
    }

    #[test]
    fn classical_ranks_similar_above_dissimilar() {
        let sim = ClassicalSimilarity::new(DistanceKind::Dtw);
        let straight = clip_line(0.0);
        let nearly_straight = clip_line(0.3);
        let diagonal = clip_line(6.0);
        let p = sim.prepare(&straight).unwrap();
        assert!(sim.score(&p, &nearly_straight) > sim.score(&p, &diagonal));
    }

    #[test]
    fn arity_mismatch_scores_zero_for_classical() {
        let sim = ClassicalSimilarity::new(DistanceKind::Euclidean);
        let one = clip_line(0.0);
        let two = Clip::new(
            640.0,
            480.0,
            vec![one.objects[0].clone(), one.objects[0].clone()],
        );
        assert_eq!(sim.score_pair(&one, &two), 0.0);
    }

    #[test]
    fn names_are_distinct() {
        let mut names = std::collections::HashSet::new();
        names.insert(untrained_learned().name());
        for &k in DistanceKind::ALL {
            names.insert(ClassicalSimilarity::new(k).name());
        }
        assert_eq!(names.len(), DistanceKind::ALL.len() + 1);
    }
}
