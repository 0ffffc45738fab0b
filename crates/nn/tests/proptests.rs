//! Property-based tests for tensor algebra, the row kernels, the losses
//! and the encoder.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sketchql_nn::{
    cosine_similarity, kernels, triplet, EncoderConfig, ParamStore, Tensor, TrajectoryEncoder,
};

/// A two-layer encoder over `6 x 8` features, weights drawn from `seed`.
fn small_encoder(seed: u64) -> (TrajectoryEncoder, ParamStore) {
    let mut store = ParamStore::new();
    let cfg = EncoderConfig {
        input_dim: 8,
        d_model: 8,
        heads: 2,
        layers: 2,
        ff_hidden: 16,
        embed_dim: 4,
        steps: 6,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let enc = TrajectoryEncoder::new(&mut store, &mut rng, "enc", cfg);
    (enc, store)
}

fn arb_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

proptest! {
    #[test]
    fn matmul_is_associative(
        a in arb_tensor(3, 4),
        b in arb_tensor(4, 2),
        c in arb_tensor(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data.iter().zip(&right.data) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in arb_tensor(3, 4),
        b in arb_tensor(4, 2),
        c in arb_tensor(4, 2),
    ) {
        let mut sum = b.clone();
        sum.add_scaled(&c, 1.0);
        let left = a.matmul(&sum);
        let mut right = a.matmul(&b);
        right.add_scaled(&a.matmul(&c), 1.0);
        for (x, y) in left.data.iter().zip(&right.data) {
            prop_assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn transpose_is_involution(a in arb_tensor(5, 3)) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn transpose_respects_matmul(a in arb_tensor(3, 4), b in arb_tensor(4, 2)) {
        // (AB)^T = B^T A^T
        let left = a.matmul(&b).transposed();
        let right = b.transposed().matmul(&a.transposed());
        for (x, y) in left.data.iter().zip(&right.data) {
            prop_assert!((x - y).abs() < 1e-4 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn softmax_rows_are_distributions(a in arb_tensor(4, 6)) {
        let mut v = a;
        for r in 0..v.rows {
            kernels::softmax_row(v.row_mut(r));
            let row = v.row(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in arb_tensor(2, 5), shift in -5.0f32..5.0) {
        let (mut s1, mut s2) = (a.clone(), a.map(|v| v + shift));
        for r in 0..a.rows {
            kernels::softmax_row(s1.row_mut(r));
            kernels::softmax_row(s2.row_mut(r));
        }
        for (p, q) in s1.data.iter().zip(&s2.data) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    #[test]
    fn layer_norm_standardizes_rows(a in arb_tensor(3, 8)) {
        let mut v = a;
        for r in 0..v.rows {
            kernels::layer_norm_row(v.row_mut(r), &[1.0; 8], &[0.0; 8], 1e-5);
            let row = v.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
            // Rows with (near-)constant input normalize to ~0 variance.
            prop_assert!(var < 1.1, "var {var}");
        }
    }

    /// The encoder's last step, L2 normalization, makes every embedding a
    /// unit row.
    #[test]
    fn l2_normalize_yields_unit_rows(
        seed in 0u64..1000,
        batch in prop::collection::vec(prop::collection::vec(-3.0f32..3.0, 6 * 8), 1..6),
    ) {
        let (enc, store) = small_encoder(seed);
        let feats: Vec<Tensor> = batch
            .into_iter()
            .map(|data| Tensor::from_vec(6, 8, data))
            .collect();
        let refs: Vec<&Tensor> = feats.iter().collect();
        for e in enc.embed_batch(&store, &refs) {
            let norm: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
        }
    }

    #[test]
    fn cosine_similarity_bounded(
        a in prop::collection::vec(-5.0f32..5.0, 8),
        b in prop::collection::vec(-5.0f32..5.0, 8),
    ) {
        let s = cosine_similarity(&a, &b);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&s));
        let r = cosine_similarity(&b, &a);
        prop_assert!((s - r).abs() < 1e-5);
    }

    /// With its hinge active, one triplet's loss is linear in the anchor,
    /// `margin - a·pos + a·neg`: the anchor's gradient is `neg - pos`
    /// exactly.
    #[test]
    fn gradient_of_linear_functional_is_weights(
        a in arb_tensor(1, 6),
        pos in arb_tensor(1, 6),
        neg in arb_tensor(1, 6),
    ) {
        let e = [a, pos.clone(), neg.clone()];
        let (loss, grads) = triplet(&e, &[(0, 1, 2)], 1000.0);
        prop_assert!(loss > 0.0);
        let ga = grads[0].as_ref().unwrap();
        for ((g, n), p) in ga.data.iter().zip(&neg.data).zip(&pos.data) {
            prop_assert_eq!(*g, n - p);
        }
    }

    #[test]
    fn embed_batch_is_bit_identical_to_embed(
        seed in 0u64..1000,
        batch in prop::collection::vec(prop::collection::vec(-3.0f32..3.0, 6 * 8), 1..6),
    ) {
        // The matcher's per-search embedding cache scores candidates from
        // batched embeddings and promises byte-identical search results,
        // so the equivalence must be exact, not approximate.
        let (enc, store) = small_encoder(seed);
        let feats: Vec<Tensor> = batch
            .into_iter()
            .map(|data| Tensor::from_vec(6, 8, data))
            .collect();
        let refs: Vec<&Tensor> = feats.iter().collect();
        let batched = enc.embed_batch(&store, &refs);
        prop_assert_eq!(batched.len(), feats.len());
        // Against `embed` (the batch of one): a row does not depend on
        // its batch-mates.
        for (f, b) in feats.iter().zip(&batched) {
            prop_assert_eq!(&enc.embed(&store, f), b);
        }
    }
}
