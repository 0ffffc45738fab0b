//! Property-based tests for tensor algebra and autograd invariants.

use proptest::prelude::*;
use sketchql_nn::{cosine_similarity, Graph, ParamStore, Tape, Tensor};

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
        let mut tape = Tape::new();
        let x = tape.leaf(a);
        let s = tape.softmax_rows(x);
        let v = tape.value(s);
        for r in 0..v.rows {
            let row = v.row(r);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in arb_tensor(2, 5), shift in -5.0f32..5.0) {
        let mut t1 = Tape::new();
        let x1 = t1.leaf(a.clone());
        let s1 = t1.softmax_rows(x1);
        let mut t2 = Tape::new();
        let x2 = t2.leaf(a.map(|v| v + shift));
        let s2 = t2.softmax_rows(x2);
        for (p, q) in t1.value(s1).data.iter().zip(&t2.value(s2).data) {
            prop_assert!((p - q).abs() < 1e-4);
        }
    }

    #[test]
    fn layer_norm_standardizes_rows(a in arb_tensor(3, 8)) {
        let mut tape = Tape::new();
        let x = tape.leaf(a);
        let gamma = tape.leaf(Tensor::ones(1, 8));
        let beta = tape.leaf(Tensor::zeros(1, 8));
        let ln = tape.layer_norm_rows(x, gamma, beta);
        let v = tape.value(ln);
        for r in 0..v.rows {
            let row = v.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "mean {mean}");
            // Rows with (near-)constant input normalize to ~0 variance.
            prop_assert!(var < 1.1, "var {var}");
        }
    }

    #[test]
    fn l2_normalize_yields_unit_rows(a in arb_tensor(4, 5)) {
        let mut tape = Tape::new();
        let x = tape.leaf(a.clone());
        let n = tape.l2_normalize_rows(x);
        let v = tape.value(n);
        for r in 0..v.rows {
            let norm: f32 = v.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            let input_norm: f32 = a.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            if input_norm > 1e-3 {
                prop_assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
            }
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

    #[test]
    fn gradient_of_linear_functional_is_weights(a in arb_tensor(1, 6), w in arb_tensor(6, 1)) {
        // loss = a @ w (scalar): d loss / d a = w^T exactly.
        let mut tape = Tape::new();
        let x = tape.leaf(a);
        let wn = tape.leaf(w.clone());
        let y = tape.matmul(x, wn);
        let grads = tape.backward(y);
        let ga = grads.get(x).unwrap();
        for (g, expect) in ga.data.iter().zip(&w.data) {
            prop_assert!((g - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_all_gradient_is_uniform(a in arb_tensor(3, 4)) {
        let mut tape = Tape::new();
        let x = tape.leaf(a);
        let m = tape.mean_all(x);
        let grads = tape.backward(m);
        let g = grads.get(x).unwrap();
        for v in &g.data {
            prop_assert!((v - 1.0 / 12.0).abs() < 1e-6);
        }
    }

    #[test]
    fn concat_then_slice_round_trips(a in arb_tensor(3, 4), b in arb_tensor(3, 2)) {
        let mut tape = Tape::new();
        let xa = tape.leaf(a.clone());
        let xb = tape.leaf(b.clone());
        let cat = tape.concat_cols(&[xa, xb]);
        let sa = tape.slice_cols(cat, 0, 4);
        let sb = tape.slice_cols(cat, 4, 2);
        prop_assert_eq!(tape.value(sa), &a);
        prop_assert_eq!(tape.value(sb), &b);
    }

    #[test]
    fn graph_param_binding_is_stable(v in arb_tensor(2, 2)) {
        let mut store = ParamStore::new();
        store.insert("p", v);
        let mut g = Graph::new(&store);
        let a = g.param("p");
        let b = g.param("p");
        prop_assert_eq!(a, b);
    }

    #[test]
    fn embed_batch_is_bit_identical_to_embed(
        seed in 0u64..1000,
        batch in prop::collection::vec(prop::collection::vec(-3.0f32..3.0, 6 * 8), 1..6),
    ) {
        // The matcher's per-search embedding cache scores candidates from
        // batched embeddings and promises byte-identical search results,
        // so the equivalence must be exact, not approximate.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sketchql_nn::{EncoderConfig, TrajectoryEncoder};
        let mut rng = StdRng::seed_from_u64(seed);
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
        let enc = TrajectoryEncoder::new(&mut store, &mut rng, "enc", cfg);
        let feats: Vec<Tensor> = batch
            .into_iter()
            .map(|data| Tensor::from_vec(6, 8, data))
            .collect();
        let refs: Vec<&Tensor> = feats.iter().collect();
        let batched = enc.embed_batch(&store, &refs);
        prop_assert_eq!(batched.len(), feats.len());
        // Against training's tape forward and against `embed` (the
        // batch of one): a row depends on neither path nor batch-mates.
        for (f, b) in feats.iter().zip(&batched) {
            let mut g = Graph::new(&store);
            let input = g.input(f.clone());
            let e = enc.forward(&mut g, input);
            prop_assert_eq!(&g.tape.value(e).data, b);
            prop_assert_eq!(&enc.embed(&store, f), b);
        }
    }
}
