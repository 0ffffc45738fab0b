//! Training objectives as plain functions of the embeddings: each returns
//! the loss and, per embedding, the loss's gradient with respect to it —
//! the seed [`crate::TrajectoryEncoder::backward`] starts from.
//!
//! The encoder is trained with the NT-Xent (InfoNCE) contrastive loss over
//! batches of (anchor, positive) clip pairs produced by the simulator: the
//! two views of the same 3D clip attract, all other batch members repel. The
//! Tuner fine-tunes with a triplet loss over user-labeled clips.
//!
//! An embedding may be read several times (the Tuner's query is every
//! triplet's anchor); its gradient adds up the shares in the reverse of
//! the order the forward read them, as reverse-mode differentiation
//! visits them, so a step's gradients never depend on how they are
//! computed. An embedding no term reads gets `None`, not zeros.

// Index arithmetic is clearer than iterator adapters in these formulas.
#![allow(clippy::needless_range_loop)]

use crate::tensor::{accumulate, Tensor};

/// Row `r` of `t` as a `1 x cols` tensor.
fn row(t: &Tensor, r: usize) -> Tensor {
    Tensor::from_vec(1, t.cols, t.row(r).to_vec())
}

/// Stacks the `1 x D` embeddings `ids` picks, in order, into a `B x D`
/// matrix.
fn stack(embeddings: &[Tensor], ids: impl Iterator<Item = usize>) -> Tensor {
    let rows: Vec<&Tensor> = ids.map(|i| &embeddings[i]).collect();
    let cols = rows[0].cols;
    let mut out = Tensor::zeros(rows.len(), cols);
    for (r, e) in rows.iter().enumerate() {
        assert_eq!((e.rows, e.cols), (1, cols), "embeddings are 1 x D rows");
        out.row_mut(r).copy_from_slice(&e.data);
    }
    out
}

/// The mean cross-entropy of each row `r` of `logits` against class `r`,
/// and its gradient with respect to `logits` given `upstream`, the outer
/// loss's gradient with respect to that mean.
fn cross_entropy_diagonal(logits: &Tensor, upstream: f32) -> (f32, Tensor) {
    let n = logits.rows;
    let scale = upstream / n as f32;
    let mut loss = 0.0;
    let mut grad = Tensor::zeros(logits.rows, logits.cols);
    for r in 0..n {
        let row = logits.row(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        loss += sum.ln() + max - row[r];
        for c in 0..logits.cols {
            let p = exps[c] / sum;
            grad.data[r * logits.cols + c] = scale * (p - if c == r { 1.0 } else { 0.0 });
        }
    }
    (loss / n as f32, grad)
}

/// NT-Xent / InfoNCE loss over `B` (anchor, positive) pairs of rows of
/// `embeddings` (each `1 x D`, typically L2-normalized encoder outputs),
/// and `dL/d embeddings[i]` for every `i`.
///
/// The loss is the symmetrized cross-entropy of the `B x B`
/// cosine-similarity matrix against the diagonal: anchor `i` must pick out
/// positive `i` among all positives, and vice versa. An embedding read by
/// several pairs takes its positive shares, then its anchor shares, each
/// in pair order.
///
/// # Panics
/// If `pairs` is empty, an index is out of range, or the temperature is
/// not positive.
pub fn nt_xent(
    embeddings: &[Tensor],
    pairs: &[(usize, usize)],
    temperature: f32,
) -> (f32, Vec<Option<Tensor>>) {
    assert!(!pairs.is_empty(), "nt_xent needs at least one pair");
    assert!(temperature > 0.0, "temperature must be positive");
    let anchors = stack(embeddings, pairs.iter().map(|p| p.0)); // B x D
    let positives = stack(embeddings, pairs.iter().map(|p| p.1)); // B x D
    let s = 1.0 / temperature;
    let logits = anchors.matmul(&positives.transposed()).map(|x| x * s);
    // Half the anchors' cross-entropy plus half the positives' (the
    // transposed logits).
    let (loss_a, g_a) = cross_entropy_diagonal(&logits, 0.5);
    let (loss_p, g_p) = cross_entropy_diagonal(&logits.transposed(), 0.5);
    let loss = (loss_a + loss_p) * 0.5;

    let mut g_logits = g_p.transposed();
    g_logits.add_scaled(&g_a, 1.0);
    let g_sims = g_logits.map(|x| x * s);
    let g_anchors = g_sims.matmul(&positives);
    let g_positives = anchors.transposed().matmul(&g_sims).transposed();
    let mut grads = vec![None; embeddings.len()];
    for (i, &(_, p)) in pairs.iter().enumerate() {
        accumulate(&mut grads[p], row(&g_positives, i));
    }
    for (i, &(a, _)) in pairs.iter().enumerate() {
        accumulate(&mut grads[a], row(&g_anchors, i));
    }
    (loss, grads)
}

/// Triplet margin loss on cosine similarity over `(anchor, positive,
/// negative)` rows of `embeddings` (`1 x D` unit vectors):
/// `max(0, margin - sim(a, pos) + sim(a, neg))`, averaged over triplets,
/// and `dL/d embeddings[i]` for every `i`.
///
/// Shares add up from the last triplet to the first, each triplet giving
/// the anchor's negative-side share, the negative's, the anchor's
/// positive-side share, then the positive's.
///
/// # Panics
/// If `triplets` is empty or an index is out of range.
pub fn triplet(
    embeddings: &[Tensor],
    triplets: &[(usize, usize, usize)],
    margin: f32,
) -> (f32, Vec<Option<Tensor>>) {
    assert!(
        !triplets.is_empty(),
        "triplet loss needs at least one triplet"
    );
    // Each similarity is the 1 x 1 product `a · bᵀ`.
    let sim = |a: usize, b: usize| embeddings[a].matmul(&embeddings[b].transposed()).item();
    let shifted: Vec<f32> = triplets
        .iter()
        .map(|&(a, pos, neg)| (sim(a, neg) - sim(a, pos)) + margin)
        .collect();
    let loss = shifted.iter().map(|x| x.max(0.0)).sum::<f32>() / triplets.len() as f32;

    let g_term = 1.0 / triplets.len() as f32;
    let mut grads = vec![None; embeddings.len()];
    for (&(a, pos, neg), &x) in triplets.iter().zip(&shifted).rev() {
        let g = if x > 0.0 { g_term } else { 0.0 };
        for (other, g) in [(neg, g), (pos, -g)] {
            let g = Tensor::scalar(g);
            accumulate(&mut grads[a], g.matmul(&embeddings[other]));
            let g_other = embeddings[a].transposed().matmul(&g).transposed();
            accumulate(&mut grads[other], g_other);
        }
    }
    (loss, grads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(v: Vec<f32>) -> Tensor {
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        Tensor::from_vec(1, v.len(), v.into_iter().map(|x| x / n).collect())
    }

    #[test]
    fn nt_xent_low_when_pairs_align() {
        // Orthogonal anchors, positives identical to anchors.
        let e = [
            unit(vec![1.0, 0.0, 0.0]),
            unit(vec![0.0, 1.0, 0.0]),
            unit(vec![1.0, 0.0, 0.0]),
            unit(vec![0.0, 1.0, 0.0]),
        ];
        let (loss, _) = nt_xent(&e, &[(0, 2), (1, 3)], 0.1);
        assert!(loss < 0.01);
    }

    #[test]
    fn nt_xent_high_when_pairs_swapped() {
        // Positives point at the *other* anchor.
        let e = [
            unit(vec![1.0, 0.0, 0.0]),
            unit(vec![0.0, 1.0, 0.0]),
            unit(vec![0.0, 1.0, 0.0]),
            unit(vec![1.0, 0.0, 0.0]),
        ];
        let (loss, _) = nt_xent(&e, &[(0, 2), (1, 3)], 0.1);
        assert!(loss > 2.0);
    }

    #[test]
    fn nt_xent_random_baseline_is_log_b() {
        // With all-identical embeddings the loss is exactly ln(B).
        let e = vec![unit(vec![1.0, 1.0]); 4];
        let pairs: Vec<(usize, usize)> = (0..4).map(|i| (i, i)).collect();
        let (loss, _) = nt_xent(&e, &pairs, 1.0);
        assert!((loss - (4.0f32).ln()).abs() < 1e-4);
    }

    /// Every embedding a pair reads gets a finite gradient — the one read
    /// as both an anchor and a positive too — and one no pair reads gets
    /// none.
    #[test]
    fn nt_xent_is_differentiable() {
        let e = [
            unit(vec![0.8, 0.2, 0.1]),
            unit(vec![0.7, 0.3, 0.0]),
            unit(vec![-0.5, 0.5, 0.7]),
            unit(vec![0.1, 0.1, 0.1]),
        ];
        let (_, grads) = nt_xent(&e, &[(0, 1), (2, 2)], 0.5);
        for g in &grads[..3] {
            assert!(g.as_ref().unwrap().data.iter().all(|v| v.is_finite()));
        }
        assert!(grads[3].is_none());
    }

    #[test]
    fn triplet_zero_when_margin_satisfied() {
        let e = [
            unit(vec![1.0, 0.0]),
            unit(vec![1.0, 0.0]),
            unit(vec![-1.0, 0.0]),
        ];
        // sim_pos = 1, sim_neg = -1, margin 0.5: hinge inactive.
        let (loss, grads) = triplet(&e, &[(0, 1, 2)], 0.5);
        assert_eq!(loss, 0.0);
        assert!(grads
            .iter()
            .flatten()
            .flat_map(|g| &g.data)
            .all(|&v| v == 0.0));
    }

    #[test]
    fn triplet_positive_when_violated() {
        let e = [
            unit(vec![1.0, 0.0]),
            unit(vec![0.0, 1.0]), // sim 0
            unit(vec![1.0, 0.0]), // sim 1
        ];
        let (loss, _) = triplet(&e, &[(0, 1, 2)], 0.5);
        // hinge = 0.5 - 0 + 1 = 1.5
        assert!((loss - 1.5).abs() < 1e-5);
    }

    /// Central differences of `loss` at every element of every embedding
    /// against the analytic gradient.
    fn check_against_finite_differences(
        e: &[Tensor],
        analytic: &[Option<Tensor>],
        loss: impl Fn(&[Tensor]) -> f32,
    ) {
        let eps = 1e-3f32;
        let mut e = e.to_vec();
        for k in 0..e.len() {
            for i in 0..e[k].len() {
                let original = e[k].data[i];
                e[k].data[i] = original + eps;
                let plus = loss(&e);
                e[k].data[i] = original - eps;
                let minus = loss(&e);
                e[k].data[i] = original;
                let numeric = (plus - minus) / (2.0 * eps);
                let a = analytic[k].as_ref().map_or(0.0, |g| g.data[i]);
                let tol = 1e-2 * (1.0 + a.abs().max(numeric.abs()));
                assert!(
                    (a - numeric).abs() < tol,
                    "embedding {k} element {i}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn random_rows(n: usize, seed: u64) -> Vec<Tensor> {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Tensor::xavier(1, 5, &mut rng)).collect()
    }

    /// Including an embedding read as an anchor and as a positive.
    #[test]
    fn grad_nt_xent() {
        let e = random_rows(7, 1);
        let pairs = [(0, 1), (2, 3), (4, 5), (6, 0)];
        let (_, grads) = nt_xent(&e, &pairs, 0.5);
        check_against_finite_differences(&e, &grads, |e| nt_xent(e, &pairs, 0.5).0);
    }

    /// Including an anchor every triplet reads and a negative two read;
    /// the margin keeps every hinge active, as a kink would defeat the
    /// difference quotient.
    #[test]
    fn grad_triplet() {
        let e = random_rows(5, 2);
        let triplets = [(0, 1, 2), (0, 3, 2), (4, 1, 3)];
        let (loss, grads) = triplet(&e, &triplets, 5.0);
        assert!(loss > 0.0);
        check_against_finite_differences(&e, &grads, |e| triplet(e, &triplets, 5.0).0);
    }
}
