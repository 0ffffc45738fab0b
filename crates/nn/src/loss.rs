//! Training objectives, composed from tape primitives.
//!
//! The encoder is trained with the NT-Xent (InfoNCE) contrastive loss over
//! batches of (anchor, positive) clip pairs produced by the simulator: the
//! two views of the same 3D clip attract, all other batch members repel. The
//! Tuner fine-tunes with a triplet loss over user-labeled clips.

use crate::modules::Graph;
use crate::tape::NodeId;

/// NT-Xent / InfoNCE loss over `B` (anchor, positive) embedding pairs.
///
/// `anchors[i]` and `positives[i]` must each be `1 x D` (typically
/// L2-normalized encoder outputs). The loss is the symmetrized cross-entropy
/// of the `B x B` cosine-similarity matrix against the diagonal:
/// anchor `i` must pick out positive `i` among all positives, and vice
/// versa.
///
/// # Panics
/// If the pair lists are empty or of different lengths.
pub fn nt_xent(
    g: &mut Graph<'_>,
    anchors: &[NodeId],
    positives: &[NodeId],
    temperature: f32,
) -> NodeId {
    assert!(!anchors.is_empty(), "nt_xent needs at least one pair");
    assert_eq!(anchors.len(), positives.len(), "pair count mismatch");
    assert!(temperature > 0.0, "temperature must be positive");
    let a = g.tape.concat_rows(anchors); // B x D
    let p = g.tape.concat_rows(positives); // B x D
    let pt = g.tape.transpose(p);
    let sims = g.tape.matmul(a, pt); // B x B
    let logits = g.tape.scale(sims, 1.0 / temperature);
    let targets: Vec<usize> = (0..anchors.len()).collect();
    let loss_a = g.tape.cross_entropy_rows(logits, targets.clone());
    let logits_t = g.tape.transpose(logits);
    let loss_p = g.tape.cross_entropy_rows(logits_t, targets);
    let sum = g.tape.add(loss_a, loss_p);
    g.tape.scale(sum, 0.5)
}

/// Triplet margin loss on cosine similarity:
/// `max(0, margin - sim(a, pos) + sim(a, neg))`, averaged over triplets.
///
/// Embeddings must be `1 x D` unit vectors.
pub fn triplet(g: &mut Graph<'_>, triplets: &[(NodeId, NodeId, NodeId)], margin: f32) -> NodeId {
    assert!(
        !triplets.is_empty(),
        "triplet loss needs at least one triplet"
    );
    let mut terms = Vec::with_capacity(triplets.len());
    for &(a, pos, neg) in triplets {
        let sim_pos = dot_rows(g, a, pos); // 1x1
        let sim_neg = dot_rows(g, a, neg); // 1x1
        let diff = g.tape.sub(sim_neg, sim_pos); // sim_neg - sim_pos
        let m = g.input(crate::tensor::Tensor::scalar(margin));
        let shifted = g.tape.add(diff, m);
        terms.push(g.tape.relu(shifted));
    }
    let stacked = g.tape.concat_rows(&terms);
    g.tape.mean_all(stacked)
}

/// Mean squared error between two same-shape tensors.
pub fn mse(g: &mut Graph<'_>, pred: NodeId, target: NodeId) -> NodeId {
    let diff = g.tape.sub(pred, target);
    let sq = g.tape.mul(diff, diff);
    g.tape.mean_all(sq)
}

/// Dot product of two `1 x D` rows as a `1 x 1` node.
fn dot_rows(g: &mut Graph<'_>, a: NodeId, b: NodeId) -> NodeId {
    let bt = g.tape.transpose(b);
    g.tape.matmul(a, bt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::ParamStore;
    use crate::tensor::Tensor;

    fn unit(v: Vec<f32>) -> Tensor {
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        Tensor::from_vec(1, v.len(), v.into_iter().map(|x| x / n).collect())
    }

    #[test]
    fn nt_xent_low_when_pairs_align() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        // Orthogonal anchors, positives identical to anchors.
        let a1 = g.input(unit(vec![1.0, 0.0, 0.0]));
        let a2 = g.input(unit(vec![0.0, 1.0, 0.0]));
        let p1 = g.input(unit(vec![1.0, 0.0, 0.0]));
        let p2 = g.input(unit(vec![0.0, 1.0, 0.0]));
        let loss = nt_xent(&mut g, &[a1, a2], &[p1, p2], 0.1);
        assert!(g.tape.value(loss).item() < 0.01);
    }

    #[test]
    fn nt_xent_high_when_pairs_swapped() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a1 = g.input(unit(vec![1.0, 0.0, 0.0]));
        let a2 = g.input(unit(vec![0.0, 1.0, 0.0]));
        // Positives point at the *other* anchor.
        let p1 = g.input(unit(vec![0.0, 1.0, 0.0]));
        let p2 = g.input(unit(vec![1.0, 0.0, 0.0]));
        let loss = nt_xent(&mut g, &[a1, a2], &[p1, p2], 0.1);
        assert!(g.tape.value(loss).item() > 2.0);
    }

    #[test]
    fn nt_xent_random_baseline_is_log_b() {
        // With all-identical embeddings the loss is exactly ln(B).
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let e = unit(vec![1.0, 1.0]);
        let ids: Vec<_> = (0..4).map(|_| g.input(e.clone())).collect();
        let loss = nt_xent(&mut g, &ids, &ids, 1.0);
        let expect = (4.0f32).ln();
        assert!((g.tape.value(loss).item() - expect).abs() < 1e-4);
    }

    #[test]
    fn nt_xent_is_differentiable() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        // A differentiable leaf: `g.input` is a constant to backward.
        let a = g.tape.leaf(unit(vec![0.8, 0.2, 0.1]));
        let p = g.input(unit(vec![0.7, 0.3, 0.0]));
        let n = g.input(unit(vec![-0.5, 0.5, 0.7]));
        let loss = nt_xent(&mut g, &[a, n], &[p, n], 0.5);
        let grads = g.tape.backward(loss);
        assert!(grads.get(a).is_some());
        assert!(grads.get(a).unwrap().is_finite());
    }

    #[test]
    fn triplet_zero_when_margin_satisfied() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.input(unit(vec![1.0, 0.0]));
        let pos = g.input(unit(vec![1.0, 0.0]));
        let neg = g.input(unit(vec![-1.0, 0.0]));
        // sim_pos = 1, sim_neg = -1, margin 0.5: hinge inactive.
        let loss = triplet(&mut g, &[(a, pos, neg)], 0.5);
        assert_eq!(g.tape.value(loss).item(), 0.0);
    }

    #[test]
    fn triplet_positive_when_violated() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.input(unit(vec![1.0, 0.0]));
        let pos = g.input(unit(vec![0.0, 1.0])); // sim 0
        let neg = g.input(unit(vec![1.0, 0.0])); // sim 1
        let loss = triplet(&mut g, &[(a, pos, neg)], 0.5);
        // hinge = 0.5 - 0 + 1 = 1.5
        assert!((g.tape.value(loss).item() - 1.5).abs() < 1e-5);
    }

    #[test]
    fn mse_known_value() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let a = g.input(Tensor::from_vec(1, 2, vec![1.0, 3.0]));
        let b = g.input(Tensor::from_vec(1, 2, vec![0.0, 1.0]));
        let loss = mse(&mut g, a, b);
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((g.tape.value(loss).item() - 2.5).abs() < 1e-6);
    }
}
