//! Reverse-mode automatic differentiation over a fixed op set.
//!
//! A [`Tape`] records an eager forward computation as a flat list of nodes;
//! [`Tape::backward`] then walks the list in reverse, dispatching on the op
//! enum to propagate gradients. A closed op enum (instead of boxed backward
//! closures) keeps every backward rule explicit, auditable, and individually
//! gradient-checked in the test suite.

// Index arithmetic is clearer than iterator adapters in these numeric
// kernels.
#![allow(clippy::needless_range_loop)]

use crate::tensor::Tensor;
use std::borrow::Cow;

/// Index of a node on the tape.
pub type NodeId = usize;

/// The operations the autograd engine understands.
#[derive(Debug, Clone)]
enum Op {
    /// Input / parameter node.
    Leaf,
    /// `A (RxK) @ B (KxC)`.
    MatMul(NodeId, NodeId),
    /// Matrix transpose.
    Transpose(NodeId),
    /// Element-wise sum of same-shape tensors.
    Add(NodeId, NodeId),
    /// `A (RxC) + b (1xC)` broadcast over rows (bias add).
    AddRowBroadcast(NodeId, NodeId),
    /// Element-wise difference.
    Sub(NodeId, NodeId),
    /// Element-wise (Hadamard) product.
    Mul(NodeId, NodeId),
    /// Multiplication by a compile-time constant.
    Scale(NodeId, f32),
    /// Row-wise softmax.
    SoftmaxRows(NodeId),
    /// Row-wise layer normalization with learned gain/bias:
    /// `(x, gamma 1xC, beta 1xC)`.
    LayerNormRows(NodeId, NodeId, NodeId),
    /// GELU activation (tanh approximation).
    Gelu(NodeId),
    /// ReLU activation.
    Relu(NodeId),
    /// Mean over rows: `RxC -> 1xC` (sequence pooling).
    MeanRows(NodeId),
    /// Mean over all elements: `RxC -> 1x1`.
    MeanAll(NodeId),
    /// Column slice `[start, start+len)`.
    SliceCols(NodeId, usize, usize),
    /// Column-wise concatenation.
    ConcatCols(Vec<NodeId>),
    /// Row-wise concatenation (stacking embeddings into a batch).
    ConcatRows(Vec<NodeId>),
    /// Row-wise L2 normalization (unit embeddings).
    L2NormalizeRows(NodeId),
    /// Mean cross-entropy of row `i` of the logits against class
    /// `targets[i]`; produces a `1x1` loss.
    CrossEntropyRows(NodeId, Vec<usize>),
}

pub(crate) const LN_EPS: f32 = 1e-5;

impl Op {
    /// Whether `f` holds for any operand.
    fn any_operand(&self, mut f: impl FnMut(NodeId) -> bool) -> bool {
        match self {
            Op::Leaf => false,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b) => f(*a) || f(*b),
            Op::Transpose(a)
            | Op::Scale(a, _)
            | Op::SoftmaxRows(a)
            | Op::Gelu(a)
            | Op::Relu(a)
            | Op::MeanRows(a)
            | Op::MeanAll(a)
            | Op::SliceCols(a, _, _)
            | Op::L2NormalizeRows(a)
            | Op::CrossEntropyRows(a, _) => f(*a),
            Op::LayerNormRows(x, gamma, beta) => f(*x) || f(*gamma) || f(*beta),
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => parts.iter().any(|&p| f(p)),
        }
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`NodeId`].
///
/// They are the gradients of the tape's differentiable leaves
/// ([`Tape::leaf`], [`Tape::leaf_ref`]). An interior node's gradient is
/// dropped as soon as it has been propagated to its operands, so a
/// backward pass holds one frontier of the graph, not a second copy of it.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the root w.r.t. leaf `id`, if that leaf influenced
    /// it.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id).and_then(|g| g.as_ref())
    }

    /// Moves the gradient of leaf `id` out.
    pub fn take(&mut self, id: NodeId) -> Option<Tensor> {
        self.grads.get_mut(id).and_then(|g| g.take())
    }
}

/// A recorded forward computation. Leaf values are owned or borrowed for
/// `'v` (a model's weights are borrowed, so a tape per clip costs no copy
/// of them).
#[derive(Default)]
pub struct Tape<'v> {
    ops: Vec<Op>,
    values: Vec<Cow<'v, Tensor>>,
    /// Per node: whether a differentiable leaf lies beneath it. Backward
    /// computes no gradient for the others — constants and whatever is
    /// built from constants alone.
    needs_grad: Vec<bool>,
}

impl<'v> Tape<'v> {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.values[id]
    }

    fn push_node(&mut self, op: Op, value: Cow<'v, Tensor>, needs_grad: bool) -> NodeId {
        self.ops.push(op);
        self.values.push(value);
        self.needs_grad.push(needs_grad);
        self.ops.len() - 1
    }

    fn push(&mut self, op: Op, value: Tensor) -> NodeId {
        let needs_grad = op.any_operand(|id| self.needs_grad[id]);
        self.push_node(op, Cow::Owned(value), needs_grad)
    }

    /// Inserts a differentiable leaf: [`Tape::backward`] reports its
    /// gradient.
    pub fn leaf(&mut self, t: Tensor) -> NodeId {
        self.push_node(Op::Leaf, Cow::Owned(t), true)
    }

    /// [`Tape::leaf`] over a borrowed tensor.
    pub fn leaf_ref(&mut self, t: &'v Tensor) -> NodeId {
        self.push_node(Op::Leaf, Cow::Borrowed(t), true)
    }

    /// Inserts a leaf the caller wants no gradient for (an input, a fixed
    /// table); backward spends nothing on it.
    pub fn constant(&mut self, t: Tensor) -> NodeId {
        self.push_node(Op::Leaf, Cow::Owned(t), false)
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).transposed();
        self.push(Op::Transpose(a), v)
    }

    /// Element-wise sum (same shapes).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!((va.rows, va.cols), (vb.rows, vb.cols), "add shape mismatch");
        let data = va.data.iter().zip(&vb.data).map(|(x, y)| x + y).collect();
        let v = Tensor::from_vec(va.rows, va.cols, data);
        self.push(Op::Add(a, b), v)
    }

    /// Adds a `1 x C` bias to every row of an `R x C` tensor.
    pub fn add_row_broadcast(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(vb.rows, 1, "bias must be 1 x C");
        assert_eq!(va.cols, vb.cols, "bias width mismatch");
        let mut v = va.clone();
        for r in 0..v.rows {
            for c in 0..v.cols {
                v.data[r * v.cols + c] += vb.data[c];
            }
        }
        self.push(Op::AddRowBroadcast(a, b), v)
    }

    /// Element-wise difference (same shapes).
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!((va.rows, va.cols), (vb.rows, vb.cols), "sub shape mismatch");
        let data = va.data.iter().zip(&vb.data).map(|(x, y)| x - y).collect();
        let v = Tensor::from_vec(va.rows, va.cols, data);
        self.push(Op::Sub(a, b), v)
    }

    /// Element-wise product (same shapes).
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!((va.rows, va.cols), (vb.rows, vb.cols), "mul shape mismatch");
        let data = va.data.iter().zip(&vb.data).map(|(x, y)| x * y).collect();
        let v = Tensor::from_vec(va.rows, va.cols, data);
        self.push(Op::Mul(a, b), v)
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let v = self.value(a).map(|x| x * s);
        self.push(Op::Scale(a, s), v)
    }

    /// Row-wise softmax (numerically stabilized).
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let va = self.value(a);
        let mut v = va.clone();
        for r in 0..v.rows {
            crate::kernels::softmax_row(v.row_mut(r));
        }
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Row-wise layer norm with learned `gamma` (gain) and `beta` (bias).
    pub fn layer_norm_rows(&mut self, x: NodeId, gamma: NodeId, beta: NodeId) -> NodeId {
        let (vx, vg, vb) = (self.value(x), self.value(gamma), self.value(beta));
        assert_eq!(vg.rows, 1);
        assert_eq!(vb.rows, 1);
        assert_eq!(vg.cols, vx.cols);
        assert_eq!(vb.cols, vx.cols);
        let mut v = vx.clone();
        for r in 0..v.rows {
            crate::kernels::layer_norm_row(v.row_mut(r), &vg.data, &vb.data, LN_EPS);
        }
        self.push(Op::LayerNormRows(x, gamma, beta), v)
    }

    /// GELU activation (tanh approximation).
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        crate::kernels::gelu_inplace(&mut v.data);
        self.push(Op::Gelu(a), v)
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Mean over rows (`R x C -> 1 x C`).
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let va = self.value(a);
        let mut v = Tensor::zeros(1, va.cols);
        for r in 0..va.rows {
            for c in 0..va.cols {
                v.data[c] += va.data[r * va.cols + c];
            }
        }
        for x in &mut v.data {
            *x /= va.rows as f32;
        }
        self.push(Op::MeanRows(a), v)
    }

    /// Mean over all elements (`R x C -> 1 x 1`).
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let va = self.value(a);
        let m = va.data.iter().sum::<f32>() / va.len() as f32;
        self.push(Op::MeanAll(a), Tensor::scalar(m))
    }

    /// Column slice `[start, start+len)`.
    pub fn slice_cols(&mut self, a: NodeId, start: usize, len: usize) -> NodeId {
        let va = self.value(a);
        assert!(start + len <= va.cols, "slice out of range");
        let mut v = Tensor::zeros(va.rows, len);
        for r in 0..va.rows {
            v.row_mut(r).copy_from_slice(&va.row(r)[start..start + len]);
        }
        self.push(Op::SliceCols(a, start, len), v)
    }

    /// Column-wise concatenation of same-height tensors.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let rows = self.value(parts[0]).rows;
        let total: usize = parts.iter().map(|&p| self.value(p).cols).sum();
        let mut v = Tensor::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let vp = self.value(p);
            assert_eq!(vp.rows, rows, "concat_cols row mismatch");
            for r in 0..rows {
                v.row_mut(r)[off..off + vp.cols].copy_from_slice(vp.row(r));
            }
            off += vp.cols;
        }
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    /// Row-wise concatenation of same-width tensors.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty());
        let cols = self.value(parts[0]).cols;
        let total: usize = parts.iter().map(|&p| self.value(p).rows).sum();
        let mut v = Tensor::zeros(total, cols);
        let mut off = 0;
        for &p in parts {
            let vp = self.value(p);
            assert_eq!(vp.cols, cols, "concat_rows col mismatch");
            v.data[off..off + vp.len()].copy_from_slice(&vp.data);
            off += vp.len();
        }
        self.push(Op::ConcatRows(parts.to_vec()), v)
    }

    /// Row-wise L2 normalization.
    pub fn l2_normalize_rows(&mut self, a: NodeId) -> NodeId {
        let va = self.value(a);
        let mut v = va.clone();
        for r in 0..v.rows {
            let row = v.row_mut(r);
            let n = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-8);
            for x in row.iter_mut() {
                *x /= n;
            }
        }
        self.push(Op::L2NormalizeRows(a), v)
    }

    /// Mean cross-entropy of each logit row against its target class.
    pub fn cross_entropy_rows(&mut self, logits: NodeId, targets: Vec<usize>) -> NodeId {
        let vl = self.value(logits);
        assert_eq!(vl.rows, targets.len(), "one target per row");
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < vl.cols, "target out of range");
            let row = vl.row(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let logsum = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            loss += logsum - row[t];
        }
        let v = Tensor::scalar(loss / targets.len() as f32);
        self.push(Op::CrossEntropyRows(logits, targets), v)
    }

    /// Runs reverse-mode differentiation from `loss` (must be `1 x 1`).
    pub fn backward(&self, loss: NodeId) -> Gradients {
        assert_eq!(
            (self.value(loss).rows, self.value(loss).cols),
            (1, 1),
            "backward() expects a scalar loss"
        );
        self.backward_from(loss, Tensor::scalar(1.0))
    }

    /// Reverse-mode differentiation from a root of any shape, given the
    /// gradient `seed` of some downstream scalar w.r.t. `root` (same shape
    /// as `root`): the result is that scalar's gradient w.r.t. the leaves.
    /// This is how a graph cut in two is differentiated — the upper half's
    /// gradient at the cut seeds the lower half — and it yields the bits
    /// the uncut graph would, because a node's gradient is complete before
    /// the walk reaches it either way.
    pub fn backward_from(&self, root: NodeId, seed: Tensor) -> Gradients {
        let v = self.value(root);
        assert_eq!(
            (seed.rows, seed.cols),
            (v.rows, v.cols),
            "seed gradient must have the root's shape"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.ops.len()];
        if self.needs_grad[root] {
            grads[root] = Some(seed);
        }
        for id in (0..=root).rev() {
            // A leaf's gradient is the result; anything else is dropped
            // once its operands have received their share.
            if matches!(self.ops[id], Op::Leaf) {
                continue;
            }
            if let Some(g) = grads[id].take() {
                self.backprop_node(id, &g, &mut grads);
            }
        }
        Gradients { grads }
    }

    /// Accumulates `delta()` into `grads[target]`, if `target` wants a
    /// gradient at all. (A node that has a gradient has an operand that
    /// wants one, so the closure only ever saves work on ops with several
    /// operands: `features @ W` skips `g @ Wᵀ`, `x + positions` a copy.)
    fn accum(&self, grads: &mut [Option<Tensor>], target: NodeId, delta: impl FnOnce() -> Tensor) {
        if !self.needs_grad[target] {
            return;
        }
        match &mut grads[target] {
            Some(g) => g.add_scaled(&delta(), 1.0),
            slot @ None => *slot = Some(delta()),
        }
    }

    fn backprop_node(&self, id: NodeId, g: &Tensor, grads: &mut [Option<Tensor>]) {
        match &self.ops[id] {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (va, vb) = (self.value(*a), self.value(*b));
                self.accum(grads, *a, || g.matmul(&vb.transposed()));
                self.accum(grads, *b, || va.transposed().matmul(g));
            }
            Op::Transpose(a) => {
                self.accum(grads, *a, || g.transposed());
            }
            Op::Add(a, b) => {
                self.accum(grads, *a, || g.clone());
                self.accum(grads, *b, || g.clone());
            }
            Op::AddRowBroadcast(a, b) => {
                self.accum(grads, *a, || g.clone());
                self.accum(grads, *b, || {
                    let mut gb = Tensor::zeros(1, g.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            gb.data[c] += g.data[r * g.cols + c];
                        }
                    }
                    gb
                });
            }
            Op::Sub(a, b) => {
                self.accum(grads, *a, || g.clone());
                self.accum(grads, *b, || g.map(|x| -x));
            }
            Op::Mul(a, b) => {
                let (va, vb) = (self.value(*a), self.value(*b));
                let times = |v: &Tensor| {
                    let data = g.data.iter().zip(&v.data).map(|(x, y)| x * y).collect();
                    Tensor::from_vec(g.rows, g.cols, data)
                };
                self.accum(grads, *a, || times(vb));
                self.accum(grads, *b, || times(va));
            }
            Op::Scale(a, s) => {
                self.accum(grads, *a, || g.map(|x| x * s));
            }
            Op::SoftmaxRows(a) => {
                let y = self.value(id);
                let mut ga = Tensor::zeros(g.rows, g.cols);
                for r in 0..g.rows {
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let dot: f32 = yr.iter().zip(gr).map(|(yv, gv)| yv * gv).sum();
                    for c in 0..g.cols {
                        ga.data[r * g.cols + c] = yr[c] * (gr[c] - dot);
                    }
                }
                self.accum(grads, *a, || ga);
            }
            Op::LayerNormRows(x, gamma, beta) => {
                let vx = self.value(*x);
                let vg = self.value(*gamma);
                let n = vx.cols as f32;
                let mut gx = Tensor::zeros(vx.rows, vx.cols);
                let mut ggamma = Tensor::zeros(1, vx.cols);
                let mut gbeta = Tensor::zeros(1, vx.cols);
                for r in 0..vx.rows {
                    let row = vx.row(r);
                    let mean = row.iter().sum::<f32>() / n;
                    let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
                    let inv_std = 1.0 / (var + LN_EPS).sqrt();
                    let gr = g.row(r);
                    // xhat and the two reduction terms of the standard
                    // layer-norm backward.
                    let xhat: Vec<f32> = row.iter().map(|v| (v - mean) * inv_std).collect();
                    let dxhat: Vec<f32> = gr
                        .iter()
                        .enumerate()
                        .map(|(c, gv)| gv * vg.data[c])
                        .collect();
                    let mean_dxhat = dxhat.iter().sum::<f32>() / n;
                    let mean_dxhat_xhat =
                        dxhat.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f32>() / n;
                    for c in 0..vx.cols {
                        gx.data[r * vx.cols + c] =
                            inv_std * (dxhat[c] - mean_dxhat - xhat[c] * mean_dxhat_xhat);
                        ggamma.data[c] += gr[c] * xhat[c];
                        gbeta.data[c] += gr[c];
                    }
                }
                self.accum(grads, *x, || gx);
                self.accum(grads, *gamma, || ggamma);
                self.accum(grads, *beta, || gbeta);
            }
            Op::Gelu(a) => {
                let va = self.value(*a);
                let ga = Tensor::from_vec(
                    g.rows,
                    g.cols,
                    g.data
                        .iter()
                        .zip(&va.data)
                        .map(|(gv, &x)| gv * gelu_bwd(x))
                        .collect(),
                );
                self.accum(grads, *a, || ga);
            }
            Op::Relu(a) => {
                let va = self.value(*a);
                let ga = Tensor::from_vec(
                    g.rows,
                    g.cols,
                    g.data
                        .iter()
                        .zip(&va.data)
                        .map(|(gv, &x)| if x > 0.0 { *gv } else { 0.0 })
                        .collect(),
                );
                self.accum(grads, *a, || ga);
            }
            Op::MeanRows(a) => {
                let va = self.value(*a);
                let mut ga = Tensor::zeros(va.rows, va.cols);
                let inv = 1.0 / va.rows as f32;
                for r in 0..va.rows {
                    for c in 0..va.cols {
                        ga.data[r * va.cols + c] = g.data[c] * inv;
                    }
                }
                self.accum(grads, *a, || ga);
            }
            Op::MeanAll(a) => {
                let va = self.value(*a);
                let inv = g.item() / va.len() as f32;
                self.accum(grads, *a, || Tensor::full(va.rows, va.cols, inv));
            }
            Op::SliceCols(a, start, len) => {
                let va = self.value(*a);
                let mut ga = Tensor::zeros(va.rows, va.cols);
                for r in 0..va.rows {
                    ga.row_mut(r)[*start..*start + *len].copy_from_slice(g.row(r));
                }
                self.accum(grads, *a, || ga);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let vp = self.value(p);
                    self.accum(grads, p, || {
                        let mut gp = Tensor::zeros(vp.rows, vp.cols);
                        for r in 0..vp.rows {
                            gp.row_mut(r).copy_from_slice(&g.row(r)[off..off + vp.cols]);
                        }
                        gp
                    });
                    off += vp.cols;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let vp = self.value(p);
                    self.accum(grads, p, || {
                        Tensor::from_vec(vp.rows, vp.cols, g.data[off..off + vp.len()].to_vec())
                    });
                    off += vp.len();
                }
            }
            Op::L2NormalizeRows(a) => {
                let va = self.value(*a);
                let y = self.value(id);
                let mut ga = Tensor::zeros(va.rows, va.cols);
                for r in 0..va.rows {
                    let xr = va.row(r);
                    let yr = y.row(r);
                    let gr = g.row(r);
                    let n = xr.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-8);
                    let dot: f32 = yr.iter().zip(gr).map(|(yv, gv)| yv * gv).sum();
                    for c in 0..va.cols {
                        ga.data[r * va.cols + c] = (gr[c] - yr[c] * dot) / n;
                    }
                }
                self.accum(grads, *a, || ga);
            }
            Op::CrossEntropyRows(logits, targets) => {
                let vl = self.value(*logits);
                let scale = g.item() / targets.len() as f32;
                let mut gl = Tensor::zeros(vl.rows, vl.cols);
                for (r, &t) in targets.iter().enumerate() {
                    let row = vl.row(r);
                    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
                    let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
                    let sum: f32 = exps.iter().sum();
                    for c in 0..vl.cols {
                        let p = exps[c] / sum;
                        gl.data[r * vl.cols + c] = scale * (p - if c == t { 1.0 } else { 0.0 });
                    }
                }
                self.accum(grads, *logits, || gl);
            }
        }
    }
}

use crate::kernels::{GELU_A, GELU_C};

fn gelu_bwd(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let t = crate::kernels::fast_tanh(u);
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Numerically checks `d loss / d input` for a graph builder `f` that
    /// maps leaf tensors to a scalar loss node.
    fn grad_check(inputs: &[Tensor], f: impl Fn(&mut Tape, &[NodeId]) -> NodeId) {
        // Analytic gradients.
        let mut tape = Tape::new();
        let ids: Vec<NodeId> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
        let loss = f(&mut tape, &ids);
        let grads = tape.backward(loss);

        let eps = 1e-2f32;
        for (k, input) in inputs.iter().enumerate() {
            let analytic = grads
                .get(ids[k])
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(input.rows, input.cols));
            for i in 0..input.len() {
                let mut plus = inputs.to_vec();
                plus[k].data[i] += eps;
                let mut minus = inputs.to_vec();
                minus[k].data[i] -= eps;
                let eval = |ts: &[Tensor]| {
                    let mut tape = Tape::new();
                    let ids: Vec<NodeId> = ts.iter().map(|t| tape.leaf(t.clone())).collect();
                    let l = f(&mut tape, &ids);
                    tape.value(l).item()
                };
                let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
                let a = analytic.data[i];
                let tol = 1e-2 * (1.0 + a.abs().max(numeric.abs()));
                assert!(
                    (a - numeric).abs() < tol,
                    "input {k} element {i}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn randt(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    }

    #[test]
    fn grad_matmul() {
        grad_check(&[randt(3, 4, 1), randt(4, 2, 2)], |t, ids| {
            let m = t.matmul(ids[0], ids[1]);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_add_sub_mul_scale() {
        grad_check(&[randt(2, 3, 3), randt(2, 3, 4)], |t, ids| {
            let a = t.add(ids[0], ids[1]);
            let s = t.sub(a, ids[1]);
            let m = t.mul(s, ids[0]);
            let sc = t.scale(m, 1.7);
            t.mean_all(sc)
        });
    }

    #[test]
    fn grad_add_row_broadcast() {
        grad_check(&[randt(3, 4, 5), randt(1, 4, 6)], |t, ids| {
            let a = t.add_row_broadcast(ids[0], ids[1]);
            t.mean_all(a)
        });
    }

    #[test]
    fn grad_transpose() {
        grad_check(&[randt(2, 5, 7)], |t, ids| {
            let tr = t.transpose(ids[0]);
            let m = t.mul(tr, tr);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_softmax() {
        grad_check(&[randt(3, 5, 8)], |t, ids| {
            let s = t.softmax_rows(ids[0]);
            let sq = t.mul(s, s);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_layer_norm() {
        grad_check(
            &[randt(3, 6, 9), randt(1, 6, 10), randt(1, 6, 11)],
            |t, ids| {
                let ln = t.layer_norm_rows(ids[0], ids[1], ids[2]);
                let sq = t.mul(ln, ln);
                t.mean_all(sq)
            },
        );
    }

    #[test]
    fn grad_activations() {
        grad_check(&[randt(2, 4, 12)], |t, ids| {
            let g = t.gelu(ids[0]);
            let r = t.relu(g);
            t.mean_all(r)
        });
    }

    #[test]
    fn grad_mean_rows() {
        grad_check(&[randt(4, 3, 13)], |t, ids| {
            let m = t.mean_rows(ids[0]);
            let sq = t.mul(m, m);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_slice_and_concat_cols() {
        grad_check(&[randt(2, 6, 14)], |t, ids| {
            let a = t.slice_cols(ids[0], 0, 3);
            let b = t.slice_cols(ids[0], 3, 3);
            let swapped = t.concat_cols(&[b, a]);
            let m = t.mul(swapped, swapped);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_concat_rows() {
        grad_check(&[randt(2, 3, 15), randt(3, 3, 16)], |t, ids| {
            let c = t.concat_rows(&[ids[0], ids[1]]);
            let sq = t.mul(c, c);
            t.mean_all(sq)
        });
    }

    #[test]
    fn grad_l2_normalize() {
        grad_check(&[randt(3, 4, 17)], |t, ids| {
            let n = t.l2_normalize_rows(ids[0]);
            let sq = t.mul(n, n);
            let w = t.leaf(randt(4, 1, 18));
            let proj = t.matmul(sq, w);
            t.mean_all(proj)
        });
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check(&[randt(3, 4, 19)], |t, ids| {
            t.cross_entropy_rows(ids[0], vec![0, 2, 3])
        });
    }

    #[test]
    fn grad_attention_shaped_graph() {
        // A miniature single-head attention block, gradient-checked
        // end-to-end: x @ Wq, x @ Wk, x @ Wv, softmax(QK^T/s) V.
        grad_check(
            &[
                randt(4, 3, 22),
                randt(3, 3, 23),
                randt(3, 3, 24),
                randt(3, 3, 25),
            ],
            |t, ids| {
                let q = t.matmul(ids[0], ids[1]);
                let k = t.matmul(ids[0], ids[2]);
                let v = t.matmul(ids[0], ids[3]);
                let kt = t.transpose(k);
                let scores = t.matmul(q, kt);
                let scaled = t.scale(scores, 1.0 / (3.0f32).sqrt());
                let attn = t.softmax_rows(scaled);
                let out = t.matmul(attn, v);
                let sq = t.mul(out, out);
                t.mean_all(sq)
            },
        );
    }

    #[test]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.leaf(randt(2, 2, 26));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.backward(x);
        }));
        assert!(result.is_err());
    }

    /// `backward_from` a matrix root with seed `S` is the gradient of
    /// `sum(root * S)`: checked against finite differences of exactly that
    /// scalar, and against `backward` of the same graph closed with it.
    #[test]
    fn grad_seeded_backward_from_a_matrix_root() {
        let build = |t: &mut Tape, ids: &[NodeId]| {
            let xw = t.matmul(ids[0], ids[1]);
            let h = t.gelu(xw);
            let n = t.layer_norm_rows(h, ids[2], ids[3]);
            t.l2_normalize_rows(n)
        };
        let inputs = [
            randt(3, 4, 40),
            randt(4, 5, 41),
            randt(1, 5, 42),
            randt(1, 5, 43),
        ];
        let seed = randt(3, 5, 44);

        let mut tape = Tape::new();
        let ids: Vec<NodeId> = inputs.iter().map(|t| tape.leaf_ref(t)).collect();
        let root = build(&mut tape, &ids);
        let seeded = tape.backward_from(root, seed.clone());

        let closed = |t: &mut Tape, ids: &[NodeId]| {
            let root = build(t, ids);
            let s = t.constant(seed.clone());
            let weighted = t.mul(root, s);
            let mean = t.mean_all(weighted);
            t.scale(mean, seed.len() as f32)
        };
        grad_check(&inputs, closed);
        let mut tape = Tape::new();
        let closed_ids: Vec<NodeId> = inputs.iter().map(|t| tape.leaf_ref(t)).collect();
        let loss = closed(&mut tape, &closed_ids);
        let whole = tape.backward(loss);
        for (k, (&a, &b)) in ids.iter().zip(&closed_ids).enumerate() {
            let (a, b) = (seeded.get(a).unwrap(), whole.get(b).unwrap());
            for (x, y) in a.data.iter().zip(&b.data) {
                assert!((x - y).abs() < 1e-5, "input {k}: seeded {x} vs closed {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed gradient must have the root's shape")]
    fn backward_from_checks_the_seed_shape() {
        let mut tape = Tape::new();
        let x = tape.leaf(randt(2, 3, 45));
        let y = tape.scale(x, 2.0);
        tape.backward_from(y, randt(3, 2, 46));
    }

    /// Backward keeps what the caller can use — the gradients of
    /// differentiable leaves — and spends nothing on constants, on nodes
    /// built from constants alone, or on keeping interior gradients.
    #[test]
    fn backward_keeps_leaf_gradients_only() {
        let mut tape = Tape::new();
        let x = tape.constant(randt(4, 3, 47));
        let w = tape.leaf(randt(3, 2, 48));
        let table = tape.constant(randt(4, 2, 49));
        let doubled = tape.scale(table, 2.0); // constants only beneath it
        let xw = tape.matmul(x, w);
        let sum = tape.add(xw, doubled);
        let loss = tape.mean_all(sum);
        assert!(!tape.needs_grad[doubled] && tape.needs_grad[xw]);
        let grads = tape.backward(loss);
        assert!(grads.get(w).is_some());
        for (id, what) in [
            (x, "a constant"),
            (table, "a constant"),
            (doubled, "a node over constants"),
            (xw, "an interior node"),
            (sum, "an interior node"),
            (loss, "the root"),
        ] {
            assert!(grads.get(id).is_none(), "{what} kept a gradient");
        }
        // A root with nothing differentiable beneath it has no gradients.
        assert!(tape
            .backward_from(doubled, randt(4, 2, 50))
            .get(table)
            .is_none());
    }

    #[test]
    fn unreached_nodes_have_no_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(randt(2, 2, 27));
        let unused = tape.leaf(randt(2, 2, 28));
        let l = tape.mean_all(x);
        let g = tape.backward(l);
        assert!(g.get(x).is_some());
        assert!(g.get(unused).is_none());
    }

    #[test]
    fn grad_accumulates_over_shared_use() {
        // loss = mean(x + x) → dloss/dx = 2/len.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(2, 2));
        let s = tape.add(x, x);
        let l = tape.mean_all(s);
        let g = tape.backward(l);
        let gx = g.get(x).unwrap();
        for v in &gx.data {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }
}
