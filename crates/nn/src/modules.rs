//! Neural network modules: parameter store, linear layers, multi-head
//! self-attention, transformer encoder blocks, and the trajectory encoder
//! itself — its one forward pass and the backward written against it.
//!
//! Modules are *stateless descriptions*: they own parameter **names** and
//! hyper-parameters, while the parameter **values** live in a [`ParamStore`].
//!
//! There is one forward. [`TrajectoryEncoder::embed_batch`] stacks a
//! batch of sequences and runs them through [`crate::kernels`]: each
//! linear layer is one register-tiled matmul with the bias as its
//! epilogue, attention is one `kernels::attention_block` per sequence,
//! and the row kernels do layer norm and GELU. The instruction set is
//! picked once per call (`kernels::Isa::best`) and handed down, so one
//! call never mixes variants and tests can run the whole encoder on each.
//! Every buffer of the pass belongs to a `BatchWorkspace` parked per
//! thread and re-shaped per call, so in steady state a call allocates
//! only the embeddings it returns.
//!
//! Training runs the same layer code on one clip at a time:
//! [`TrajectoryEncoder::forward_kept`] is the forward with every
//! activation the backward reads copied into a [`KeptForward`] (attention
//! then takes the per-head composition, which hands back each head's
//! softmax and is bit-identical to the fused kernel), and
//! [`TrajectoryEncoder::backward`] differentiates the clip from it into
//! one flat gradient, every parameter's values back to back in name
//! order. Each module's backward sits beside its forward and is a port of
//! the reverse-mode rules the encoder was first trained with, on the
//! forward's kernels: every `Xᵀ·G` and `G·Wᵀ` — and each head's products,
//! over its columns of the Q/K/V buffer — is one view matmul that
//! reads the transposed operand where it lies (`kernels::View`), writing
//! straight into the parameter's slot of the flat gradient; GELU's
//! derivative is a vector row kernel; and the layer-norm and softmax
//! reductions run eight rows side by side, each row still one sequential
//! sum. Every buffer is parked per thread, so a warm backward allocates
//! only the gradient it returns. Where an activation feeds several
//! consumers its gradient adds up in the reverse of the order the forward
//! used it: a residual's skip before its branch, and the attention
//! input's V, K, Q shares in that order. So a seed trains the same bits
//! it always has (`crates/core/tests/model_bits.rs`).

// Index arithmetic is clearer than iterator adapters in the backward
// rules.
#![allow(clippy::needless_range_loop)]

use crate::kernels::{self, AttnShape, Isa, View, ViewMut};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// The layer norm's variance epsilon.
pub(crate) const LN_EPS: f32 = 1e-5;

/// Named parameter tensors. `BTreeMap` keeps iteration order deterministic,
/// which keeps training runs bit-reproducible for a fixed seed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParamStore {
    params: BTreeMap<String, Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter; panics if the name is already taken (module
    /// prefixes must be unique).
    pub fn insert(&mut self, name: impl Into<String>, value: Tensor) {
        let name = name.into();
        let prev = self.params.insert(name.clone(), value);
        assert!(prev.is_none(), "duplicate parameter name {name:?}");
    }

    /// Looks up a parameter.
    pub fn get(&self, name: &str) -> &Tensor {
        self.params
            .get(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))
    }

    /// Mutable lookup (used by optimizers).
    pub fn get_mut(&mut self, name: &str) -> &mut Tensor {
        self.params
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown parameter {name:?}"))
    }

    /// Iterates parameters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Tensor)> {
        self.params.iter()
    }

    /// Names in deterministic order.
    pub fn names(&self) -> Vec<String> {
        self.params.keys().cloned().collect()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.values().map(Tensor::len).sum()
    }
}

/// One clip's flat gradient seen by a module: `ranges[i]` is where the
/// module's `i`-th parameter (in the order its `param_shapes` lists them)
/// lies in `flat`. A module's backward writes every value of its ranges.
struct GradSlots<'a> {
    flat: &'a mut [f32],
    ranges: &'a [Range<usize>],
}

impl GradSlots<'_> {
    /// The slots from the `start`-th on: a sub-module's.
    fn sub(&mut self, start: usize) -> GradSlots<'_> {
        GradSlots {
            flat: &mut *self.flat,
            ranges: &self.ranges[start..],
        }
    }

    /// Slots 0 and 1 (a weight and its bias, a gain and its shift).
    fn pair(&mut self) -> (&mut [f32], &mut [f32]) {
        let (first, second) = (self.ranges[0].clone(), self.ranges[1].clone());
        assert!(first.end <= second.start || second.end <= first.start);
        if first.start < second.start {
            let (low, high) = self.flat.split_at_mut(second.start);
            (&mut low[first], &mut high[..second.len()])
        } else {
            let (low, high) = self.flat.split_at_mut(first.start);
            (&mut high[..first.len()], &mut low[second])
        }
    }
}

/// Overwrites `dst` with a copy of `src`, keeping `dst`'s allocation.
fn keep(dst: &mut Tensor, src: &Tensor) {
    (dst.rows, dst.cols) = (src.rows, src.cols);
    dst.data.clone_from(&src.data);
}

/// Re-shapes `t` to `rows x cols`, allocating only where its capacity
/// falls short (the contents are stale until overwritten).
fn reshape(t: &mut Tensor, rows: usize, cols: usize) {
    t.rows = rows;
    t.cols = cols;
    t.data.resize(rows * cols, 0.0);
}

/// `out[c]` = the sum of column `c` of `g` over its rows, in row order
/// from `+0.0`: a bias's gradient.
fn column_sums(g: View, out: &mut [f32]) {
    out.fill(0.0);
    for r in 0..g.rows() {
        for (o, v) in out.iter_mut().zip(g.row(r)) {
            *o += *v;
        }
    }
}

/// Rows the row-wise reductions of the backward walk side by side.
const ROW_LANES: usize = 8;

/// One column of a group of [`ROW_LANES`] rows: lane `l` is row `l`'s.
type Lanes = [f32; ROW_LANES];

/// Rows `r0..r0 + n` of the `cols`-wide row-major `data` (`n` at most
/// [`ROW_LANES`]), transposed into `out`: `out[c][l]` is row `r0 + l`'s
/// column `c`, lanes past `n` are `0.0`.
fn row_lanes(data: &[f32], cols: usize, (r0, n): (usize, usize), out: &mut Vec<Lanes>) {
    out.clear();
    out.resize(cols, [0.0; ROW_LANES]);
    if cols == 0 {
        return;
    }
    for (l, row) in data[r0 * cols..].chunks_exact(cols).take(n).enumerate() {
        for (lanes, &v) in out.iter_mut().zip(row) {
            lanes[l] = v;
        }
    }
}

/// `sum(c -> term(c)[l])` over `cols` columns, for every lane `l` at
/// once: each lane's one sequential chain from `-0.0` as `Iterator::sum`
/// adds it, so lane `l` has the bits of `(0..cols).map(..).sum()` over
/// its row. The lanes are independent, so their adds run side by side.
fn lane_sums(cols: usize, term: impl Fn(usize) -> Lanes) -> Lanes {
    let mut acc = [-0.0f32; ROW_LANES];
    for c in 0..cols {
        let t = term(c);
        for l in 0..ROW_LANES {
            acc[l] += t[l];
        }
    }
    acc
}

/// A fully connected layer `y = x @ W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    w: String,
    b: String,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Registers freshly initialized weights under `prefix`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = format!("{prefix}.w");
        let b = format!("{prefix}.b");
        store.insert(&w, Tensor::xavier(in_dim, out_dim, rng));
        store.insert(&b, Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// The forward into `out`: `x @ W + b` in one pass (the bias is the
    /// matmul's epilogue). Every output row depends only on its input
    /// row, so stacked batches produce bit-identical rows.
    fn forward_tensor_into(&self, isa: Isa, store: &ParamStore, x: &Tensor, out: &mut Tensor) {
        kernels::matmul_bias_into(isa, x, store.get(&self.w), Some(store.get(&self.b)), out);
    }

    /// [`forward_tensor_into`](Self::forward_tensor_into) into a view —
    /// a column block of a wider buffer — with the same bits.
    fn forward_view_into(&self, isa: Isa, store: &ParamStore, x: View, out: ViewMut) {
        let (w, b) = (View::of(store.get(&self.w)), &store.get(&self.b).data);
        kernels::matmul_bias_view_into(isa, x, w, Some(b), out);
    }

    /// The weight's and the bias's `(name, rows, cols)` for an `in x out`
    /// layer.
    fn param_shapes(&self, rows: usize, cols: usize) -> [(&str, usize, usize); 2] {
        [(&self.w, rows, cols), (&self.b, 1, cols)]
    }

    /// Writes `dL/dW = xᵀ·g` and `dL/db`, the column sums of `g`, into
    /// the layer's two slots, given its input `x` and `g = dL/dy`.
    fn backward_params(&self, isa: Isa, x: View, g: View, grads: &mut GradSlots) {
        let (gw, gb) = grads.pair();
        let (rows, cols) = (x.cols(), g.cols());
        kernels::matmul_view_into(isa, x.t(), g, ViewMut::new(gw, rows, cols, cols));
        column_sums(g, gb);
    }

    /// Writes `dL/dx = g·Wᵀ` into `out`.
    fn backward_input(&self, isa: Isa, store: &ParamStore, g: View, out: ViewMut) {
        kernels::matmul_view_into(isa, g, View::of(store.get(&self.w)).t(), out);
    }
}

/// Learned layer-norm gain/bias pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LayerNorm {
    gamma: String,
    beta: String,
    /// Normalized width.
    pub dim: usize,
}

impl LayerNorm {
    /// Registers gamma=1, beta=0 under `prefix`.
    pub fn new(store: &mut ParamStore, prefix: &str, dim: usize) -> Self {
        let gamma = format!("{prefix}.gamma");
        let beta = format!("{prefix}.beta");
        store.insert(&gamma, Tensor::ones(1, dim));
        store.insert(&beta, Tensor::zeros(1, dim));
        LayerNorm { gamma, beta, dim }
    }

    /// The in-place forward: normalizes every row of `x` through the
    /// vectorized kernel (the strided-summation semantics of
    /// [`crate::kernels`]).
    fn normalize_rows(&self, isa: Isa, store: &ParamStore, x: &mut Tensor) {
        let g = store.get(&self.gamma);
        let b = store.get(&self.beta);
        for r in 0..x.rows {
            kernels::layer_norm_row_on(isa, x.row_mut(r), &g.data, &b.data, LN_EPS);
        }
    }

    /// Gamma's and beta's `(name, rows, cols)` over `dim` columns.
    fn param_shapes(&self, dim: usize) -> [(&str, usize, usize); 2] {
        [(&self.gamma, 1, dim), (&self.beta, 1, dim)]
    }

    /// The layer-norm backward over the forward's input `x` given
    /// `g = dL/dy`: writes `dL/dgamma` and `dL/dbeta` into the two slots
    /// and `dL/dx` into `gx` — added to what `gx` holds with `residual`
    /// (the skip share of a residual, first operand), over it otherwise.
    /// Each row's mean, variance and two reduction terms are plain
    /// iterator sums ([`lane_sums`]), its normalized values recomputed
    /// where they are used rather than kept.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        store: &ParamStore,
        x: &Tensor,
        g: &Tensor,
        gx: &mut Tensor,
        residual: bool,
        grads: &mut GradSlots,
        lanes: &mut [Vec<Lanes>; 2],
    ) {
        let gamma = &store.get(&self.gamma).data[..x.cols];
        let (ggamma, gbeta) = grads.pair();
        ggamma.fill(0.0);
        gbeta.fill(0.0);
        let (rows, cols) = (x.rows, x.cols);
        let n = cols as f32;
        let [xt, gt] = lanes;
        for r0 in (0..rows).step_by(ROW_LANES) {
            let group = (r0, (rows - r0).min(ROW_LANES));
            row_lanes(&x.data, cols, group, xt);
            row_lanes(&g.data, cols, group, gt);
            let mean = lane_sums(cols, |c| xt[c]).map(|s| s / n);
            let var = lane_sums(cols, |c| {
                std::array::from_fn(|l| (xt[c][l] - mean[l]).powi(2))
            });
            let inv_std = var.map(|v| 1.0 / (v / n + LN_EPS).sqrt());
            let dxhat = |c: usize| -> Lanes { std::array::from_fn(|l| gt[c][l] * gamma[c]) };
            let mean_dxhat = lane_sums(cols, dxhat).map(|s| s / n);
            let mean_dxhat_xhat = lane_sums(cols, |c| {
                let d = dxhat(c);
                std::array::from_fn(|l| d[l] * ((xt[c][l] - mean[l]) * inv_std[l]))
            })
            .map(|s| s / n);
            for l in 0..group.1 {
                let r = r0 + l;
                let (xr, gr, gxr) = (x.row(r), g.row(r), &mut gx.row_mut(r)[..cols]);
                for c in 0..cols {
                    let xhat = (xr[c] - mean[l]) * inv_std[l];
                    let dxhat = gr[c] * gamma[c];
                    let v = inv_std[l] * (dxhat - mean_dxhat[l] - xhat * mean_dxhat_xhat[l]);
                    gxr[c] = if residual { gxr[c] + v } else { v };
                    ggamma[c] += gr[c] * xhat;
                    gbeta[c] += gr[c];
                }
            }
        }
    }
}

/// Multi-head scaled dot-product self-attention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    /// Number of attention heads; must divide the model width.
    pub heads: usize,
    /// Model width.
    pub d_model: usize,
}

impl MultiHeadSelfAttention {
    /// Registers projection weights under `prefix`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        prefix: &str,
        d_model: usize,
        heads: usize,
    ) -> Self {
        assert!(d_model.is_multiple_of(heads), "heads must divide d_model");
        MultiHeadSelfAttention {
            wq: Linear::new(store, rng, &format!("{prefix}.wq"), d_model, d_model),
            wk: Linear::new(store, rng, &format!("{prefix}.wk"), d_model, d_model),
            wv: Linear::new(store, rng, &format!("{prefix}.wv"), d_model, d_model),
            wo: Linear::new(store, rng, &format!("{prefix}.wo"), d_model, d_model),
            heads,
            d_model,
        }
    }

    /// The forward over stacked sequence blocks, reading `ws.norm` and
    /// writing `ws.sub`. The Q/K/V projections write the three column
    /// blocks of `ws.qkv` straight from the weights where they lie, one
    /// bias matmul each (every output element is its own ascending-`k`
    /// sum plus its bias, so the blocks hold the bits one fused
    /// `[Wq|Wk|Wv]` matmul would); the attention itself is one
    /// [`kernels::attention_block`] per sequence, so tokens never attend
    /// across batch items and each block's output is bit-identical to the
    /// sequence's alone. All intermediates live in the workspace — the
    /// whole pass allocates nothing. With `kept` (one sequence) the
    /// attention is the per-head composition, which keeps each head's
    /// softmax there ([`heads_kept`](Self::heads_kept)).
    fn forward_blocks_into(
        &self,
        isa: Isa,
        store: &ParamStore,
        seq: usize,
        ws: &mut BatchWorkspace,
        kept: Option<&mut LayerActivations>,
    ) {
        debug_assert_eq!(ws.norm.rows % seq, 0, "rows must stack whole sequences");
        let d = self.d_model;
        for (block, proj) in [&self.wq, &self.wk, &self.wv].into_iter().enumerate() {
            let out = ViewMut::columns(&mut ws.qkv, block * d, d);
            proj.forward_view_into(isa, store, View::of(&ws.norm), out);
        }
        let shape = AttnShape {
            seq,
            d,
            heads: self.heads,
        };
        let scale = 1.0 / ((d / self.heads) as f32).sqrt();
        if let Some(kept) = kept {
            self.heads_kept(isa, seq, scale, ws, kept);
        } else {
            let blocks = ws
                .qkv
                .data
                .chunks_exact(seq * 3 * d)
                .zip(ws.concat.data.chunks_exact_mut(seq * d));
            for (qkv, concat) in blocks {
                kernels::attention_block(isa, qkv, shape, scale, &mut ws.attn, concat);
            }
        }
        self.wo
            .forward_tensor_into(isa, store, &ws.concat, &mut ws.sub);
    }

    /// One sequence's attention with each head's softmax kept: the
    /// per-head composition of [`kernels::attention_block`] — scores,
    /// scale pass, softmax per row, `P·V`, the same arithmetic, so the
    /// same bits — over views of `ws.qkv`, with the scores made in place
    /// in `kept.probs` and each head's output written into its columns of
    /// `ws.concat`; the projection and the concatenated heads are copied
    /// into `kept` after.
    fn heads_kept(
        &self,
        isa: Isa,
        seq: usize,
        scale: f32,
        ws: &mut BatchWorkspace,
        kept: &mut LayerActivations,
    ) {
        let (d, heads) = (self.d_model, self.heads);
        let dh = d / heads;
        debug_assert_eq!(ws.qkv.rows, seq, "one sequence");
        kept.probs.resize(heads * seq * seq, 0.0);
        for (h, probs) in kept.probs.chunks_exact_mut(seq * seq).enumerate() {
            let c0 = h * dh;
            let (qh, kh) = (
                View::columns(&ws.qkv, c0, dh),
                View::columns(&ws.qkv, d + c0, dh),
            );
            kernels::matmul_view_into(isa, qh, kh.t(), ViewMut::new(probs, seq, seq, seq));
            for p in probs.iter_mut() {
                *p *= scale;
            }
            for row in probs.chunks_exact_mut(seq) {
                kernels::softmax_row_on(isa, row);
            }
            let (p, vh) = (
                View::new(probs, seq, seq, seq),
                View::columns(&ws.qkv, 2 * d + c0, dh),
            );
            kernels::matmul_view_into(isa, p, vh, ViewMut::columns(&mut ws.concat, c0, dh));
        }
        keep(&mut kept.qkv, &ws.qkv);
        keep(&mut kept.concat, &ws.concat);
    }

    /// The backward of one sequence's attention given `g = dL/d output`
    /// and the input `n1`: writes the four projections' gradients and
    /// `dL/d n1` into `g_n1`. Each head's Q, K and V gradients are
    /// products written straight into its columns of `ws.qkv` (a sum
    /// from `+0.0` is never `-0.0`, so these are the bits that adding
    /// zero-padded per-head tensors gave); the three projections' input
    /// shares are then added V, K, Q.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        isa: Isa,
        store: &ParamStore,
        n1: &Tensor,
        kept: &LayerActivations,
        g: &Tensor,
        g_n1: &mut Tensor,
        ws: &mut AttnGrads,
        lanes: &mut [Vec<Lanes>; 2],
        grads: &mut GradSlots,
    ) {
        let (seq, d, heads) = (n1.rows, self.d_model, self.heads);
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let g = View::of(g);
        self.wo
            .backward_params(isa, View::of(&kept.concat), g, &mut grads.sub(6));
        self.wo
            .backward_input(isa, store, g, ViewMut::of(&mut ws.concat));
        for h in 0..heads {
            let c0 = h * dh;
            let qh = View::columns(&kept.qkv, c0, dh);
            let kh = View::columns(&kept.qkv, d + c0, dh);
            let vh = View::columns(&kept.qkv, 2 * d + c0, dh);
            let p = View::new(&kept.probs[h * seq * seq..][..seq * seq], seq, seq, seq);
            let g_head = View::columns(&ws.concat, c0, dh);
            // head = P·V, P = softmax(scores * scale), scores = Q·Kᵀ.
            let g_p = ViewMut::of(&mut ws.scores);
            kernels::matmul_view_into(isa, g_head, vh.t(), g_p);
            let g_vh = ViewMut::columns(&mut ws.qkv, 2 * d + c0, dh);
            kernels::matmul_view_into(isa, p.t(), g_head, g_vh);
            let p = &kept.probs[h * seq * seq..][..seq * seq];
            softmax_backward(p, &mut ws.scores, scale, lanes);
            let g_scores = View::of(&ws.scores);
            let g_qh = ViewMut::columns(&mut ws.qkv, c0, dh);
            kernels::matmul_view_into(isa, g_scores, kh, g_qh);
            // dL/dK_h = (Q_hᵀ·G)ᵀ: the product, then its transpose into
            // the head's K columns.
            kernels::matmul_view_into(isa, qh.t(), g_scores, ViewMut::of(&mut ws.kt));
            for (i, row) in ws.kt.data.chunks_exact(seq).enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    ws.qkv.data[j * 3 * d + d + c0 + i] = v;
                }
            }
        }
        let projections = [(&self.wq, 0), (&self.wk, 2), (&self.wv, 4)];
        for (proj, slot) in projections {
            let g_proj = View::columns(&ws.qkv, slot / 2 * d, d);
            proj.backward_params(isa, View::of(n1), g_proj, &mut grads.sub(slot));
        }
        for (proj, slot) in projections.into_iter().rev() {
            let g_proj = View::columns(&ws.qkv, slot / 2 * d, d);
            if slot == 4 {
                proj.backward_input(isa, store, g_proj, ViewMut::of(g_n1));
            } else {
                proj.backward_input(isa, store, g_proj, ViewMut::of(&mut ws.share));
                for (a, b) in g_n1.data.iter_mut().zip(&ws.share.data) {
                    *a += *b;
                }
            }
        }
    }
}

/// `dL/d scores` of a row-wise softmax times `scale`, in place over
/// `g = dL/dP` given the softmax `p`: `p * (g - dot(p, g))` per row.
fn softmax_backward(p: &[f32], g: &mut Tensor, scale: f32, lanes: &mut [Vec<Lanes>; 2]) {
    let (rows, cols) = (g.rows, g.cols);
    let [pt, gt] = lanes;
    for r0 in (0..rows).step_by(ROW_LANES) {
        let group = (r0, (rows - r0).min(ROW_LANES));
        row_lanes(p, cols, group, pt);
        row_lanes(&g.data, cols, group, gt);
        let dot = lane_sums(cols, |c| std::array::from_fn(|l| pt[c][l] * gt[c][l]));
        for l in 0..group.1 {
            let pr = &p[(r0 + l) * cols..][..cols];
            for (gv, &pv) in g.row_mut(r0 + l).iter_mut().zip(pr) {
                *gv = pv * (*gv - dot[l]) * scale;
            }
        }
    }
}

/// `dL/dx` of row-wise L2 normalization `y = x / |x|` given `g = dL/dy`,
/// written into `out`.
fn l2_backward(x: &Tensor, y: &Tensor, g: &Tensor, out: &mut Tensor) {
    for r in 0..x.rows {
        let xr = x.row(r);
        let yr = y.row(r);
        let gr = g.row(r);
        let n = xr.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-8);
        let dot: f32 = yr.iter().zip(gr).map(|(yv, gv)| yv * gv).sum();
        for (c, o) in out.row_mut(r).iter_mut().enumerate() {
            *o = (gr[c] - yr[c] * dot) / n;
        }
    }
}

/// Every buffer of one batched forward pass, input stack to output
/// embeddings, parked in a thread-local between
/// [`TrajectoryEncoder::embed_batch`] calls. Buffers keep their
/// allocation and are re-shaped per call, so once a thread has embedded
/// its largest batch, every later call — a scan's ragged last batch and
/// the full one after it included — allocates only the vectors it
/// returns. Every buffer is fully overwritten before it is read, so
/// stale contents are harmless.
#[derive(Default)]
struct BatchWorkspace {
    /// The batch's feature matrices, stacked (`rows x input_dim`).
    stacked: Tensor,
    /// The residual stream (`rows x d_model`).
    x: Tensor,
    /// Layer-norm output feeding attention / feed-forward (`rows x d_model`).
    norm: Tensor,
    /// The Q, K and V projections side by side (`rows x 3*d_model`).
    qkv: Tensor,
    /// Concatenated head outputs (`rows x d_model`).
    concat: Tensor,
    /// Sub-block result: attention or feed-forward output (`rows x d_model`).
    sub: Tensor,
    /// Feed-forward hidden activations (`rows x ff_hidden`).
    hidden: Tensor,
    /// One sequence's attention scratch ([`kernels::attention_scratch_len`]).
    attn: Vec<f32>,
    /// Pooled sequences (`batch x d_model`).
    pooled: Tensor,
    /// Output projections, normalized in place (`batch x embed_dim`).
    out: Tensor,
}

thread_local! {
    /// Workspace parked between [`TrajectoryEncoder::embed_batch`] calls.
    static PARKED_WORKSPACE: std::cell::RefCell<Option<BatchWorkspace>> =
        const { std::cell::RefCell::new(None) };
    /// The backward's buffers and gradient layout, parked between
    /// [`TrajectoryEncoder::backward`] calls.
    static PARKED_BACKWARD: std::cell::RefCell<Option<(GradWorkspace, GradLayout)>> =
        const { std::cell::RefCell::new(None) };
}

impl BatchWorkspace {
    /// Shapes every buffer for `batch` sequences through an encoder of
    /// `config`; allocates only where a buffer's capacity falls short.
    fn shape(&mut self, batch: usize, config: &EncoderConfig) {
        let (rows, d) = (batch * config.steps, config.d_model);
        reshape(&mut self.stacked, rows, config.input_dim);
        reshape(&mut self.x, rows, d);
        reshape(&mut self.norm, rows, d);
        reshape(&mut self.qkv, rows, 3 * d);
        reshape(&mut self.concat, rows, d);
        reshape(&mut self.sub, rows, d);
        reshape(&mut self.hidden, rows, config.ff_hidden);
        self.attn.resize(
            kernels::attention_scratch_len(config.steps, d / config.heads),
            0.0,
        );
        reshape(&mut self.pooled, batch, d);
        reshape(&mut self.out, batch, config.embed_dim);
    }
}

/// The backward's buffers for one clip, re-shaped per call; every one is
/// written before it is read.
#[derive(Default)]
struct GradWorkspace {
    /// The residual stream's gradient (`steps x d_model`).
    g: Tensor,
    /// A layer norm's output gradient, the input gradient of the block
    /// after it (`steps x d_model`).
    g_norm: Tensor,
    /// The feed-forward hidden layer's gradient, before and then after
    /// GELU (`steps x ff_hidden`).
    g_hidden: Tensor,
    /// Attention's buffers.
    attn: AttnGrads,
    /// Two groups of rows, transposed for the row reductions of the
    /// layer-norm and softmax backwards (`d_model` or `steps` columns).
    lanes: [Vec<Lanes>; 2],
    /// The gradient of the output projection (`1 x embed_dim`) and of the
    /// pooled row (`1 x d_model`).
    g_out: Tensor,
    g_pooled: Tensor,
}

/// Attention's backward buffers.
#[derive(Default)]
struct AttnGrads {
    /// The concatenated heads' gradient (`steps x d_model`).
    concat: Tensor,
    /// One head's softmax gradient, then its scores' (`steps x steps`).
    scores: Tensor,
    /// One head's K gradient, transposed (`head width x steps`).
    kt: Tensor,
    /// The fused `[Q|K|V]` projection's gradient (`steps x 3*d_model`).
    qkv: Tensor,
    /// One projection's share of the input gradient (`steps x d_model`).
    share: Tensor,
}

impl GradWorkspace {
    /// Shapes every buffer for one sequence through an encoder of
    /// `config`.
    fn shape(&mut self, config: &EncoderConfig) {
        let (t, d) = (config.steps, config.d_model);
        reshape(&mut self.g, t, d);
        reshape(&mut self.g_norm, t, d);
        reshape(&mut self.g_hidden, t, config.ff_hidden);
        reshape(&mut self.attn.concat, t, d);
        reshape(&mut self.attn.scores, t, t);
        reshape(&mut self.attn.kt, d / config.heads, t);
        reshape(&mut self.attn.qkv, t, 3 * d);
        reshape(&mut self.attn.share, t, d);
        reshape(&mut self.g_out, 1, config.embed_dim);
        reshape(&mut self.g_pooled, 1, d);
    }
}

/// Where each of an encoder's parameters lies in its flat gradient (in
/// name order, [`TrajectoryEncoder::grad_layout`]), listed in the
/// encoder's forward order, and the parameter list it was worked out
/// for: re-used while an encoder names the same parameters at the same
/// shapes, worked out again otherwise.
#[derive(Default)]
struct GradLayout {
    params: Vec<(String, usize, usize)>,
    ranges: Vec<Range<usize>>,
    len: usize,
}

impl GradLayout {
    /// Makes this the layout of `encoder`'s flat gradient.
    fn fit(&mut self, encoder: &TrajectoryEncoder) {
        let mut same = true;
        let mut count = 0;
        encoder.visit_params(&mut |name, rows, cols| {
            same &= self
                .params
                .get(count)
                .is_some_and(|(n, r, c)| (n.as_str(), *r, *c) == (name, rows, cols));
            count += 1;
        });
        if same && count == self.params.len() {
            return;
        }
        let params = encoder.param_shapes();
        self.ranges = vec![0..0; params.len()];
        self.len = 0;
        for i in name_order(&params) {
            let (_, rows, cols) = params[i];
            self.ranges[i] = self.len..self.len + rows * cols;
            self.len += rows * cols;
        }
        self.params = params
            .iter()
            .map(|&(name, rows, cols)| (name.to_string(), rows, cols))
            .collect();
    }
}

/// The indices of `params` (an encoder's `param_shapes`) in name order:
/// the order of the parameters in a flat gradient.
fn name_order(params: &[(&str, usize, usize)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..params.len()).collect();
    order.sort_by_key(|&i| params[i].0);
    order
}

/// One clip's training forward ([`TrajectoryEncoder::forward_kept`]):
/// its embedding and every activation [`TrajectoryEncoder::backward`]
/// reads. Filled again clip after clip, it keeps its allocations.
#[derive(Default)]
pub struct KeptForward {
    layers: Vec<LayerActivations>,
    /// The final layer norm's input.
    last: Tensor,
    /// The pooled row, the output projection's input.
    pooled: Tensor,
    /// The output projection before L2 normalization.
    out: Tensor,
    /// The embedding: `out` normalized.
    embedding: Tensor,
}

impl KeptForward {
    /// Nothing kept yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The clip's embedding, bit for bit what
    /// [`TrajectoryEncoder::embed`] returns.
    pub fn embedding(&self) -> &[f32] {
        &self.embedding.data
    }
}

/// One encoder layer's kept activations.
#[derive(Default)]
struct LayerActivations {
    /// `ln1`'s input (the layer's input) and output.
    x: Tensor,
    n1: Tensor,
    /// The fused `[Q|K|V]` projection.
    qkv: Tensor,
    /// Head `h`'s softmax at `h * seq * seq`.
    probs: Vec<f32>,
    /// The concatenated head outputs, `wo`'s input.
    concat: Tensor,
    /// `ln2`'s input (after the attention residual) and output.
    mid: Tensor,
    n2: Tensor,
    /// `lin1`'s output before and after GELU.
    pre: Tensor,
    hidden: Tensor,
}

/// Position-wise feed-forward block with GELU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
}

impl FeedForward {
    /// Registers the two projections under `prefix`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        prefix: &str,
        d_model: usize,
        hidden: usize,
    ) -> Self {
        FeedForward {
            lin1: Linear::new(store, rng, &format!("{prefix}.lin1"), d_model, hidden),
            lin2: Linear::new(store, rng, &format!("{prefix}.lin2"), hidden, d_model),
        }
    }

    /// The forward `lin2(gelu(lin1(x)))` reading `ws.norm`, writing
    /// `ws.sub`, with the GELU applied in place by the vectorized kernel;
    /// with `kept`, the hidden layer before and after GELU is copied there.
    fn forward_tensor_into(
        &self,
        isa: Isa,
        store: &ParamStore,
        ws: &mut BatchWorkspace,
        mut kept: Option<&mut LayerActivations>,
    ) {
        self.lin1
            .forward_tensor_into(isa, store, &ws.norm, &mut ws.hidden);
        if let Some(kept) = kept.as_deref_mut() {
            keep(&mut kept.pre, &ws.hidden);
        }
        kernels::gelu_inplace_on(isa, &mut ws.hidden.data);
        if let Some(kept) = kept {
            keep(&mut kept.hidden, &ws.hidden);
        }
        self.lin2
            .forward_tensor_into(isa, store, &ws.hidden, &mut ws.sub);
    }

    /// The backward given `g = dL/d output` and the input `n2`: writes
    /// both projections' gradients and `dL/d n2` into `g_n2`.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        isa: Isa,
        store: &ParamStore,
        n2: &Tensor,
        kept: &LayerActivations,
        g: &Tensor,
        g_n2: &mut Tensor,
        g_hidden: &mut Tensor,
        grads: &mut GradSlots,
    ) {
        let g = View::of(g);
        self.lin2
            .backward_params(isa, View::of(&kept.hidden), g, &mut grads.sub(2));
        self.lin2
            .backward_input(isa, store, g, ViewMut::of(g_hidden));
        kernels::gelu_backward_on(isa, &kept.pre.data, &mut g_hidden.data);
        let g_pre = View::of(g_hidden);
        self.lin1
            .backward_params(isa, View::of(n2), g_pre, &mut grads.sub(0));
        self.lin1
            .backward_input(isa, store, g_pre, ViewMut::of(g_n2));
    }
}

/// One pre-norm transformer encoder layer:
/// `x + attn(ln1(x))`, then `x + ff(ln2(x))`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderLayer {
    attn: MultiHeadSelfAttention,
    ff: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl EncoderLayer {
    /// Parameters per layer: four projections and two feed-forward
    /// layers (a weight and a bias each) and two layer norms (a gain and
    /// a shift each).
    const PARAMS: usize = 16;

    /// Registers the layer's parameters under `prefix`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        prefix: &str,
        d_model: usize,
        heads: usize,
        ff_hidden: usize,
    ) -> Self {
        EncoderLayer {
            attn: MultiHeadSelfAttention::new(
                store,
                rng,
                &format!("{prefix}.attn"),
                d_model,
                heads,
            ),
            ff: FeedForward::new(store, rng, &format!("{prefix}.ff"), d_model, ff_hidden),
            ln1: LayerNorm::new(store, &format!("{prefix}.ln1"), d_model),
            ln2: LayerNorm::new(store, &format!("{prefix}.ln2"), d_model),
        }
    }

    /// The in-place forward over stacked sequences (see
    /// [`MultiHeadSelfAttention::forward_blocks_into`]); `ws.x` is updated
    /// through both residual additions. With `kept` (one sequence), every
    /// activation the backward reads is copied there.
    fn forward_tensor_blocks(
        &self,
        isa: Isa,
        store: &ParamStore,
        seq: usize,
        ws: &mut BatchWorkspace,
        mut kept: Option<&mut LayerActivations>,
    ) {
        ws.norm.data.copy_from_slice(&ws.x.data);
        self.ln1.normalize_rows(isa, store, &mut ws.norm);
        if let Some(kept) = kept.as_deref_mut() {
            keep(&mut kept.x, &ws.x);
            keep(&mut kept.n1, &ws.norm);
        }
        self.attn
            .forward_blocks_into(isa, store, seq, ws, kept.as_deref_mut());
        for (xi, ai) in ws.x.data.iter_mut().zip(&ws.sub.data) {
            *xi += *ai;
        }
        ws.norm.data.copy_from_slice(&ws.x.data);
        self.ln2.normalize_rows(isa, store, &mut ws.norm);
        if let Some(kept) = kept.as_deref_mut() {
            keep(&mut kept.mid, &ws.x);
            keep(&mut kept.n2, &ws.norm);
        }
        self.ff.forward_tensor_into(isa, store, ws, kept);
        for (xi, fi) in ws.x.data.iter_mut().zip(&ws.sub.data) {
            *xi += *fi;
        }
    }

    /// The backward in place: `ws.g` holds `dL/d output` and is left
    /// holding `dL/d input`, every parameter's gradient written into
    /// `grads`. A residual's input gradient is its skip share plus its
    /// branch's, added in that order.
    fn backward(
        &self,
        isa: Isa,
        store: &ParamStore,
        kept: &LayerActivations,
        ws: &mut GradWorkspace,
        grads: &mut GradSlots,
    ) {
        let (ff, ln1, ln2) = (8, 12, 14);
        let (g, g_norm, lanes) = (&mut ws.g, &mut ws.g_norm, &mut ws.lanes);
        self.ff.backward(
            isa,
            store,
            &kept.n2,
            kept,
            g,
            g_norm,
            &mut ws.g_hidden,
            &mut grads.sub(ff),
        );
        self.ln2.backward(
            store,
            &kept.mid,
            g_norm,
            g,
            true,
            &mut grads.sub(ln2),
            lanes,
        );
        self.attn.backward(
            isa,
            store,
            &kept.n1,
            kept,
            g,
            g_norm,
            &mut ws.attn,
            lanes,
            grads,
        );
        self.ln1
            .backward(store, &kept.x, g_norm, g, true, &mut grads.sub(ln1), lanes);
    }
}

/// Sinusoidal positional encoding matrix `T x d`.
pub fn sinusoidal_positions(steps: usize, dim: usize) -> Tensor {
    let mut t = Tensor::zeros(steps, dim);
    for pos in 0..steps {
        for i in 0..dim {
            let rate = 1.0 / 10_000f32.powf((2 * (i / 2)) as f32 / dim as f32);
            let angle = pos as f32 * rate;
            t.data[pos * dim + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    t
}

/// Hyper-parameters of the trajectory encoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Width of one input token (from the feature extractor).
    pub input_dim: usize,
    /// Transformer model width.
    pub d_model: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Number of encoder layers.
    pub layers: usize,
    /// Feed-forward hidden width.
    pub ff_hidden: usize,
    /// Output embedding width.
    pub embed_dim: usize,
    /// Number of time steps the encoder expects.
    pub steps: usize,
    /// Whether to add sinusoidal positional encodings (ablatable).
    pub positional: bool,
    /// Sequence pooling strategy (ablatable).
    pub pooling: Pooling,
}

/// How the token sequence is reduced to one embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pooling {
    /// Mean over time steps (the paper's choice).
    Mean,
    /// Take the final time step only.
    Last,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            input_dim: 32, // sketchql_trajectory::TOKEN_DIM
            d_model: 32,
            heads: 4,
            layers: 2,
            ff_hidden: 64,
            embed_dim: 32,
            steps: 32,
            positional: true,
            pooling: Pooling::Mean,
        }
    }
}

/// Why a [`ParamStore`] cannot drive a [`TrajectoryEncoder`]
/// ([`TrajectoryEncoder::check_params`]): the message names the parameter,
/// or the setting, that disagrees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamMismatch(pub String);

impl std::fmt::Display for ParamMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParamMismatch {}

/// The SketchQL trajectory encoder: a transformer that embeds a multi-object
/// bounding box clip (as a `steps x input_dim` feature matrix) into a single
/// L2-normalized vector. Cosine similarity between two embeddings is the
/// learned clip similarity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrajectoryEncoder {
    /// The encoder's hyper-parameters.
    pub config: EncoderConfig,
    input_proj: Linear,
    layers: Vec<EncoderLayer>,
    final_ln: LayerNorm,
    out_proj: Linear,
    positions: Tensor,
}

impl TrajectoryEncoder {
    /// Registers a freshly initialized encoder under `prefix`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        rng: &mut R,
        prefix: &str,
        config: EncoderConfig,
    ) -> Self {
        let input_proj = Linear::new(
            store,
            rng,
            &format!("{prefix}.in"),
            config.input_dim,
            config.d_model,
        );
        let layers = (0..config.layers)
            .map(|i| {
                EncoderLayer::new(
                    store,
                    rng,
                    &format!("{prefix}.layer{i}"),
                    config.d_model,
                    config.heads,
                    config.ff_hidden,
                )
            })
            .collect();
        let final_ln = LayerNorm::new(store, &format!("{prefix}.final_ln"), config.d_model);
        let out_proj = Linear::new(
            store,
            rng,
            &format!("{prefix}.out"),
            config.d_model,
            config.embed_dim,
        );
        let positions = sinusoidal_positions(config.steps, config.d_model);
        TrajectoryEncoder {
            config,
            input_proj,
            layers,
            final_ln,
            out_proj,
            positions,
        }
    }

    /// Every parameter the encoder reads, as `(name, rows, cols)`: the
    /// names its modules hold, in forward order, at the shapes its
    /// configuration implies.
    pub(crate) fn param_shapes(&self) -> Vec<(&str, usize, usize)> {
        let mut shapes = Vec::new();
        self.visit_params(&mut |name, rows, cols| shapes.push((name, rows, cols)));
        shapes
    }

    /// Calls `f` on each of [`param_shapes`](Self::param_shapes), in
    /// order, without collecting them.
    fn visit_params<'a>(&'a self, f: &mut impl FnMut(&'a str, usize, usize)) {
        let c = &self.config;
        let (d, ff) = (c.d_model, c.ff_hidden);
        let mut visit = |shapes: [(&'a str, usize, usize); 2]| {
            for (name, rows, cols) in shapes {
                f(name, rows, cols);
            }
        };
        visit(self.input_proj.param_shapes(c.input_dim, d));
        for layer in &self.layers {
            let attn = &layer.attn;
            for proj in [&attn.wq, &attn.wk, &attn.wv, &attn.wo] {
                visit(proj.param_shapes(d, d));
            }
            visit(layer.ff.lin1.param_shapes(d, ff));
            visit(layer.ff.lin2.param_shapes(ff, d));
            visit(layer.ln1.param_shapes(d));
            visit(layer.ln2.param_shapes(d));
        }
        visit(self.final_ln.param_shapes(d));
        visit(self.out_proj.param_shapes(d, c.embed_dim));
    }

    /// The layout of the flat gradient [`backward`](Self::backward)
    /// returns: the encoder's parameters as `(name, rows, cols)` in name
    /// order (the [`ParamStore`]'s), their gradients back to back.
    pub fn grad_layout(&self) -> Vec<(&str, usize, usize)> {
        let shapes = self.param_shapes();
        name_order(&shapes).into_iter().map(|i| shapes[i]).collect()
    }

    /// Checks that this encoder can run over `store`: its configuration
    /// is runnable and agrees with its layers and positional table, and
    /// the store holds exactly the parameters it reads, each at the shape
    /// the configuration implies. A model read from a file passes this
    /// before anything embeds with it, so a renamed or mis-shaped weight
    /// is an error naming it, not a panic at the first query.
    pub fn check_params(&self, store: &ParamStore) -> Result<(), ParamMismatch> {
        let c = &self.config;
        let fail = |why: String| Err(ParamMismatch(why));
        if c.steps == 0 || c.heads == 0 || !c.d_model.is_multiple_of(c.heads) {
            return fail(format!(
                "encoder config is not runnable: {} steps, {} heads over width {}",
                c.steps, c.heads, c.d_model
            ));
        }
        if self.layers.len() != c.layers {
            return fail(format!(
                "encoder has {} layers, its config says {}",
                self.layers.len(),
                c.layers
            ));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            if (layer.attn.heads, layer.attn.d_model) != (c.heads, c.d_model) {
                return fail(format!(
                    "layer {i} attends with {} heads over width {}, the config says {} over {}",
                    layer.attn.heads, layer.attn.d_model, c.heads, c.d_model
                ));
            }
        }
        if (self.positions.rows, self.positions.cols) != (c.steps, c.d_model) {
            return fail(format!(
                "positional table is {}x{}, the config needs {}x{}",
                self.positions.rows, self.positions.cols, c.steps, c.d_model
            ));
        }
        let shapes = self.param_shapes();
        for &(name, rows, cols) in &shapes {
            match store.params.get(name) {
                None => return fail(format!("parameter {name:?} is missing")),
                Some(t) if (t.rows, t.cols) != (rows, cols) => {
                    return fail(format!(
                        "parameter {name:?} is {}x{}, the encoder needs {rows}x{cols}",
                        t.rows, t.cols
                    ))
                }
                Some(_) => {}
            }
        }
        if let Some(name) = store
            .params
            .keys()
            .find(|k| shapes.iter().all(|s| s.0 != *k))
        {
            return fail(format!("parameter {name:?} is not one the encoder reads"));
        }
        if store.params.len() != shapes.len() {
            return fail("the encoder names one parameter twice".to_string());
        }
        Ok(())
    }

    /// Inference helper: embeds a raw feature matrix, returning the
    /// vector. This is [`embed_batch`](Self::embed_batch) of one.
    pub fn embed(&self, store: &ParamStore, features: &Tensor) -> Vec<f32> {
        self.embed_batch(store, &[features])
            .pop()
            .expect("one embedding per input")
    }

    /// Embeds a batch of `steps x input_dim` feature matrices in one
    /// stacked forward pass.
    ///
    /// All N sequences are stacked into a single `(N * steps) x input_dim`
    /// matrix, so every linear projection in every layer runs as one
    /// batched matmul over all rows; attention and pooling are computed
    /// per sequence block. Because every underlying op is row-local (or
    /// block-local), each row is **bit-identical** to embedding that item
    /// alone, and so independent of what else is in the batch — the
    /// matcher's embedding cache relies on this to keep cached search
    /// results byte-identical to the uncached path.
    pub fn embed_batch(&self, store: &ParamStore, batch: &[&Tensor]) -> Vec<Vec<f32>> {
        self.embed_batch_on(Isa::best(), store, batch)
    }

    /// [`embed_batch`](Self::embed_batch) on a chosen instruction set
    /// (tests run every one the CPU has).
    fn embed_batch_on(&self, isa: Isa, store: &ParamStore, batch: &[&Tensor]) -> Vec<Vec<f32>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut ws = PARKED_WORKSPACE
            .with(|cell| cell.borrow_mut().take())
            .unwrap_or_default();
        self.stack(&mut ws, batch);
        self.forward_on(isa, store, &mut ws, None);
        let embeddings = (0..batch.len()).map(|r| ws.out.row(r).to_vec()).collect();
        PARKED_WORKSPACE.with(|cell| *cell.borrow_mut() = Some(ws));
        embeddings
    }

    /// Shapes `ws` for `batch` and stacks its feature matrices into
    /// `ws.stacked`.
    fn stack(&self, ws: &mut BatchWorkspace, batch: &[&Tensor]) {
        let (t, d_in) = (self.config.steps, self.config.input_dim);
        for f in batch {
            assert_eq!(f.cols, d_in, "feature width mismatch");
            assert_eq!(f.rows, t, "feature steps mismatch");
        }
        ws.shape(batch.len(), &self.config);
        for (f, rows) in batch.iter().zip(ws.stacked.data.chunks_exact_mut(t * d_in)) {
            rows.copy_from_slice(&f.data);
        }
    }

    /// The encoder's one forward pass, from the sequences stacked in
    /// `ws.stacked` to their unit embeddings in `ws.out` (the pooled rows
    /// stay in `ws.pooled`). With `kept` (one sequence), every activation
    /// the backward reads and the workspace overwrites is copied there.
    fn forward_on(
        &self,
        isa: Isa,
        store: &ParamStore,
        ws: &mut BatchWorkspace,
        mut kept: Option<&mut KeptForward>,
    ) {
        let (t, d, n) = (self.config.steps, self.config.d_model, ws.out.rows);
        self.input_proj
            .forward_tensor_into(isa, store, &ws.stacked, &mut ws.x);
        if self.config.positional {
            for b in 0..n {
                for r in 0..t {
                    let row = ws.x.row_mut(b * t + r);
                    for (xi, pi) in row.iter_mut().zip(self.positions.row(r)) {
                        *xi += *pi;
                    }
                }
            }
        }
        if let Some(kept) = kept.as_deref_mut() {
            kept.layers
                .resize_with(self.layers.len(), LayerActivations::default);
        }
        for (i, layer) in self.layers.iter().enumerate() {
            let layer_kept = kept.as_deref_mut().map(|k| &mut k.layers[i]);
            layer.forward_tensor_blocks(isa, store, t, ws, layer_kept);
        }
        if let Some(kept) = kept.as_deref_mut() {
            keep(&mut kept.last, &ws.x);
        }
        self.final_ln.normalize_rows(isa, store, &mut ws.x);
        match self.config.pooling {
            Pooling::Mean => {
                for b in 0..n {
                    let out = ws.pooled.row_mut(b);
                    out.fill(0.0);
                    for r in 0..t {
                        let row = &ws.x.data[(b * t + r) * d..(b * t + r + 1) * d];
                        for (o, v) in out.iter_mut().zip(row) {
                            *o += *v;
                        }
                    }
                    for o in out.iter_mut() {
                        *o /= t as f32;
                    }
                }
            }
            Pooling::Last => {
                for b in 0..n {
                    ws.pooled
                        .row_mut(b)
                        .copy_from_slice(ws.x.row(b * t + t - 1));
                }
            }
        }
        self.out_proj
            .forward_tensor_into(isa, store, &ws.pooled, &mut ws.out);
        if let Some(kept) = kept.as_deref_mut() {
            keep(&mut kept.pooled, &ws.pooled);
            keep(&mut kept.out, &ws.out);
        }
        for r in 0..n {
            let row = ws.out.row_mut(r);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-8);
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
        if let Some(kept) = kept {
            keep(&mut kept.embedding, &ws.out);
        }
    }

    /// Training's forward for one clip: the forward of
    /// [`embed`](Self::embed) — the same embedding, bit for bit — keeping
    /// in `kept` every activation [`backward`](Self::backward) reads.
    pub fn forward_kept(&self, store: &ParamStore, features: &Tensor, kept: &mut KeptForward) {
        self.forward_kept_on(Isa::best(), store, features, kept);
    }

    /// [`forward_kept`](Self::forward_kept) on a chosen instruction set.
    fn forward_kept_on(
        &self,
        isa: Isa,
        store: &ParamStore,
        features: &Tensor,
        kept: &mut KeptForward,
    ) {
        let mut ws = PARKED_WORKSPACE
            .with(|cell| cell.borrow_mut().take())
            .unwrap_or_default();
        self.stack(&mut ws, &[features]);
        self.forward_on(isa, store, &mut ws, Some(kept));
        PARKED_WORKSPACE.with(|cell| *cell.borrow_mut() = Some(ws));
    }

    /// Training's backward for one clip: given its `features`, what
    /// [`forward_kept`](Self::forward_kept) kept of them, and
    /// `d_embedding = dL/d embedding` (`1 x embed_dim`), the gradient of
    /// every parameter, flat, laid out by
    /// [`grad_layout`](Self::grad_layout). Its buffers are parked per
    /// thread, so a thread differentiating clip after clip allocates only
    /// what it returns. Features and positions are constants: no
    /// gradient.
    pub fn backward(
        &self,
        store: &ParamStore,
        features: &Tensor,
        kept: &KeptForward,
        d_embedding: &Tensor,
    ) -> Vec<f32> {
        self.backward_on(Isa::best(), store, features, kept, d_embedding)
    }

    /// [`backward`](Self::backward) on a chosen instruction set.
    fn backward_on(
        &self,
        isa: Isa,
        store: &ParamStore,
        features: &Tensor,
        kept: &KeptForward,
        d_embedding: &Tensor,
    ) -> Vec<f32> {
        let (mut gws, mut layout) = PARKED_BACKWARD
            .with(|cell| cell.borrow_mut().take())
            .unwrap_or_default();
        layout.fit(self);
        gws.shape(&self.config);

        let mut flat = vec![0.0; layout.len];
        let mut grads = GradSlots {
            flat: &mut flat,
            ranges: &layout.ranges,
        };
        let last = layout.ranges.len() - 4;
        let (final_ln, out_proj) = (last, last + 2);
        l2_backward(&kept.out, &kept.embedding, d_embedding, &mut gws.g_out);
        let g_out = View::of(&gws.g_out);
        self.out_proj
            .backward_params(isa, View::of(&kept.pooled), g_out, &mut grads.sub(out_proj));
        self.out_proj
            .backward_input(isa, store, g_out, ViewMut::of(&mut gws.g_pooled));
        let (t, g_pooled) = (self.config.steps, &gws.g_pooled.data);
        match self.config.pooling {
            Pooling::Mean => {
                let inv = 1.0 / t as f32;
                for row in gws.g_norm.data.chunks_exact_mut(g_pooled.len()) {
                    for (g, p) in row.iter_mut().zip(g_pooled) {
                        *g = p * inv;
                    }
                }
            }
            Pooling::Last => {
                gws.g_norm.data.fill(0.0);
                gws.g_norm.row_mut(t - 1).copy_from_slice(g_pooled);
            }
        }
        self.final_ln.backward(
            store,
            &kept.last,
            &gws.g_norm,
            &mut gws.g,
            false,
            &mut grads.sub(final_ln),
            &mut gws.lanes,
        );
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let first = 2 + i * EncoderLayer::PARAMS;
            layer.backward(isa, store, &kept.layers[i], &mut gws, &mut grads.sub(first));
        }
        self.input_proj
            .backward_params(isa, View::of(features), View::of(&gws.g), &mut grads);
        PARKED_BACKWARD.with(|cell| *cell.borrow_mut() = Some((gws, layout)));
        flat
    }
}

/// Cosine similarity between two equal-length vectors.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine on unequal lengths");
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na <= 1e-12 || nb <= 1e-12 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// `(cosine_similarity(query, row) + 1) / 2` — cosine mapped to `[0, 1]`
/// — for each of the `scores.len()` rows of `query.len()` floats laid
/// back to back in `rows`, bit for bit (a NaN score stays NaN, though
/// which NaN may differ: when two NaNs meet, the compiler's operand order
/// picks the payload).
///
/// Rows run side by side, one lane each — sixteen to a vector on
/// AVX-512, the ragged last block masked, eight to an array elsewhere: a
/// lane sums its own products in index order from `-0.0` (where
/// `Iterator::sum` over `f32` starts), exactly as the scalar form does,
/// and maps the sums to the score in the lane, so no score moves by a
/// bit; the independent chains just stop waiting on each other's adds.
/// The query's norm is summed once per call.
pub fn cosine_scores(query: &[f32], rows: &[f32], scores: &mut [f32]) {
    kernels::cosine_scores_on(Isa::best(), query, rows, scores);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn param_store_registration_and_lookup() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut store, &mut r, "test", 4, 3);
        assert_eq!(store.get("test.w").rows, 4);
        assert_eq!(store.get("test.b").cols, 3);
        assert_eq!(lin.in_dim, 4);
        assert_eq!(store.num_scalars(), 4 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_names_rejected() {
        let mut store = ParamStore::new();
        store.insert("x", Tensor::zeros(1, 1));
        store.insert("x", Tensor::zeros(1, 1));
    }

    #[test]
    fn linear_forward_shape_and_value() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut store, &mut r, "l", 3, 2);
        let mut v = Tensor::zeros(5, 2);
        lin.forward_tensor_into(Isa::best(), &store, &Tensor::ones(5, 3), &mut v);
        // y = 1-vector @ W + b = column sums of W (b = 0).
        let w = store.get("l.w");
        let expect0: f32 = (0..3).map(|i| w.row(i)[0]).sum();
        assert!((v.row(0)[0] - expect0).abs() < 1e-5);
    }

    #[test]
    fn attention_output_shape() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let attn = MultiHeadSelfAttention::new(&mut store, &mut r, "a", 8, 2);
        let mut ws = workspace(&block_config());
        ws.norm = Tensor::xavier(5, 8, &mut r);
        attn.forward_blocks_into(Isa::best(), &store, 5, &mut ws, None);
        assert_eq!((ws.sub.rows, ws.sub.cols), (5, 8));
        assert!(ws.sub.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn attention_head_divisibility() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let _ = MultiHeadSelfAttention::new(&mut store, &mut r, "a", 10, 3);
    }

    #[test]
    fn sinusoidal_positions_properties() {
        let p = sinusoidal_positions(16, 8);
        assert_eq!((p.rows, p.cols), (16, 8));
        // Row 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
        assert_eq!(p.row(0)[0], 0.0);
        assert_eq!(p.row(0)[1], 1.0);
        // Values bounded by 1.
        assert!(p.data.iter().all(|x| x.abs() <= 1.0));
        // Distinct rows differ.
        assert_ne!(p.row(1), p.row(2));
    }

    #[test]
    fn encoder_embeds_unit_vectors() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cfg = EncoderConfig {
            input_dim: 12,
            d_model: 16,
            heads: 2,
            layers: 2,
            ff_hidden: 32,
            embed_dim: 8,
            steps: 10,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
        let feats = Tensor::xavier(10, 12, &mut r);
        let e = enc.embed(&store, &feats);
        assert_eq!(e.len(), 8);
        let n: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(
            (n - 1.0).abs() < 1e-4,
            "embedding should be unit norm, got {n}"
        );
    }

    #[test]
    fn encoder_is_deterministic() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cfg = EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 4,
            steps: 5,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
        let feats = Tensor::xavier(5, 6, &mut r);
        assert_eq!(enc.embed(&store, &feats), enc.embed(&store, &feats));
    }

    #[test]
    fn encoder_distinguishes_inputs() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cfg = EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 8,
            steps: 5,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
        let a = enc.embed(&store, &Tensor::xavier(5, 6, &mut r));
        let b = enc.embed(&store, &Tensor::xavier(5, 6, &mut r));
        assert!(cosine_similarity(&a, &b) < 0.999);
    }

    #[test]
    fn positional_encoding_changes_output_for_permuted_input() {
        // Without positions, mean-pooling a 1-layer transformer is almost
        // permutation invariant; with positions the embedding must change
        // when we reverse time.
        let mut store = ParamStore::new();
        let mut r = rng();
        let cfg = EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 8,
            steps: 6,
            positional: true,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
        let f = Tensor::xavier(6, 6, &mut r);
        let mut rev = f.clone();
        for i in 0..6 {
            rev.row_mut(i).copy_from_slice(f.row(5 - i));
        }
        // Make sure the input actually changed.
        assert_ne!(f, rev);
        let ea = enc.embed(&store, &f);
        let eb = enc.embed(&store, &rev);
        assert!(cosine_similarity(&ea, &eb) < 0.9999);
    }

    #[test]
    fn last_pooling_differs_from_mean_pooling() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let base = EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 8,
            steps: 6,
            ..Default::default()
        };
        let enc_mean = TrajectoryEncoder::new(
            &mut store,
            &mut r,
            "m",
            EncoderConfig {
                pooling: Pooling::Mean,
                ..base.clone()
            },
        );
        let enc_last = TrajectoryEncoder::new(
            &mut store,
            &mut r,
            "l",
            EncoderConfig {
                pooling: Pooling::Last,
                ..base
            },
        );
        let f = Tensor::xavier(6, 6, &mut r);
        // Different params and pooling: embeddings differ but both are unit.
        let a = enc_mean.embed(&store, &f);
        let b = enc_last.embed(&store, &f);
        assert_eq!(a.len(), b.len());
        assert!((a.iter().map(|x| x * x).sum::<f32>().sqrt() - 1.0).abs() < 1e-4);
        assert!((b.iter().map(|x| x * x).sum::<f32>().sqrt() - 1.0).abs() < 1e-4);
    }

    /// FNV-1a over the bit patterns of every embedding, in order.
    fn embedding_hash(embeddings: &[Vec<f32>]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in embeddings
            .iter()
            .flatten()
            .flat_map(|v| v.to_bits().to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// `embedding_hash` of `embed_batch_matches_embed_exactly`'s
    /// embeddings, one per configuration. These and the two below were
    /// captured from the reverse-mode tape's forward before it was
    /// deleted; the forward has not moved a bit since.
    const SMALL_EMBEDDINGS: [u64; 3] = [
        0x504a_d7f7_589e_1598,
        0x0286_97bd_e06f_1fd5,
        0x6afa_c83b_fc40_7541,
    ];
    /// The same in `embed_batch_matches_the_tape_at_the_shapes_that_ship`,
    /// per encoder and object count.
    const SHIPPED_EMBEDDINGS: [u64; 6] = [
        0xf7c4_dd17_4fc7_1070,
        0x26b1_26bc_8297_7b69,
        0x68c8_7cbe_c532_3ef0,
        0xb825_970d_a2cc_48c1,
        0x34e1_7b89_48eb_0849,
        0xa642_3717_2f2c_80d0,
    ];
    /// The same for `embed_batch_of_empty_and_one`'s one clip.
    const ONE_EMBEDDING: u64 = 0x7b86_3632_1a63_4021;

    #[test]
    fn embed_batch_matches_embed_exactly() {
        // The cached matcher path depends on bit-identical agreement, so
        // this asserts exact equality, not approximate closeness — across
        // pooling modes and with positions on and off, and against bits
        // pinned from the first forward this encoder had.
        let mut r = rng();
        for ((pooling, positional), pinned) in [
            (Pooling::Mean, true),
            (Pooling::Mean, false),
            (Pooling::Last, true),
        ]
        .into_iter()
        .zip(SMALL_EMBEDDINGS)
        {
            let mut store = ParamStore::new();
            let cfg = EncoderConfig {
                input_dim: 6,
                d_model: 8,
                heads: 2,
                layers: 2,
                ff_hidden: 16,
                embed_dim: 4,
                steps: 5,
                positional,
                pooling,
            };
            let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
            let feats: Vec<Tensor> = (0..7).map(|_| Tensor::xavier(5, 6, &mut r)).collect();
            let refs: Vec<&Tensor> = feats.iter().collect();
            let batched = enc.embed_batch(&store, &refs);
            assert_eq!(batched.len(), feats.len());
            assert_eq!(embedding_hash(&batched), pinned, "{pooling:?}/{positional}");
            for (f, b) in feats.iter().zip(&batched) {
                assert_eq!(&enc.embed(&store, f), b, "{pooling:?}/{positional}");
            }
        }
    }

    /// `steps x 32` features as the extractor writes them for a clip of
    /// `objects` objects: that many 8-column slots occupied, the rest of
    /// the row exactly zero.
    fn slot_features(r: &mut StdRng, steps: usize, objects: usize) -> Tensor {
        let mut t = Tensor::xavier(steps, 32, r);
        for row in 0..steps {
            t.row_mut(row)[8 * objects..].fill(0.0);
        }
        t
    }

    /// The small-shape test above never fills a vector tile. This one runs
    /// the encoders that ship — `TrainingConfig::default()`'s,
    /// `EncoderConfig::default()` and `TrainingConfig::tiny()`'s — on every
    /// instruction set the CPU has, with batches that shrink and grow one
    /// parked workspace (a scan's ragged tail, a full batch, more than a
    /// full batch, a lone query), against bits pinned from the tape
    /// forward the encoder was first trained with.
    #[test]
    fn embed_batch_matches_the_tape_at_the_shapes_that_ship() {
        let training_default = EncoderConfig {
            d_model: 48,
            heads: 4,
            layers: 3,
            ff_hidden: 96,
            embed_dim: 48,
            ..Default::default()
        };
        let training_tiny = EncoderConfig {
            d_model: 16,
            heads: 2,
            layers: 1,
            ff_hidden: 32,
            embed_dim: 16,
            steps: 16,
            ..Default::default()
        };
        let mut r = rng();
        let mut pinned = SHIPPED_EMBEDDINGS.into_iter();
        for cfg in [training_default, EncoderConfig::default(), training_tiny] {
            let mut store = ParamStore::new();
            let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg.clone());
            for objects in [1, 2] {
                let feats: Vec<Tensor> = (0..67)
                    .map(|_| slot_features(&mut r, cfg.steps, objects))
                    .collect();
                let refs: Vec<&Tensor> = feats.iter().collect();
                let want = enc.embed_batch_on(Isa::Scalar, &store, &refs);
                assert_eq!(
                    embedding_hash(&want),
                    pinned.next().unwrap(),
                    "d_model {} x {objects} objects",
                    cfg.d_model
                );
                for isa in Isa::supported() {
                    for n in [64, 53, 67, 1, 64] {
                        assert_eq!(
                            enc.embed_batch_on(isa, &store, &refs[..n]),
                            want[..n],
                            "d_model {} x {objects} objects, batch {n}, {isa:?}",
                            cfg.d_model
                        );
                    }
                }
                assert_eq!(enc.embed_batch(&store, &refs), want);
            }
        }
    }

    /// Training's forward is the inference forward: `forward_kept`'s
    /// embedding equals `embed_batch`'s, bit for bit, on every instruction
    /// set, at the encoders that ship and the small test shape — though
    /// its attention is the per-head composition over views and keeps
    /// every head's softmax, where inference runs the fused kernel.
    #[test]
    fn forward_kept_embeds_as_embed_batch_does() {
        let mut r = rng();
        let training_default = EncoderConfig {
            d_model: 48,
            heads: 4,
            layers: 3,
            ff_hidden: 96,
            embed_dim: 48,
            ..Default::default()
        };
        for cfg in [training_default, EncoderConfig::default(), block_config()] {
            let mut store = ParamStore::new();
            let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg.clone());
            let mut kept = KeptForward::new();
            for objects in [1, 2] {
                let f = match cfg.input_dim {
                    32 => slot_features(&mut r, cfg.steps, objects),
                    width => Tensor::xavier(cfg.steps, width, &mut r),
                };
                for isa in Isa::supported() {
                    let want = enc.embed_batch_on(isa, &store, &[&f]).remove(0);
                    enc.forward_kept_on(isa, &store, &f, &mut kept);
                    assert_eq!(kept.embedding(), want, "d_model {} {isa:?}", cfg.d_model);
                    assert_eq!(kept.embedding(), enc.embed(&store, &f));
                }
            }
        }
    }

    #[test]
    fn embed_batch_of_empty_and_one() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cfg = EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 4,
            steps: 5,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
        assert!(enc.embed_batch(&store, &[]).is_empty());
        let f = Tensor::xavier(5, 6, &mut r);
        assert_eq!(
            embedding_hash(&enc.embed_batch(&store, &[&f])),
            ONE_EMBEDDING
        );
    }

    #[test]
    fn cosine_similarity_bounds_and_identity() {
        let a = vec![1.0, 2.0, 3.0];
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
        let b = vec![-1.0, -2.0, -3.0];
        assert!((cosine_similarity(&a, &b) + 1.0).abs() < 1e-6);
        let zero = vec![0.0; 3];
        assert_eq!(cosine_similarity(&a, &zero), 0.0);
    }

    /// The lane scorer against the scalar form it replaces, bit for bit,
    /// on every instruction set the CPU has: every width 1..=70 (lane
    /// multiples and not), every batch size 0..=17 and a few past 32
    /// (empty, ragged, two full blocks and a tail at both lane counts),
    /// and rows that hold ±0.0, NaN, ±∞ and subnormals, all-zero rows,
    /// and an all-zero query.
    #[test]
    fn cosine_scores_equal_the_scalar_cosine_bit_for_bit() {
        use rand::Rng;
        let mut r = rng();
        let special = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::MAX,
        ];
        let value = |r: &mut StdRng| {
            if r.gen_bool(0.05) {
                special[r.gen_range(0..special.len())]
            } else {
                r.gen_range(-1.0f32..1.0)
            }
        };
        let mut compared = 0;
        for dim in 1..=70 {
            for n in (0..=17).chain([31, 32, 33, 37]) {
                let mut rows: Vec<f32> = (0..n * dim).map(|_| value(&mut r)).collect();
                if n > 2 {
                    rows[dim..2 * dim].fill(0.0);
                    rows[2 * dim..3 * dim].fill(-0.0);
                }
                let random: Vec<f32> = (0..dim).map(|_| r.gen_range(-1.0f32..1.0)).collect();
                let tiny = vec![f32::MIN_POSITIVE / 8.0; dim];
                for (query, isa) in [random, vec![0.0; dim], tiny]
                    .iter()
                    .flat_map(|q| Isa::supported().map(move |isa| (q, isa)))
                {
                    let mut got = vec![f32::NAN; n];
                    kernels::cosine_scores_on(isa, query, &rows, &mut got);
                    for (i, row) in rows.chunks_exact(dim).enumerate() {
                        let want = (cosine_similarity(query, row) + 1.0) * 0.5;
                        // NaN payloads are the one thing the compiler's
                        // choice of operand order may change, so a NaN
                        // need only stay a NaN.
                        let same = if want.is_nan() {
                            got[i].is_nan()
                        } else {
                            got[i].to_bits() == want.to_bits()
                        };
                        assert!(
                            same,
                            "{isa:?} dim {dim} rows {n} row {i}: {} vs {want}",
                            got[i]
                        );
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 10_000);
        cosine_scores(&[], &[], &mut []);
        let mut empty_rows = [f32::NAN; 3];
        cosine_scores(&[], &[], &mut empty_rows);
        assert_eq!(
            empty_rows, [0.5; 3],
            "a zero-width row scores a cosine of 0"
        );
    }

    #[test]
    fn gradients_flow_to_all_encoder_params() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cfg = EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 4,
            steps: 5,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
        let features = Tensor::xavier(5, 6, &mut r);
        // A seed that is not parallel to the embedding, so the L2
        // backward does not cancel it.
        let seed = Tensor::from_vec(1, 4, vec![1.0, -2.0, 0.5, 3.0]);
        let grads = encoder_grads(&enc, &store, &features, &seed);
        assert_eq!(grads.keys().cloned().collect::<Vec<_>>(), store.names());
        for (name, g) in &grads {
            assert_eq!(
                (g.rows, g.cols),
                (store.get(name).rows, store.get(name).cols)
            );
            assert!(
                g.data.iter().all(|v| v.is_finite()),
                "non-finite grad for {name}"
            );
            assert!(g.data.iter().any(|&v| v != 0.0), "zero grad for {name}");
        }
    }

    /// The backward's shapes: one sequence of 5 steps at width 8 over 2
    /// heads, feed-forward width 16.
    fn block_config() -> EncoderConfig {
        EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 4,
            steps: 5,
            ..Default::default()
        }
    }

    fn workspace(config: &EncoderConfig) -> BatchWorkspace {
        let mut ws = BatchWorkspace::default();
        ws.shape(1, config);
        ws
    }

    /// Per-parameter gradients, by name.
    type Grads = BTreeMap<String, Tensor>;

    /// Runs `backward` into a flat buffer laid out for `shapes` (a
    /// module's parameters in its forward order), pre-filled with NaN so
    /// a value it leaves unwritten fails the check, and returns the
    /// gradients by name.
    fn by_name(shapes: &[(&str, usize, usize)], backward: impl FnOnce(&mut GradSlots)) -> Grads {
        let mut ranges = Vec::new();
        let mut len = 0;
        for &(_, rows, cols) in shapes {
            ranges.push(len..len + rows * cols);
            len += rows * cols;
        }
        let mut flat = vec![f32::NAN; len];
        backward(&mut GradSlots {
            flat: &mut flat,
            ranges: &ranges,
        });
        let tensors = shapes.iter().zip(&ranges);
        tensors
            .map(|(&(name, rows, cols), range)| {
                let values = flat[range.clone()].to_vec();
                (name.to_string(), Tensor::from_vec(rows, cols, values))
            })
            .collect()
    }

    /// [`TrajectoryEncoder::backward`]'s flat gradient, by name.
    fn encoder_grads(
        enc: &TrajectoryEncoder,
        store: &ParamStore,
        features: &Tensor,
        seed: &Tensor,
    ) -> Grads {
        let mut kept = KeptForward::new();
        enc.forward_kept(store, features, &mut kept);
        let flat = enc.backward(store, features, &kept, seed);
        let mut rest = &flat[..];
        let grads = enc.grad_layout().into_iter().map(|(name, rows, cols)| {
            let values;
            (values, rest) = rest.split_at(rows * cols);
            (
                name.to_string(),
                Tensor::from_vec(rows, cols, values.to_vec()),
            )
        });
        let grads = grads.collect();
        assert!(rest.is_empty(), "the layout covers the flat gradient");
        grads
    }

    /// A fresh backward workspace shaped for `config`.
    fn grad_workspace(config: &EncoderConfig) -> GradWorkspace {
        let mut ws = GradWorkspace::default();
        ws.shape(config);
        ws
    }

    /// `sum(y * seed)` in `f64`: the scalar every finite-difference check
    /// differentiates, so `seed` is `dL/dy`.
    fn weighted(y: &Tensor, seed: &Tensor) -> f64 {
        assert_eq!((y.rows, y.cols), (seed.rows, seed.cols));
        y.data
            .iter()
            .zip(&seed.data)
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum()
    }

    /// Central differences of `loss` at every element of every parameter
    /// in `store` and of `x`, against the analytic `grads` (which must
    /// name every parameter) and `g_x`.
    #[track_caller]
    fn check_against_finite_differences(
        what: &str,
        store: &ParamStore,
        x: &Tensor,
        grads: &Grads,
        g_x: Option<&Tensor>,
        loss: impl Fn(&ParamStore, &Tensor) -> f64,
    ) {
        assert_eq!(
            grads.keys().cloned().collect::<Vec<_>>(),
            store.names(),
            "{what}"
        );
        let eps = 1e-3f32;
        let check = |label: &str, analytic: &Tensor, eval: &mut dyn FnMut(usize, f32) -> f64| {
            for i in 0..analytic.len() {
                let plus = eval(i, eps);
                let minus = eval(i, -eps);
                let numeric = ((plus - minus) / f64::from(2.0 * eps)) as f32;
                let a = analytic.data[i];
                let tol = 1e-2 * (1.0 + a.abs().max(numeric.abs()));
                assert!(
                    (a - numeric).abs() < tol,
                    "{what}: {label}[{i}] analytic {a} vs numeric {numeric}"
                );
            }
        };
        let mut s = store.clone();
        for (name, g) in grads {
            check(name, g, &mut |i, delta| {
                let original = s.get(name).data[i];
                s.get_mut(name).data[i] = original + delta;
                let l = loss(&s, x);
                s.get_mut(name).data[i] = original;
                l
            });
        }
        if let Some(g_x) = g_x {
            let mut x = x.clone();
            check("input", g_x, &mut |i, delta| {
                let original = x.data[i];
                x.data[i] = original + delta;
                let l = loss(store, &x);
                x.data[i] = original;
                l
            });
        }
    }

    #[test]
    fn grad_linear() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut r, "l", 6, 4);
        store.get_mut("l.b").data = vec![0.3, -0.2, 0.1, 0.5];
        let (x, seed) = (Tensor::xavier(5, 6, &mut r), Tensor::xavier(5, 4, &mut r));
        let isa = Isa::best();
        let mut g_x = Tensor::zeros(5, 6);
        let grads = by_name(&lin.param_shapes(6, 4), |grads| {
            lin.backward_params(isa, View::of(&x), View::of(&seed), grads);
            lin.backward_input(isa, &store, View::of(&seed), ViewMut::of(&mut g_x));
        });
        check_against_finite_differences("linear", &store, &x, &grads, Some(&g_x), |s, x| {
            let mut y = Tensor::zeros(5, 4);
            lin.forward_tensor_into(Isa::Scalar, s, x, &mut y);
            weighted(&y, &seed)
        });
    }

    #[test]
    fn grad_layer_norm() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let ln = LayerNorm::new(&mut store, "n", 8);
        store.get_mut("n.gamma").data = Tensor::xavier(1, 8, &mut r).data;
        store.get_mut("n.beta").data = Tensor::xavier(1, 8, &mut r).data;
        let (x, seed) = (Tensor::xavier(5, 8, &mut r), Tensor::xavier(5, 8, &mut r));
        let mut g_x = Tensor::zeros(5, 8);
        let grads = by_name(&ln.param_shapes(8), |grads| {
            ln.backward(
                &store,
                &x,
                &seed,
                &mut g_x,
                false,
                grads,
                &mut Default::default(),
            );
        });
        check_against_finite_differences("layer norm", &store, &x, &grads, Some(&g_x), |s, x| {
            let mut y = x.clone();
            ln.normalize_rows(Isa::Scalar, s, &mut y);
            weighted(&y, &seed)
        });
    }

    /// Attention's backward, softmax included, through the per-head
    /// composition the training forward runs.
    #[test]
    fn grad_attention() {
        let mut r = rng();
        let cfg = block_config();
        let mut store = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut store, &mut r, "a", cfg.d_model, cfg.heads);
        let (x, seed) = (Tensor::xavier(5, 8, &mut r), Tensor::xavier(5, 8, &mut r));
        let forward = |s: &ParamStore, x: &Tensor, kept: Option<&mut LayerActivations>| {
            let mut ws = workspace(&cfg);
            ws.norm = x.clone();
            attn.forward_blocks_into(Isa::Scalar, s, cfg.steps, &mut ws, kept);
            ws.sub
        };
        let mut kept = LayerActivations::default();
        forward(&store, &x, Some(&mut kept));
        let mut g_x = Tensor::zeros(5, 8);
        let shapes: Vec<_> = [&attn.wq, &attn.wk, &attn.wv, &attn.wo]
            .iter()
            .flat_map(|proj| proj.param_shapes(8, 8))
            .collect();
        let mut ws = grad_workspace(&cfg).attn;
        let grads = by_name(&shapes, |grads| {
            let isa = Isa::best();
            let lanes = &mut Default::default();
            attn.backward(
                isa, &store, &x, &kept, &seed, &mut g_x, &mut ws, lanes, grads,
            );
        });
        check_against_finite_differences("attention", &store, &x, &grads, Some(&g_x), |s, x| {
            weighted(&forward(s, x, None), &seed)
        });
    }

    /// The feed-forward block's backward, GELU included.
    #[test]
    fn grad_feed_forward() {
        let mut r = rng();
        let cfg = block_config();
        let mut store = ParamStore::new();
        let ff = FeedForward::new(&mut store, &mut r, "f", cfg.d_model, cfg.ff_hidden);
        let (x, seed) = (Tensor::xavier(5, 8, &mut r), Tensor::xavier(5, 8, &mut r));
        let forward = |s: &ParamStore, x: &Tensor, kept: Option<&mut LayerActivations>| {
            let mut ws = workspace(&cfg);
            ws.norm = x.clone();
            ff.forward_tensor_into(Isa::Scalar, s, &mut ws, kept);
            ws.sub
        };
        let mut kept = LayerActivations::default();
        forward(&store, &x, Some(&mut kept));
        let (mut g_x, mut g_hidden) = (Tensor::zeros(5, 8), Tensor::zeros(5, 16));
        let mut shapes = Vec::from(ff.lin1.param_shapes(8, 16));
        shapes.extend(ff.lin2.param_shapes(16, 8));
        let grads = by_name(&shapes, |grads| {
            let isa = Isa::best();
            ff.backward(
                isa,
                &store,
                &x,
                &kept,
                &seed,
                &mut g_x,
                &mut g_hidden,
                grads,
            );
        });
        check_against_finite_differences("feed-forward", &store, &x, &grads, Some(&g_x), |s, x| {
            weighted(&forward(s, x, None), &seed)
        });
    }

    /// A whole layer: both residuals, both layer norms.
    #[test]
    fn grad_encoder_layer() {
        let mut r = rng();
        let cfg = block_config();
        let mut store = ParamStore::new();
        let layer = EncoderLayer::new(&mut store, &mut r, "e", 8, cfg.heads, cfg.ff_hidden);
        let (x, seed) = (Tensor::xavier(5, 8, &mut r), Tensor::xavier(5, 8, &mut r));
        let forward = |s: &ParamStore, x: &Tensor, kept: Option<&mut LayerActivations>| {
            let mut ws = workspace(&cfg);
            ws.x = x.clone();
            layer.forward_tensor_blocks(Isa::Scalar, s, cfg.steps, &mut ws, kept);
            ws.x
        };
        let mut kept = LayerActivations::default();
        forward(&store, &x, Some(&mut kept));
        let mut shapes: Vec<_> = [
            &layer.attn.wq,
            &layer.attn.wk,
            &layer.attn.wv,
            &layer.attn.wo,
        ]
        .iter()
        .flat_map(|proj| proj.param_shapes(8, 8))
        .collect();
        shapes.extend(layer.ff.lin1.param_shapes(8, 16));
        shapes.extend(layer.ff.lin2.param_shapes(16, 8));
        shapes.extend(layer.ln1.param_shapes(8));
        shapes.extend(layer.ln2.param_shapes(8));
        let mut ws = grad_workspace(&cfg);
        ws.g = seed.clone();
        let grads = by_name(&shapes, |grads| {
            layer.backward(Isa::best(), &store, &kept, &mut ws, grads);
        });
        let g_x = ws.g;
        check_against_finite_differences("layer", &store, &x, &grads, Some(&g_x), |s, x| {
            weighted(&forward(s, x, None), &seed)
        });
    }

    /// [`TrajectoryEncoder::backward`] end to end — input projection,
    /// positions, two layers, final norm, pooling, output projection and
    /// L2 — with positions on and off, under both poolings.
    #[test]
    fn grad_whole_encoder() {
        let mut r = rng();
        for positional in [true, false] {
            for pooling in [Pooling::Mean, Pooling::Last] {
                let cfg = EncoderConfig {
                    layers: 2,
                    positional,
                    pooling,
                    ..block_config()
                };
                let mut store = ParamStore::new();
                let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
                let features = Tensor::xavier(5, 6, &mut r);
                let seed = Tensor::xavier(1, 4, &mut r);
                let grads = encoder_grads(&enc, &store, &features, &seed);
                let what = format!("encoder, positional {positional}, {pooling:?}");
                check_against_finite_differences(&what, &store, &features, &grads, None, |s, f| {
                    let e = enc.embed_batch_on(Isa::Scalar, s, &[f]).remove(0);
                    weighted(&Tensor::from_vec(1, 4, e), &seed)
                });
            }
        }
    }

    /// A store that does not fit the encoder is an error naming what
    /// disagrees: a renamed parameter, a self-consistent but wrong shape,
    /// a parameter no layer reads, a config the layers contradict.
    #[test]
    fn check_params_names_the_parameter_that_disagrees() {
        let mut store = ParamStore::new();
        let enc = TrajectoryEncoder::new(&mut store, &mut rng(), "enc", block_config());
        assert_eq!(enc.check_params(&store), Ok(()));
        assert_eq!(enc.param_shapes().len(), store.names().len());
        let fails = |enc: &TrajectoryEncoder, store: &ParamStore, why: &str| {
            let err = enc.check_params(store).expect_err(why).to_string();
            assert!(err.contains(why), "{err:?} does not say {why:?}");
        };

        let mut renamed = store.clone();
        let w = renamed.params.remove("enc.in.w").unwrap();
        renamed.insert("enc.in.x", w);
        fails(&enc, &renamed, "parameter \"enc.in.w\" is missing");

        let mut reshaped = store.clone();
        *reshaped.get_mut("enc.in.w") = Tensor::zeros(3, 3);
        fails(
            &enc,
            &reshaped,
            "\"enc.in.w\" is 3x3, the encoder needs 6x8",
        );

        let mut extra = store.clone();
        extra.insert("enc.spare", Tensor::zeros(1, 1));
        fails(&enc, &extra, "\"enc.spare\" is not one the encoder reads");

        let mut wide = enc.clone();
        wide.config.d_model = 16;
        fails(&wide, &store, "layer 0 attends with 2 heads over width 8");
        let mut odd = enc.clone();
        odd.config.heads = 3;
        fails(&odd, &store, "3 heads over width 8");
        let mut long = enc.clone();
        long.config.steps = 6;
        fails(
            &long,
            &store,
            "positional table is 5x8, the config needs 6x8",
        );
        let mut deep = enc;
        deep.config.layers = 2;
        fails(&deep, &store, "encoder has 1 layers, its config says 2");
    }

    #[test]
    fn encoder_serde_round_trip_preserves_outputs() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let cfg = EncoderConfig {
            input_dim: 6,
            d_model: 8,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            embed_dim: 4,
            steps: 5,
            ..Default::default()
        };
        let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg);
        let json_enc = serde_json::to_string(&enc).unwrap();
        let json_store = serde_json::to_string(&store).unwrap();
        let enc2: TrajectoryEncoder = serde_json::from_str(&json_enc).unwrap();
        let store2: ParamStore = serde_json::from_str(&json_store).unwrap();
        let feats = Tensor::xavier(5, 6, &mut r);
        assert_eq!(enc.embed(&store, &feats), enc2.embed(&store2, &feats));
    }

    #[test]
    fn num_scalars_counts_everything() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let _ = MultiHeadSelfAttention::new(&mut store, &mut r, "a", 8, 2);
        // 4 linear layers of 8x8 weights + 8 biases.
        assert_eq!(store.num_scalars(), 4 * (64 + 8));
    }

    #[test]
    fn param_store_serde_round_trip() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let _ = Linear::new(&mut store, &mut r, "l", 3, 2);
        let json = serde_json::to_string(&store).unwrap();
        let back: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(store, back);
    }
}
