//! Neural network modules: parameter store, graph binding, linear layers,
//! multi-head self-attention, transformer encoder blocks, and the
//! trajectory encoder itself.
//!
//! Modules are *stateless descriptions*: they own parameter **names** and
//! hyper-parameters, while the parameter **values** live in a [`ParamStore`].
//! A forward pass binds store values (borrowed, not copied) onto a fresh
//! [`Tape`] through a [`Graph`] and reads per-parameter gradients back out
//! by name; a training step builds one small graph per clip.
//!
//! Inference builds no tape. [`TrajectoryEncoder::embed_batch`] stacks a
//! batch of sequences and runs the same arithmetic, in the same order,
//! through [`crate::kernels`]: each linear layer is one register-tiled
//! matmul with the bias as its epilogue, attention is one
//! `kernels::attention_block` per sequence, and the row kernels do layer
//! norm and GELU. The instruction set is picked once per call
//! (`kernels::Isa::best`) and handed down, so one call never mixes
//! variants and tests can run the whole encoder on each. Every buffer of
//! the pass belongs to a `BatchWorkspace` parked per thread and re-shaped
//! per call, so in steady state a call allocates only the embeddings it
//! returns. The result is `==`-equal to the tape forward, row by row.

use crate::kernels::{self, AttnShape, Isa};
use crate::tape::{Gradients, NodeId, Tape};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::collections::HashMap;

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

/// A forward-pass context: a tape plus the binding of parameter names to
/// tape nodes. Parameters are borrowed from the store, never copied, so a
/// graph per clip is as cheap as its activations.
pub struct Graph<'s> {
    /// The underlying autograd tape; modules may record extra ops directly.
    pub tape: Tape<'s>,
    store: &'s ParamStore,
    bound: HashMap<String, NodeId>,
}

impl<'s> Graph<'s> {
    /// Starts a fresh graph over a parameter store.
    pub fn new(store: &'s ParamStore) -> Self {
        Graph {
            tape: Tape::new(),
            store,
            bound: HashMap::new(),
        }
    }

    /// Binds (or reuses) the node holding parameter `name`.
    pub fn param(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.bound.get(name) {
            return id;
        }
        let id = self.tape.leaf_ref(self.store.get(name));
        self.bound.insert(name.to_string(), id);
        id
    }

    /// Inserts a non-trainable input tensor; backward computes no gradient
    /// for it (differentiate w.r.t. an input with [`Tape::leaf`]).
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.tape.constant(t)
    }

    /// Runs backward from the scalar `loss` and collects gradients per
    /// parameter name.
    pub fn grads_by_name(&self, loss: NodeId) -> HashMap<String, Tensor> {
        self.by_name(self.tape.backward(loss))
    }

    /// [`Graph::grads_by_name`] from a root of any shape, seeded with a
    /// downstream scalar's gradient w.r.t. it ([`Tape::backward_from`]).
    pub fn grads_by_name_from(&self, root: NodeId, seed: Tensor) -> HashMap<String, Tensor> {
        self.by_name(self.tape.backward_from(root, seed))
    }

    fn by_name(&self, mut grads: Gradients) -> HashMap<String, Tensor> {
        self.bound
            .iter()
            .filter_map(|(name, &id)| grads.take(id).map(|g| (name.clone(), g)))
            .collect()
    }
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

    /// `x (T x in) -> T x out`.
    pub fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let w = g.param(&self.w);
        let b = g.param(&self.b);
        let xw = g.tape.matmul(x, w);
        g.tape.add_row_broadcast(xw, b)
    }

    /// Tape-free inference forward into `out`: `x @ W + b` in one pass
    /// (the bias is the matmul's epilogue), replicating the tape ops'
    /// per-row arithmetic exactly. Every output row depends only on its
    /// input row, so stacked batches produce bit-identical rows.
    fn forward_tensor_into(&self, isa: Isa, store: &ParamStore, x: &Tensor, out: &mut Tensor) {
        kernels::matmul_bias_into(isa, x, store.get(&self.w), Some(store.get(&self.b)), out);
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

    /// Row-wise layer norm.
    pub fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let gamma = g.param(&self.gamma);
        let beta = g.param(&self.beta);
        g.tape.layer_norm_rows(x, gamma, beta)
    }

    /// Tape-free in-place inference forward: normalizes every row of `x`
    /// through the vectorized kernel, which is bit-identical to the
    /// tape op (both share the strided-summation semantics in
    /// [`crate::kernels`]).
    fn normalize_rows(&self, isa: Isa, store: &ParamStore, x: &mut Tensor) {
        let g = store.get(&self.gamma);
        let b = store.get(&self.beta);
        for r in 0..x.rows {
            kernels::layer_norm_row_on(isa, x.row_mut(r), &g.data, &b.data, crate::tape::LN_EPS);
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

    /// `x (T x d_model) -> T x d_model`.
    pub fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let q = self.wq.forward(g, x);
        let k = self.wk.forward(g, x);
        let v = self.wv.forward(g, x);
        let dh = self.d_model / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut head_outs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = g.tape.slice_cols(q, h * dh, dh);
            let kh = g.tape.slice_cols(k, h * dh, dh);
            let vh = g.tape.slice_cols(v, h * dh, dh);
            let kt = g.tape.transpose(kh);
            let scores = g.tape.matmul(qh, kt);
            let scaled = g.tape.scale(scores, scale);
            let attn = g.tape.softmax_rows(scaled);
            head_outs.push(g.tape.matmul(attn, vh));
        }
        let concat = g.tape.concat_cols(&head_outs);
        self.wo.forward(g, concat)
    }

    /// Tape-free inference forward over stacked sequence blocks, reading
    /// `ws.norm` and writing `ws.sub`. The Q/K/V projections run fused as
    /// one batched matmul against the column-concatenated `[Wq|Wk|Wv]`
    /// weight (each output column accumulates independently in the same
    /// ascending-`k` order, so fusion is value-transparent); the attention
    /// itself is one [`kernels::attention_block`] per sequence, so tokens
    /// never attend across batch items and each block's output is
    /// bit-identical to a solo [`forward`] pass. All intermediates live in
    /// the workspace — the whole pass allocates nothing.
    ///
    /// [`forward`]: MultiHeadSelfAttention::forward
    fn forward_blocks_into(
        &self,
        isa: Isa,
        store: &ParamStore,
        seq: usize,
        ws: &mut BatchWorkspace,
    ) {
        debug_assert_eq!(ws.norm.rows % seq, 0, "rows must stack whole sequences");
        let d = self.d_model;
        // Assemble the fused weight and bias (a copy ~300x smaller than
        // the matmul it fuses, so rebuilding per call is in the noise).
        let (wq, wk, wv) = (
            store.get(&self.wq.w),
            store.get(&self.wk.w),
            store.get(&self.wv.w),
        );
        for r in 0..d {
            ws.wqkv.row_mut(r)[..d].copy_from_slice(wq.row(r));
            ws.wqkv.row_mut(r)[d..2 * d].copy_from_slice(wk.row(r));
            ws.wqkv.row_mut(r)[2 * d..].copy_from_slice(wv.row(r));
        }
        ws.bqkv.data[..d].copy_from_slice(&store.get(&self.wq.b).data);
        ws.bqkv.data[d..2 * d].copy_from_slice(&store.get(&self.wk.b).data);
        ws.bqkv.data[2 * d..].copy_from_slice(&store.get(&self.wv.b).data);
        kernels::matmul_bias_into(isa, &ws.norm, &ws.wqkv, Some(&ws.bqkv), &mut ws.qkv);
        let shape = AttnShape {
            seq,
            d,
            heads: self.heads,
        };
        let scale = 1.0 / ((d / self.heads) as f32).sqrt();
        let blocks = ws
            .qkv
            .data
            .chunks_exact(seq * 3 * d)
            .zip(ws.concat.data.chunks_exact_mut(seq * d));
        for (qkv, concat) in blocks {
            kernels::attention_block(isa, qkv, shape, scale, &mut ws.attn, concat);
        }
        self.wo
            .forward_tensor_into(isa, store, &ws.concat, &mut ws.sub);
    }
}

/// Every buffer of one batched tape-free forward pass, input stack to
/// output embeddings, parked in a thread-local between
/// [`TrajectoryEncoder::embed_batch`] calls. Buffers keep their
/// allocation and are re-shaped per call, so once a thread has embedded
/// its largest batch, every later call — a scan's ragged last batch and
/// the full one after it included — allocates only the vectors it
/// returns. Every buffer is fully overwritten before it is read, so
/// stale contents are harmless.
struct BatchWorkspace {
    /// The batch's feature matrices, stacked (`rows x input_dim`).
    stacked: Tensor,
    /// The residual stream (`rows x d_model`).
    x: Tensor,
    /// Layer-norm output feeding attention / feed-forward (`rows x d_model`).
    norm: Tensor,
    /// Fused Q/K/V projection output (`rows x 3*d_model`).
    qkv: Tensor,
    /// Column-concatenated `[Wq|Wk|Wv]` (`d_model x 3*d_model`).
    wqkv: Tensor,
    /// Concatenated Q/K/V biases (`1 x 3*d_model`).
    bqkv: Tensor,
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
}

impl BatchWorkspace {
    /// A workspace that owns no memory yet.
    fn empty() -> Self {
        let none = || Tensor::zeros(0, 0);
        BatchWorkspace {
            stacked: none(),
            x: none(),
            norm: none(),
            qkv: none(),
            wqkv: none(),
            bqkv: none(),
            concat: none(),
            sub: none(),
            hidden: none(),
            attn: Vec::new(),
            pooled: none(),
            out: none(),
        }
    }

    /// Shapes every buffer for `batch` sequences through an encoder of
    /// `config` with `ff_hidden`-wide feed-forward blocks; allocates only
    /// where a buffer's capacity falls short.
    fn shape(&mut self, batch: usize, config: &EncoderConfig, ff_hidden: usize) {
        fn reshape(t: &mut Tensor, rows: usize, cols: usize) {
            t.rows = rows;
            t.cols = cols;
            t.data.resize(rows * cols, 0.0);
        }
        let (rows, d) = (batch * config.steps, config.d_model);
        reshape(&mut self.stacked, rows, config.input_dim);
        reshape(&mut self.x, rows, d);
        reshape(&mut self.norm, rows, d);
        reshape(&mut self.qkv, rows, 3 * d);
        reshape(&mut self.wqkv, d, 3 * d);
        reshape(&mut self.bqkv, 1, 3 * d);
        reshape(&mut self.concat, rows, d);
        reshape(&mut self.sub, rows, d);
        reshape(&mut self.hidden, rows, ff_hidden);
        self.attn.resize(
            kernels::attention_scratch_len(config.steps, d / config.heads),
            0.0,
        );
        reshape(&mut self.pooled, batch, d);
        reshape(&mut self.out, batch, config.embed_dim);
    }
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

    /// `x -> lin2(gelu(lin1(x)))`.
    pub fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let h = self.lin1.forward(g, x);
        let a = g.tape.gelu(h);
        self.lin2.forward(g, a)
    }

    /// Tape-free inference forward reading `ws.norm`, writing `ws.sub`,
    /// with the GELU applied in place by the vectorized kernel.
    fn forward_tensor_into(&self, isa: Isa, store: &ParamStore, ws: &mut BatchWorkspace) {
        self.lin1
            .forward_tensor_into(isa, store, &ws.norm, &mut ws.hidden);
        kernels::gelu_inplace_on(isa, &mut ws.hidden.data);
        self.lin2
            .forward_tensor_into(isa, store, &ws.hidden, &mut ws.sub);
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

    /// Applies the layer to a `T x d_model` sequence.
    pub fn forward(&self, g: &mut Graph<'_>, x: NodeId) -> NodeId {
        let n1 = self.ln1.forward(g, x);
        let a = self.attn.forward(g, n1);
        let x = g.tape.add(x, a);
        let n2 = self.ln2.forward(g, x);
        let f = self.ff.forward(g, n2);
        g.tape.add(x, f)
    }

    /// Tape-free in-place inference forward over stacked sequences (see
    /// [`MultiHeadSelfAttention::forward_blocks_into`]); `ws.x` is updated
    /// through both residual additions.
    fn forward_tensor_blocks(
        &self,
        isa: Isa,
        store: &ParamStore,
        seq: usize,
        ws: &mut BatchWorkspace,
    ) {
        ws.norm.data.copy_from_slice(&ws.x.data);
        self.ln1.normalize_rows(isa, store, &mut ws.norm);
        self.attn.forward_blocks_into(isa, store, seq, ws);
        for (xi, ai) in ws.x.data.iter_mut().zip(&ws.sub.data) {
            *xi += *ai;
        }
        ws.norm.data.copy_from_slice(&ws.x.data);
        self.ln2.normalize_rows(isa, store, &mut ws.norm);
        self.ff.forward_tensor_into(isa, store, ws);
        for (xi, fi) in ws.x.data.iter_mut().zip(&ws.sub.data) {
            *xi += *fi;
        }
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

    /// Embeds a `steps x input_dim` feature matrix into a `1 x embed_dim`
    /// unit vector (as a tape node, so it is differentiable).
    pub fn forward(&self, g: &mut Graph<'_>, features: NodeId) -> NodeId {
        let v = g.tape.value(features);
        assert_eq!(v.cols, self.config.input_dim, "feature width mismatch");
        assert_eq!(v.rows, self.config.steps, "feature steps mismatch");
        let mut x = self.input_proj.forward(g, features);
        if self.config.positional {
            let pos = g.input(self.positions.clone());
            x = g.tape.add(x, pos);
        }
        for layer in &self.layers {
            x = layer.forward(g, x);
        }
        let x = self.final_ln.forward(g, x);
        let pooled = match self.config.pooling {
            Pooling::Mean => g.tape.mean_rows(x),
            Pooling::Last => {
                // Select the last row via transpose+slice: rows are time.
                let xt = g.tape.transpose(x);
                let last = g.tape.slice_cols(xt, self.config.steps - 1, 1);
                g.tape.transpose(last)
            }
        };
        let out = self.out_proj.forward(g, pooled);
        g.tape.l2_normalize_rows(out)
    }

    /// Inference helper: embeds a raw feature matrix, returning the
    /// vector. This is [`embed_batch`](Self::embed_batch) of one — the
    /// only inference forward pass; the tape [`forward`](Self::forward)
    /// is training's, and yields the same bits.
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
    /// per sequence block. No autograd tape is built. Because every
    /// underlying op is row-local (or block-local) with the same
    /// arithmetic order as the tape ops, each row is **bit-identical**
    /// to the tape [`forward`](Self::forward) of that item alone, and
    /// so independent of what else is in the batch — the matcher's
    /// embedding cache relies on this to keep cached search results
    /// byte-identical to the uncached path.
    pub fn embed_batch(&self, store: &ParamStore, batch: &[&Tensor]) -> Vec<Vec<f32>> {
        self.embed_batch_on(Isa::best(), store, batch)
    }

    /// [`embed_batch`](Self::embed_batch) on a chosen instruction set
    /// (tests run every one the CPU has).
    fn embed_batch_on(&self, isa: Isa, store: &ParamStore, batch: &[&Tensor]) -> Vec<Vec<f32>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let t = self.config.steps;
        let d_in = self.config.input_dim;
        for f in batch {
            assert_eq!(f.cols, d_in, "feature width mismatch");
            assert_eq!(f.rows, t, "feature steps mismatch");
        }
        let n = batch.len();
        let d = self.config.d_model;
        let ff_hidden = self.layers.first().map_or(0, |l| l.ff.lin1.out_dim);
        let mut ws = PARKED_WORKSPACE
            .with(|cell| cell.borrow_mut().take())
            .unwrap_or_else(BatchWorkspace::empty);
        ws.shape(n, &self.config, ff_hidden);
        for (f, rows) in batch.iter().zip(ws.stacked.data.chunks_exact_mut(t * d_in)) {
            rows.copy_from_slice(&f.data);
        }
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
        for layer in &self.layers {
            layer.forward_tensor_blocks(isa, store, t, &mut ws);
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
        for r in 0..n {
            let row = ws.out.row_mut(r);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-8);
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
        let embeddings = (0..n).map(|r| ws.out.row(r).to_vec()).collect();
        PARKED_WORKSPACE.with(|cell| *cell.borrow_mut() = Some(ws));
        embeddings
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

/// Rows [`cosine_scores`] scores side by side.
const SCORE_LANES: usize = 8;

/// `(cosine_similarity(query, row) + 1) / 2` — cosine mapped to `[0, 1]`
/// — for each of the `scores.len()` rows of `query.len()` floats laid
/// back to back in `rows`, bit for bit (a NaN score stays NaN, though
/// which NaN may differ: when two NaNs meet, the compiler's operand order
/// picks the payload).
///
/// Eight rows run side by side, one lane each: a lane sums its own
/// products in index order from `-0.0` (where `Iterator::sum` over `f32`
/// starts), exactly as the scalar form does, so no score moves by a bit;
/// the eight independent chains just stop waiting on each other's adds.
/// The query's norm is summed once per call.
pub fn cosine_scores(query: &[f32], rows: &[f32], scores: &mut [f32]) {
    let dim = query.len();
    assert_eq!(rows.len(), scores.len() * dim, "cosine on unequal lengths");
    let norm_q = query.iter().map(|x| x * x).sum::<f32>().sqrt();
    let score = |dot: f32, squares: f32| {
        let norm = squares.sqrt();
        let cosine = if norm_q <= 1e-12 || norm <= 1e-12 {
            0.0
        } else {
            dot / (norm_q * norm)
        };
        (cosine + 1.0) * 0.5
    };
    if dim == 0 {
        scores.fill(score(-0.0, -0.0));
        return;
    }
    for (block, out) in rows
        .chunks(SCORE_LANES * dim)
        .zip(scores.chunks_mut(SCORE_LANES))
    {
        if let Ok(out) = <&mut [f32; SCORE_LANES]>::try_from(&mut *out) {
            let row: [&[f32]; SCORE_LANES] = std::array::from_fn(|l| &block[l * dim..][..dim]);
            let (mut dot, mut squares) = ([-0.0f32; SCORE_LANES], [-0.0f32; SCORE_LANES]);
            for (i, &q) in query.iter().enumerate() {
                for l in 0..SCORE_LANES {
                    let x = row[l][i];
                    dot[l] += q * x;
                    squares[l] += x * x;
                }
            }
            for l in 0..SCORE_LANES {
                out[l] = score(dot[l], squares[l]);
            }
        } else {
            // The ragged last block: the same sums, a row at a time.
            for (out, row) in out.iter_mut().zip(block.chunks_exact(dim)) {
                let dot = query.iter().zip(row).map(|(q, x)| q * x).sum();
                *out = score(dot, row.iter().map(|x| x * x).sum());
            }
        }
    }
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
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(5, 3));
        let y = lin.forward(&mut g, x);
        let v = g.tape.value(y);
        assert_eq!((v.rows, v.cols), (5, 2));
        // y = 1-vector @ W + b = column sums of W (b = 0).
        let w = store.get("l.w");
        let expect0: f32 = (0..3).map(|i| w.get(i, 0)).sum();
        assert!((v.get(0, 0) - expect0).abs() < 1e-5);
    }

    #[test]
    fn param_binding_is_shared_within_graph() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let lin = Linear::new(&mut store, &mut r, "l", 3, 3);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::ones(2, 3));
        let y1 = lin.forward(&mut g, x);
        let before = g.tape.len();
        let _y2 = lin.forward(&mut g, y1);
        // Second call must not re-leaf the params (2 new nodes per matmul +
        // broadcast only).
        let grown = g.tape.len() - before;
        assert_eq!(grown, 2, "params should be bound once");
    }

    #[test]
    fn attention_output_shape() {
        let mut store = ParamStore::new();
        let mut r = rng();
        let attn = MultiHeadSelfAttention::new(&mut store, &mut r, "a", 8, 2);
        let mut g = Graph::new(&store);
        let x = g.input(Tensor::xavier(6, 8, &mut r));
        let y = attn.forward(&mut g, x);
        let v = g.tape.value(y);
        assert_eq!((v.rows, v.cols), (6, 8));
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
        assert_eq!(p.get(0, 0), 0.0);
        assert_eq!(p.get(0, 1), 1.0);
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

    /// Training's path: the tape `forward` through a `Graph`.
    fn tape_embed(enc: &TrajectoryEncoder, store: &ParamStore, features: &Tensor) -> Vec<f32> {
        let mut g = Graph::new(store);
        let f = g.input(features.clone());
        let e = enc.forward(&mut g, f);
        g.tape.value(e).data.clone()
    }

    #[test]
    fn embed_batch_matches_embed_exactly() {
        // The cached matcher path depends on bit-identical agreement, so
        // this asserts exact equality, not approximate closeness — across
        // pooling modes and with positions on and off. The reference is
        // the tape forward, not `embed`, which is `embed_batch` of one.
        let mut r = rng();
        for (pooling, positional) in [
            (Pooling::Mean, true),
            (Pooling::Mean, false),
            (Pooling::Last, true),
        ] {
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
            for (f, b) in feats.iter().zip(&batched) {
                assert_eq!(&tape_embed(&enc, &store, f), b, "{pooling:?}/{positional}");
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
    /// full batch, a lone query), against the tape forward.
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
        for cfg in [training_default, EncoderConfig::default(), training_tiny] {
            let mut store = ParamStore::new();
            let enc = TrajectoryEncoder::new(&mut store, &mut r, "enc", cfg.clone());
            for objects in [1, 2] {
                let feats: Vec<Tensor> = (0..67)
                    .map(|_| slot_features(&mut r, cfg.steps, objects))
                    .collect();
                let want: Vec<Vec<f32>> =
                    feats.iter().map(|f| tape_embed(&enc, &store, f)).collect();
                let refs: Vec<&Tensor> = feats.iter().collect();
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
            enc.embed_batch(&store, &[&f]),
            vec![tape_embed(&enc, &store, &f)]
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

    /// The lane scorer against the scalar form it replaces, bit for bit:
    /// every width 1..=70 (lane multiples and not), every batch size
    /// 0..=17 (empty, ragged, two full blocks and a tail), and rows that
    /// hold ±0.0, NaN, ±∞ and subnormals, all-zero rows, and an all-zero
    /// query.
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
            for n in 0..=17 {
                let mut rows: Vec<f32> = (0..n * dim).map(|_| value(&mut r)).collect();
                if n > 2 {
                    rows[dim..2 * dim].fill(0.0);
                    rows[2 * dim..3 * dim].fill(-0.0);
                }
                let random: Vec<f32> = (0..dim).map(|_| r.gen_range(-1.0f32..1.0)).collect();
                let tiny = vec![f32::MIN_POSITIVE / 8.0; dim];
                for query in [random, vec![0.0; dim], tiny] {
                    let mut got = vec![f32::NAN; n];
                    cosine_scores(&query, &rows, &mut got);
                    for (i, row) in rows.chunks_exact(dim).enumerate() {
                        let want = (cosine_similarity(&query, row) + 1.0) * 0.5;
                        // NaN payloads are the one thing the compiler's
                        // choice of operand order may change, so a NaN
                        // need only stay a NaN.
                        let same = if want.is_nan() {
                            got[i].is_nan()
                        } else {
                            got[i].to_bits() == want.to_bits()
                        };
                        assert!(same, "dim {dim} rows {n} row {i}: {} vs {want}", got[i]);
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 10_000);
        cosine_scores(&[], &[], &mut []);
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
        let mut g = Graph::new(&store);
        let f = g.input(Tensor::xavier(5, 6, &mut r));
        let e = enc.forward(&mut g, f);
        let sq = g.tape.mul(e, e);
        // Use a weighted mean so the loss is not constant (|e| = 1).
        let w = g.input(Tensor::from_vec(4, 1, vec![1.0, -2.0, 0.5, 3.0]));
        let proj = g.tape.matmul(sq, w);
        let loss = g.tape.mean_all(proj);
        let grads = g.grads_by_name(loss);
        for name in store.names() {
            assert!(grads.contains_key(&name), "no gradient for {name}");
            assert!(grads[&name].is_finite(), "non-finite grad for {name}");
        }
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
