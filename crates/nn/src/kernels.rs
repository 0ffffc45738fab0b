//! SIMD kernels: the one matmul and the row kernels of the encoder.
//!
//! [`Tensor::matmul`] *is* [`matmul`]: the encoder's forward
//! (`TrajectoryEncoder::embed_batch`, the matcher's scan built on it, and
//! training's per-clip forward), both products of every matmul in its
//! backward (as view matmuls, below), and the losses all run the
//! register-tiled kernels below on the widest
//! instruction set the CPU has (`Isa`: AVX-512, AVX2 or portable scalar
//! code — chosen by CPU feature detection only). The readable scalar ikj
//! loop, `matmul_scalar`, is the single reference: it is what `Isa::Scalar`
//! runs and the oracle the vector kernels are differentially tested
//! against, bit for bit — which is why a model trained on one host is the
//! model trained on any other.
//!
//! ## Operands read in place
//!
//! The backward's products are `Xᵀ·G`, `G·Wᵀ` and, per attention head,
//! products over a head's columns of the fused `[Q|K|V]` projection. Their
//! operands are `View`s: a matrix read where it lies, rows `stride` apart
//! (a block of a wider matrix's columns), optionally transposed; outputs
//! are `ViewMut`s the same way. A transposed `a` costs nothing: the tile
//! broadcasts `a`'s values one at a time anyway, and reads them down a
//! column instead of along a row. A transposed `b` is read `LANES x LANES`
//! values at a time and transposed in registers into a panel on the stack
//! (64 values of `k` by one column block), which every row tile of the
//! block then reads as a plain `b`; a sum that spans several panels
//! resumes from the partial sum its tile stored, the same adds in the
//! same order. Either way each output element is the reference loop's
//! sum: ascending `k` from `+0.0`, separate multiply and add, the zero
//! skip on `a`'s element.
//!
//! ## Register tiles
//!
//! The vector matmul is one family of `MR x NR` register tiles (`MR` output
//! rows by `NR` column vectors; 4 x 3 on both ISAs, 16 lanes per vector on
//! AVX-512 and 8 on AVX2, emitted by one macro). A tile keeps its `MR * NR`
//! accumulators resident across the whole `k` loop, and every `b`-row
//! vector load and every `a` broadcast is shared by the whole tile: per `k`
//! step a 4 x 3 tile issues 3 loads and 4 broadcasts for 12 multiply-adds,
//! against 3 loads and 1 broadcast for 3 when each output row is its own
//! tile, and its 12 independent add chains keep both vector ports busy
//! where 3 or 4 chains wait on add latency. The last vector of a column
//! block is always a masked load/store, so column remainders (and outputs
//! narrower than one vector) take the same code with fewer lanes switched
//! on; row remainders take the 1-row member of the family. An optional
//! bias epilogue adds a `1 x C` row to every output row before the store
//! (`sum + b`, the value a second pass over the output would produce).
//!
//! ## Bit-exactness
//!
//! The vector kernels produce results `==`-equal to the scalar loop. For a
//! fixed output element `(i, j)` the scalar loop accumulates
//! `out += a[i][k] * b[k][j]` from `+0.0` over ascending `k`, one rounded
//! multiply and one rounded add per step. The vector kernels keep exactly
//! that order — lanes run across `j`, never across `k` — and use separate
//! multiply and add instructions (never FMA, whose single rounding would
//! diverge). IEEE-754 multiplies and adds are lane-wise identical to their
//! scalar counterparts, so every lane reproduces the scalar sequence
//! exactly.
//!
//! The scalar loop *skips* a step whose `a[i][k] == 0.0`, which matters
//! when `b` holds an infinity or NaN (`0.0 * inf` is NaN; skipping keeps
//! the sum finite). A tile cannot branch per row, so the skip is a lane
//! mask instead: the broadcast `a` value is compared not-equal to zero
//! (unordered counts as not equal, so NaN is "non-zero" exactly as
//! `av == 0.0` is false for it, and both signed zeros compare equal), the
//! product is computed unconditionally, and the add is applied only where
//! the mask is set: `vaddps {k}` on AVX-512 leaves a masked-off
//! accumulator untouched, and AVX2 (no masked add) zeroes the masked-off
//! product with `vandps` and adds `+0.0`, which no accumulator can tell
//! from being skipped (see `avx2::add_where`). Either way the result is
//! the bit pattern skipping gives for every operand — `±0.0`, NaN and
//! `±inf` included — with no data-dependent branch in the loop.
//!
//! ## Shared elementwise and reduction semantics
//!
//! Beyond matmul, this module owns the arithmetic the encoder's forward
//! pass is made of: [`fast_tanh`] and [`fast_exp`] (polynomial
//! approximations evaluated in a pinned operation order), the GELU /
//! softmax / layer-norm row kernels built on them, and the fixed
//! 16-bucket strided summation ([`strided_sum`]) used for every row
//! reduction. Each kernel comes in a scalar form — the reference — and a
//! dispatching form that runs the vector code where the CPU has it (the
//! one the encoder's forward calls); the pairs are differentially tested to produce
//! bit-identical outputs. The bucket count is 16 on every ISA — the
//! summation order is part of the semantics, not an artifact of the
//! vector width — so `TrajectoryEncoder::embed_batch` stays `==`-equal
//! to `embed` everywhere, which is what keeps cached matcher searches
//! byte-identical to the uncached path. NaN inputs stay NaN in both
//! forms (payload bits may differ, as with any x86 vector op).
//!
//! ## Fused attention
//!
//! `attention_block` computes multi-head attention for one sequence from
//! its fused `[Q|K|V]` projection rows. On AVX-512 it is one kernel per
//! sequence: Q and V are read in place (strided, masked to the head
//! width), K is transposed once per head into scratch (one strided gather
//! per column vector), and eight score rows at a time go through scores →
//! scale → softmax → `P·V` with the eight rows' dependency chains
//! interleaved. The softmax steps are the instruction sequence of the
//! AVX-512 `softmax_row` (16-bucket `vmaxps` with the running maximum as
//! first operand, the shared `exp_v`, 16-bucket sum with masked-off lanes
//! adding `+0.0`, the shuffle halving trees, one scalar reciprocal, one
//! multiply per element), so the crate's reduction semantics above are
//! unchanged. CPUs without AVX-512 run the per-head composition (copy
//! head, [`matmul_into`], scale pass, [`softmax_row`], [`matmul_into`],
//! copy back) — same values, and the reference the fused kernel is
//! differentially tested against. Training's forward runs the
//! composition on every CPU, because the backward reads each head's
//! softmax and the fused kernel keeps none.
//!
//! ## Safety boundary
//!
//! The vector kernels are safe `#[target_feature]` functions over
//! slices. Memory is touched only by a few helpers per ISA module, each
//! wrapping one pointer-taking intrinsic around a slice it checks
//! itself: `load_tail` / `store_tail` take their lane mask from the
//! slice's length (so they cannot reach past it, and panic on a slice
//! longer than a vector), `loadu` / `storeu` are those two on the first
//! `LANES` values (panicking on a shorter slice; the constant mask
//! compiles to a plain load or store), and AVX-512's `gather` asserts
//! that its band holds the last row it reads. A wrong index in a kernel
//! is a panic, never a stray access. The only other `unsafe` is the
//! call into a kernel from a safe entry point (`gemm`, `attention_block`,
//! the row kernels), made after `isa.available()` has asserted the CPU
//! feature; the entries still assert their operand lengths against the
//! shape first, so a lying `Tensor` is refused with a message.

use crate::tensor::Tensor;

/// The instruction set a kernel call runs on. [`Isa::best`] picks the
/// widest one the CPU has and is what every public entry uses; tests call
/// the `_on` forms with every variant the CPU supports, so no compiled-in
/// path goes unexecuted on a wider host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Portable scalar loops (the reference forms).
    Scalar,
    /// 8-lane matmul tiles; row kernels stay scalar.
    Avx2,
    /// 16-lane matmul tiles, vector row kernels, fused attention.
    Avx512,
}

impl Isa {
    /// Every variant the running CPU can execute, narrowest first.
    #[cfg(test)]
    pub(crate) fn supported() -> impl Iterator<Item = Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|isa| isa.available())
    }

    /// Whether the running CPU can execute this variant.
    pub(crate) fn available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest available variant.
    pub(crate) fn best() -> Isa {
        [Isa::Avx512, Isa::Avx2]
            .into_iter()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Scalar)
    }
}

/// Panics unless a buffer of `len` values is exactly a `rows x cols`
/// matrix. `Tensor`'s fields are public, so a shape is a claim, not a
/// fact, until checked; the vector kernels trust it with raw pointers.
#[track_caller]
fn assert_len(what: &str, len: usize, rows: usize, cols: usize) {
    assert!(
        rows.checked_mul(cols) == Some(len),
        "{what} holds {len} values but its shape is {rows}x{cols}"
    );
}

/// `a (R x K) @ b (K x C) -> R x C` on the widest instruction set the CPU
/// has; `==`-equal to the scalar reference loop on every one.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(a.rows, b.cols);
    matmul_into(a, b, &mut out);
    out
}

/// Writes `a @ b` into `out`, overwriting it (shape- and length-checked).
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    matmul_bias_into(Isa::best(), a, b, None, out);
}

/// Writes `a @ b`, plus the `1 x C` row `bias` on every output row when
/// given, into `out`, overwriting it — a linear layer in one pass.
pub(crate) fn matmul_bias_into(
    isa: Isa,
    a: &Tensor,
    b: &Tensor,
    bias: Option<&Tensor>,
    out: &mut Tensor,
) {
    assert_eq!(a.cols, b.rows, "matmul inner dim mismatch");
    assert_eq!(
        (out.rows, out.cols),
        (a.rows, b.cols),
        "matmul output shape mismatch"
    );
    if let Some(bias) = bias {
        assert_eq!((bias.rows, bias.cols), (1, b.cols), "bias shape mismatch");
    }
    gemm(
        isa,
        &a.data,
        &b.data,
        bias.map(|t| t.data.as_slice()),
        &mut out.data,
        (a.rows, a.cols, b.cols),
    );
}

/// The matmul on slices: `out (r x c) = a (r x k) @ b (k x c) [+ bias]`,
/// every operand's length asserted against `(r, k, c)` first.
fn gemm(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    (r, k, c): (usize, usize, usize),
) {
    assert_len("matmul lhs", a.len(), r, k);
    assert_len("matmul rhs", b.len(), k, c);
    assert_len("matmul output", out.len(), r, c);
    if let Some(bias) = bias {
        assert_len("matmul bias", bias.len(), 1, c);
    }
    assert!(isa.available(), "{isa:?} kernels need CPU support");
    match isa {
        Isa::Scalar => {
            let (a, b) = (View::new(a, r, k, k), View::new(b, k, c, c));
            matmul_scalar(a, b, bias, ViewMut::new(out, r, c, c));
        }
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512::gemm(a, b, bias, out, (r, k, c)) },
        // SAFETY: `isa.available()` asserted the CPU has AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::gemm(a, b, bias, out, (r, k, c)) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("no vector kernels on this architecture"),
    }
}

/// A `rows x cols` matrix read in place from a row-major buffer whose rows
/// start `stride` values apart: a whole tensor, a block of its columns
/// (`stride` wider than `cols`), or — [`View::t`] — the transpose of one,
/// whose element `(i, j)` is the buffer's `(j, i)`. The matmuls take their
/// operands as views, so `Xᵀ·G`, `G·Wᵀ` and a head's columns of a fused
/// projection are read where they lie, never copied out first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    stride: usize,
    transposed: bool,
}

/// Panics unless `len` values hold `rows` rows of `cols` values that
/// start `stride` apart (the last row need not be padded to `stride`).
#[track_caller]
fn assert_strided(what: &str, len: usize, rows: usize, cols: usize, stride: usize) {
    let need = match rows {
        0 => Some(0),
        _ => (rows - 1)
            .checked_mul(stride)
            .and_then(|n| n.checked_add(cols)),
    };
    assert!(
        cols <= stride && need.is_some_and(|need| need <= len),
        "{what} holds {len} values, too few for {rows} rows of {cols} at stride {stride}"
    );
}

impl<'a> View<'a> {
    /// `rows x cols` values of `data`, row `i` starting at `i * stride`.
    #[track_caller]
    pub(crate) fn new(data: &'a [f32], rows: usize, cols: usize, stride: usize) -> Self {
        assert_strided("matmul operand", data.len(), rows, cols, stride);
        View {
            data,
            rows,
            cols,
            stride,
            transposed: false,
        }
    }

    /// A whole tensor.
    pub(crate) fn of(t: &'a Tensor) -> Self {
        View::new(&t.data, t.rows, t.cols, t.cols)
    }

    /// Columns `start..start + len` of `t`.
    #[track_caller]
    pub(crate) fn columns(t: &'a Tensor, start: usize, len: usize) -> Self {
        View::new(t.data.get(start..).unwrap_or(&[]), t.rows, len, t.cols)
    }

    /// The transpose, read in place.
    pub(crate) fn t(self) -> Self {
        View {
            rows: self.cols,
            cols: self.rows,
            transposed: !self.transposed,
            ..self
        }
    }

    /// Rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` of a view that is not transposed.
    pub(crate) fn row(&self, i: usize) -> &'a [f32] {
        assert!(!self.transposed, "a transposed view has no rows in place");
        &self.data[i * self.stride..][..self.cols]
    }

    /// Element `(i, j)`.
    fn at(&self, i: usize, j: usize) -> f32 {
        if self.transposed {
            self.data[j * self.stride + i]
        } else {
            self.data[i * self.stride + j]
        }
    }
}

/// A `rows x cols` output written in place, row `i` at `i * stride` of
/// `data` (a block of a wider matrix's columns when `stride > cols`).
#[derive(Debug)]
pub(crate) struct ViewMut<'a> {
    data: &'a mut [f32],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> ViewMut<'a> {
    /// `rows x cols` values of `data`, row `i` starting at `i * stride`.
    #[track_caller]
    pub(crate) fn new(data: &'a mut [f32], rows: usize, cols: usize, stride: usize) -> Self {
        assert_strided("matmul output", data.len(), rows, cols, stride);
        ViewMut {
            data,
            rows,
            cols,
            stride,
        }
    }

    /// A whole tensor.
    pub(crate) fn of(t: &'a mut Tensor) -> Self {
        let (rows, cols) = (t.rows, t.cols);
        ViewMut::new(&mut t.data, rows, cols, cols)
    }

    /// Columns `start..start + len` of `t`.
    #[track_caller]
    pub(crate) fn columns(t: &'a mut Tensor, start: usize, len: usize) -> Self {
        let (rows, stride) = (t.rows, t.cols);
        let data = t.data.get_mut(start..).unwrap_or_default();
        ViewMut::new(data, rows, len, stride)
    }
}

/// Writes `a @ b` into `out` on `isa`, overwriting it, where either
/// operand may be a transposed view (not both): `Aᵀ·B`, `A·Bᵀ` and plain
/// products over column blocks, each output element the scalar loop's
/// ascending-`k` sum from `+0.0` with its zero skip on `a`'s element.
#[track_caller]
pub(crate) fn matmul_view_into(isa: Isa, a: View, b: View, out: ViewMut) {
    matmul_bias_view_into(isa, a, b, None, out);
}

/// [`matmul_view_into`] plus the `b.cols()`-long row `bias` on every
/// output row, added once each sum is complete — the bits
/// [`matmul_bias_into`] writes for the same operands, so a layer can
/// write its output into a column block of a wider buffer.
#[track_caller]
pub(crate) fn matmul_bias_view_into(
    isa: Isa,
    a: View,
    b: View,
    bias: Option<&[f32]>,
    out: ViewMut,
) {
    assert_eq!(a.cols, b.rows, "matmul inner dim mismatch");
    assert_eq!(
        (out.rows, out.cols),
        (a.rows, b.cols),
        "matmul output shape mismatch"
    );
    assert!(
        !(a.transposed && b.transposed),
        "matmul reads one transposed operand, not two"
    );
    if let Some(bias) = bias {
        assert_len("matmul bias", bias.len(), 1, b.cols);
    }
    assert!(isa.available(), "{isa:?} kernels need CPU support");
    match isa {
        Isa::Scalar => matmul_scalar(a, b, bias, out),
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512::gemm_views(a, b, bias, out) },
        // SAFETY: `isa.available()` asserted the CPU has AVX2.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::gemm_views(a, b, bias, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("no vector kernels on this architecture"),
    }
}

/// The reference loop — the only scalar matmul in the crate — with the
/// bias added in a second pass.
fn matmul_scalar(a: View, b: View, bias: Option<&[f32]>, out: ViewMut) {
    let (r, k, c) = (a.rows, a.cols, b.cols);
    for i in 0..r {
        let out_row = &mut out.data[i * out.stride..][..c];
        out_row.fill(0.0);
        for kk in 0..k {
            let av = a.at(i, kk);
            if av == 0.0 {
                continue;
            }
            for (j, o) in out_row.iter_mut().enumerate() {
                *o += av * b.at(kk, j);
            }
        }
        if let Some(bias) = bias {
            for (o, &bv) in out_row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }
}

/// Emits the register-tile matmuls for the ISA module it is invoked in,
/// which supplies the vector vocabulary: `V` / `LANES`, `zero` / `splat` /
/// `add` / `mul`, the slice-checked `loadu` / `storeu` (one whole vector)
/// and `load_tail` / `store_tail` (the lanes a shorter slice holds),
/// `transpose` (a `LANES x LANES` block in registers), and the zero-skip
/// mask (`Keep`, `nonzero`, `add_where`). `gemm` is the forward's matmul
/// over whole, contiguous operands; `gemm_views` is the backward's, over
/// views, in tiles of the same arithmetic.
macro_rules! simd_gemm {
    ($feature:literal) => {
        /// Output rows per full tile.
        const MR: usize = 4;
        /// Column vectors per full tile.
        const NR: usize = 3;

        /// One `ROWS x NV` tile: `ROWS` rows of `out` (row stride `c`)
        /// over the columns `cols`, in `NV` vectors of which the last is
        /// masked to the columns left. `a` and `out` start at the tile's
        /// first row; `b` and `bias` are whole. Each accumulator starts at
        /// `+0.0` and takes one rounded multiply and one rounded add per
        /// ascending `k`, the add masked off where the `a` value is zero.
        #[inline]
        #[target_feature(enable = $feature)]
        fn tile<const ROWS: usize, const NV: usize>(
            a: &[f32],
            b: &[f32],
            bias: Option<&[f32]>,
            mut out: &mut [f32],
            (k, c): (usize, usize),
            cols: std::ops::Range<usize>,
        ) {
            let last = (NV - 1) * LANES;
            // Lets the compiler drop the per-vector checks inside the loop.
            assert!(last < cols.len() && cols.len() <= NV * LANES && cols.end <= c);
            let (mut a_rows, mut rest) = ([&a[..0]; ROWS], a);
            for row in &mut a_rows {
                (*row, rest) = rest.split_at(k);
            }
            let mut acc = [[zero(); NV]; ROWS];
            for kk in 0..k {
                let b_row = &b[kk * c..][cols.clone()];
                let mut vb = [zero(); NV];
                for v in 0..NV - 1 {
                    vb[v] = loadu(&b_row[v * LANES..]);
                }
                vb[NV - 1] = load_tail(&b_row[last..]);
                for m in 0..ROWS {
                    let va = splat(a_rows[m][kk]);
                    let keep = nonzero(va);
                    for v in 0..NV {
                        acc[m][v] = add_where(keep, acc[m][v], mul(va, vb[v]));
                    }
                }
            }
            if let Some(bias) = bias {
                let bias = &bias[cols.clone()];
                for v in 0..NV {
                    let vbias = if v == NV - 1 {
                        load_tail(&bias[last..])
                    } else {
                        loadu(&bias[v * LANES..])
                    };
                    for m in 0..ROWS {
                        acc[m][v] = add(acc[m][v], vbias);
                    }
                }
            }
            for m in 0..ROWS {
                let out_row;
                (out_row, out) = out.split_at_mut(c);
                let o = &mut out_row[cols.clone()];
                for v in 0..NV - 1 {
                    storeu(&mut o[v * LANES..], acc[m][v]);
                }
                store_tail(&mut o[last..], acc[m][NV - 1]);
            }
        }

        /// `out (r x c) = a (r x k) @ b (k x c) [+ bias (c)]`: row tiles
        /// outermost so `a` streams once and the `b` panel stays cached,
        /// `MR`-row tiles then 1-row tiles for the remainder, column
        /// blocks of up to `NR` vectors with the last one masked.
        #[target_feature(enable = $feature)]
        pub(super) fn gemm(
            a: &[f32],
            b: &[f32],
            bias: Option<&[f32]>,
            out: &mut [f32],
            (r, k, c): (usize, usize, usize),
        ) {
            let mut i = 0;
            while i < r {
                let full = r - i >= MR;
                let (a, out) = (&a[i * k..], &mut out[i * c..]);
                let mut j = 0;
                while j < c {
                    let cols = j..c.min(j + NR * LANES);
                    j = cols.end;
                    match (full, cols.len().div_ceil(LANES)) {
                        (true, 1) => tile::<MR, 1>(a, b, bias, out, (k, c), cols),
                        (true, 2) => tile::<MR, 2>(a, b, bias, out, (k, c), cols),
                        (true, _) => tile::<MR, NR>(a, b, bias, out, (k, c), cols),
                        (false, 1) => tile::<1, 1>(a, b, bias, out, (k, c), cols),
                        (false, 2) => tile::<1, 2>(a, b, bias, out, (k, c), cols),
                        (false, _) => tile::<1, NR>(a, b, bias, out, (k, c), cols),
                    }
                }
                i += if full { MR } else { 1 };
            }
        }

        /// Values of `k` per panel of a transposed `b`.
        const KC: usize = 64;

        /// [`tile`] over views: `a`'s element `(m, k)` is
        /// `a[m * lda + k]`, or `a[k * lda + m]` under `TA`; `b`'s row `k`
        /// is `b[k * ldb..]`; the tile covers the first `cols` columns
        /// of `b` and `out` (row stride `ldc`), which start at its first
        /// column, and adds `bias` (from the tile's first column) to the
        /// finished sums. With `resume` each accumulator starts
        /// at the partial sum `out` holds instead of `+0.0`: the same
        /// sequence of adds, continued.
        #[inline]
        #[target_feature(enable = $feature)]
        fn tile_view<const ROWS: usize, const NV: usize, const TA: bool>(
            a: &[f32],
            lda: usize,
            (b, ldb): (&[f32], usize),
            bias: Option<&[f32]>,
            (out, ldc): (&mut [f32], usize),
            (k, cols): (usize, usize),
            resume: bool,
        ) {
            let last = (NV - 1) * LANES;
            // Lets the compiler drop the per-vector checks inside the loop.
            assert!(last < cols && cols <= NV * LANES);
            let a_rows: [&[f32]; ROWS] = match TA {
                true => [&a[..0]; ROWS],
                false => std::array::from_fn(|m| &a[m * lda..][..k]),
            };
            let mut acc = [[zero(); NV]; ROWS];
            if resume {
                for m in 0..ROWS {
                    let o = &out[m * ldc..][..cols];
                    for v in 0..NV - 1 {
                        acc[m][v] = loadu(&o[v * LANES..]);
                    }
                    acc[m][NV - 1] = load_tail(&o[last..]);
                }
            }
            for kk in 0..k {
                let b_row = &b[kk * ldb..][..cols];
                let mut vb = [zero(); NV];
                for v in 0..NV - 1 {
                    vb[v] = loadu(&b_row[v * LANES..]);
                }
                vb[NV - 1] = load_tail(&b_row[last..]);
                let a_col = if TA { &a[kk * lda..][..ROWS] } else { a };
                for m in 0..ROWS {
                    let va = splat(if TA { a_col[m] } else { a_rows[m][kk] });
                    let keep = nonzero(va);
                    for v in 0..NV {
                        acc[m][v] = add_where(keep, acc[m][v], mul(va, vb[v]));
                    }
                }
            }
            if let Some(bias) = bias {
                let bias = &bias[..cols];
                for v in 0..NV {
                    let vbias = if v == NV - 1 {
                        load_tail(&bias[last..])
                    } else {
                        loadu(&bias[v * LANES..])
                    };
                    for m in 0..ROWS {
                        acc[m][v] = add(acc[m][v], vbias);
                    }
                }
            }
            for m in 0..ROWS {
                let o = &mut out[m * ldc..][..cols];
                for v in 0..NV - 1 {
                    storeu(&mut o[v * LANES..], acc[m][v]);
                }
                store_tail(&mut o[last..], acc[m][NV - 1]);
            }
        }

        /// `out = a @ b [+ bias]` over views, one of which may be
        /// transposed, in [`gemm`]'s tiles and order, the bias added to
        /// each finished sum. A transposed `a` is read by strided
        /// broadcasts. A transposed `b` is read `LANES x LANES` values at
        /// a time and transposed in registers into a panel on the stack —
        /// `KC` values of `k` by one column block — which every row tile
        /// then reads as a plain `b`; column blocks and panels go
        /// outermost there, and a tile continues its sums across panels
        /// from the partial sums stored in `out`.
        #[target_feature(enable = $feature)]
        pub(super) fn gemm_views(a: View, b: View, bias: Option<&[f32]>, out: ViewMut) {
            let (r, k, c) = (a.rows, a.cols, b.cols);
            let width = NR * LANES;
            let ViewMut {
                data: out,
                stride: ldc,
                ..
            } = out;
            if !b.transposed {
                let mut i = 0;
                while i < r {
                    let rows = if r - i >= MR { MR } else { 1 };
                    for j in (0..c).step_by(width) {
                        let b = (b.data.get(j..).unwrap_or(&[]), b.stride);
                        let bias = bias.map(|bias| &bias[j..]);
                        let cols = (c - j).min(width);
                        let out = (&mut out[i * ldc + j..], ldc);
                        match a.transposed {
                            true => view_tile::<true>(a, (i, rows), 0..k, b, bias, out, cols),
                            false => view_tile::<false>(a, (i, rows), 0..k, b, bias, out, cols),
                        }
                    }
                    i += rows;
                }
                return;
            }
            assert!(!a.transposed, "a transposed b takes a plain a");
            let mut panel = [0.0f32; KC * NR * LANES];
            for j in (0..c).step_by(width) {
                let cols = j..c.min(j + width);
                // An empty `k` still runs one panel: its tiles write `+0.0`.
                for k0 in (0..k.max(1)).step_by(KC) {
                    let ks = k0..k.min(k0 + KC);
                    for kb in ks.clone().step_by(LANES) {
                        let kb = kb..ks.end.min(kb + LANES);
                        for jb in cols.clone().step_by(LANES) {
                            let mut block = [zero(); LANES];
                            for (row, jj) in block.iter_mut().zip(jb..cols.end) {
                                *row = load_tail(&b.data[jj * b.stride..][kb.clone()]);
                            }
                            let transposed = transpose(block);
                            for (kk, v) in kb.clone().zip(transposed) {
                                storeu(&mut panel[(kk - k0) * width + (jb - j)..], v);
                            }
                        }
                    }
                    // The bias joins the sums in their last panel.
                    let bias = bias.filter(|_| ks.end == k).map(|bias| &bias[j..]);
                    let mut i = 0;
                    while i < r {
                        let rows = if r - i >= MR { MR } else { 1 };
                        let out = (&mut out[i * ldc + j..], ldc);
                        let (ks, cols) = (ks.clone(), cols.len());
                        view_tile::<false>(a, (i, rows), ks, (&panel, width), bias, out, cols);
                        i += rows;
                    }
                }
            }
        }

        /// The [`tile_view`] of `rows` (`MR` or 1) output rows from row
        /// `i` and `cols` columns, summing over `ks` of `a`'s columns
        /// (resuming the sums `out` holds unless `ks` starts at 0); `b`,
        /// `bias` and `out` (each beside its row stride) start at the
        /// tile's first column.
        #[inline]
        #[target_feature(enable = $feature)]
        fn view_tile<const TA: bool>(
            a: View,
            (i, rows): (usize, usize),
            ks: std::ops::Range<usize>,
            (b, ldb): (&[f32], usize),
            bias: Option<&[f32]>,
            (out, ldc): (&mut [f32], usize),
            cols: usize,
        ) {
            let lda = a.stride;
            let first = if TA {
                ks.start * lda + i
            } else {
                i * lda + ks.start
            };
            let a = a.data.get(first..).unwrap_or(&[]);
            let (run, resume) = ((ks.len(), cols), ks.start > 0);
            let (b, out) = ((b, ldb), (out, ldc));
            match (rows == MR, cols.div_ceil(LANES)) {
                (true, 1) => tile_view::<MR, 1, TA>(a, lda, b, bias, out, run, resume),
                (true, 2) => tile_view::<MR, 2, TA>(a, lda, b, bias, out, run, resume),
                (true, _) => tile_view::<MR, NR, TA>(a, lda, b, bias, out, run, resume),
                (false, 1) => tile_view::<1, 1, TA>(a, lda, b, bias, out, run, resume),
                (false, 2) => tile_view::<1, 2, TA>(a, lda, b, bias, out, run, resume),
                (false, _) => tile_view::<1, NR, TA>(a, lda, b, bias, out, run, resume),
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Shared activation math.
//
// The polynomial coefficients are the widely used single-precision
// minimax fits (Eigen's rational tanh, Cephes' expf). What matters here
// is not the particular fit but that the evaluation order below is
// *pinned*: the vector kernels replay the identical multiply/add/divide
// sequence lane-wise, so scalar and vector results agree bit-for-bit.
// The literals are kept digit-for-digit as published (clippy allows:
// they are coefficients, not approximations of std constants).
// ---------------------------------------------------------------------------

/// `tanh` saturates to ±1 in f32 beyond this magnitude.
const TANH_CLAMP: f32 = 7.905_311;
const TANH_A1: f32 = 4.893_524_6e-3;
const TANH_A3: f32 = 6.372_619_3e-4;
const TANH_A5: f32 = 1.485_722_4e-5;
const TANH_A7: f32 = 5.122_297_1e-8;
#[allow(clippy::excessive_precision)]
const TANH_A9: f32 = -8.604_671_5e-11;
#[allow(clippy::excessive_precision)]
const TANH_A11: f32 = 2.000_187_9e-13;
const TANH_A13: f32 = -2.760_768_5e-16;
#[allow(clippy::excessive_precision)]
const TANH_B0: f32 = 4.893_525_2e-3;
const TANH_B2: f32 = 2.268_434_6e-3;
const TANH_B4: f32 = 1.185_347_1e-4;
const TANH_B6: f32 = 1.198_258_4e-6;

/// Fast `tanh`: a degree-13/6 rational minimax approximation on the
/// saturation range, accurate to ~1e-6 absolute against libm. Evaluation
/// order is pinned so the vector form is bit-identical. NaN stays NaN.
pub fn fast_tanh(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let x2 = x * x;
    let mut p = TANH_A13;
    p = TANH_A11 + x2 * p;
    p = TANH_A9 + x2 * p;
    p = TANH_A7 + x2 * p;
    p = TANH_A5 + x2 * p;
    p = TANH_A3 + x2 * p;
    p = TANH_A1 + x2 * p;
    let num = x * p;
    let mut q = TANH_B6;
    q = TANH_B4 + x2 * q;
    q = TANH_B2 + x2 * q;
    q = TANH_B0 + x2 * q;
    num / q
}

const EXP_HI: f32 = 88.0;
#[allow(clippy::excessive_precision)]
const EXP_LO: f32 = -87.336_544;
#[allow(clippy::approx_constant)]
const EXP_LOG2E: f32 = 1.442_695;
const EXP_C1: f32 = 0.693_359_4;
const EXP_C2: f32 = -2.121_944_4e-4;
const EXP_P0: f32 = 1.987_569_1e-4;
const EXP_P1: f32 = 1.398_199_9e-3;
const EXP_P2: f32 = 8.333_452e-3;
const EXP_P3: f32 = 4.166_579_6e-2;
const EXP_P4: f32 = 1.666_666_5e-1;
const EXP_P5: f32 = 5.000_000_3e-1;

/// Fast `exp`: Cephes-style range reduction (`x = n·ln2 + r`) plus a
/// degree-5 polynomial, accurate to a few ulps against libm. Saturates at
/// ~1.2e-38 below -87.3 and at ~1.7e38 above 88. Evaluation order is
/// pinned so the vector form is bit-identical. NaN stays NaN.
pub fn fast_exp(x: f32) -> f32 {
    let x = x.clamp(EXP_LO, EXP_HI);
    let n = (x * EXP_LOG2E + 0.5).floor();
    let x = x - n * EXP_C1;
    let x = x - n * EXP_C2;
    let x2 = x * x;
    let mut p = EXP_P0;
    p = EXP_P1 + x * p;
    p = EXP_P2 + x * p;
    p = EXP_P3 + x * p;
    p = EXP_P4 + x * p;
    p = EXP_P5 + x * p;
    let mut y = p * x2;
    y += x;
    y += 1.0;
    let bits = (((n as i32) + 127) << 23) as u32;
    y * f32::from_bits(bits)
}

pub(crate) const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
pub(crate) const GELU_A: f32 = 0.044_715;

/// GELU (tanh approximation) on one value; the scalar reference for
/// [`gelu_inplace`].
pub fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + fast_tanh(GELU_C * (x + GELU_A * x * x * x)))
}

/// Number of interleaved partial sums used by every row reduction.
pub const SUM_LANES: usize = 16;

/// Combines the 16 strided buckets by a fixed halving tree:
/// `acc[i] += acc[i+8]`, then `+4`, `+2`, `+1`. The tree (rather than a
/// left-to-right fold) is part of the pinned semantics because the
/// AVX-512 forms evaluate it with three in-register shuffles instead of
/// fifteen serially dependent scalar adds.
fn tree_combine(mut acc: [f32; SUM_LANES]) -> f32 {
    let mut step = SUM_LANES / 2;
    while step > 0 {
        for i in 0..step {
            acc[i] += acc[i + step];
        }
        step /= 2;
    }
    acc[0]
}

/// Strided 16-bucket sum: bucket `l` accumulates elements `l`, `l+16`, …
/// (a partial trailing chunk contributes `+0.0` to the other buckets),
/// then buckets combine by the `tree_combine` halving tree. This fixed
/// order is the crate's summation semantics for layer-norm and softmax
/// rows; the AVX-512 form reproduces it exactly.
pub fn strided_sum(v: &[f32]) -> f32 {
    let mut acc = [0.0f32; SUM_LANES];
    let mut chunks = v.chunks_exact(SUM_LANES);
    for ch in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(ch) {
            *a += x;
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        for (l, a) in acc.iter_mut().enumerate() {
            *a += rem.get(l).copied().unwrap_or(0.0);
        }
    }
    tree_combine(acc)
}

/// Strided 16-bucket max with `max(a, b) = if a > b { a } else { b }` —
/// the exact semantics of the x86 `maxps` instruction (returns the second
/// operand on ties, signed zeros, and NaN), so the vector form can use it
/// directly. Buckets start at `-inf`, a partial trailing chunk only
/// touches its own lanes, and buckets combine by the same halving tree as
/// [`strided_sum`].
pub fn strided_max(v: &[f32]) -> f32 {
    #[inline]
    fn maxps(a: f32, b: f32) -> f32 {
        if a > b {
            a
        } else {
            b
        }
    }
    let mut acc = [f32::NEG_INFINITY; SUM_LANES];
    let mut chunks = v.chunks_exact(SUM_LANES);
    for ch in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(ch) {
            *a = maxps(*a, x);
        }
    }
    for (a, &x) in acc.iter_mut().zip(chunks.remainder()) {
        *a = maxps(*a, x);
    }
    let mut step = SUM_LANES / 2;
    while step > 0 {
        for i in 0..step {
            acc[i] = maxps(acc[i], acc[i + step]);
        }
        step /= 2;
    }
    acc[0]
}

/// [`strided_sum`] of squared deviations from `mean` (the layer-norm
/// variance numerator), with the same bucket semantics.
pub fn strided_sum_sq_dev(v: &[f32], mean: f32) -> f32 {
    let mut acc = [0.0f32; SUM_LANES];
    let mut chunks = v.chunks_exact(SUM_LANES);
    for ch in &mut chunks {
        for (a, &x) in acc.iter_mut().zip(ch) {
            let d = x - mean;
            *a += d * d;
        }
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        for (l, a) in acc.iter_mut().enumerate() {
            *a += match rem.get(l) {
                Some(&x) => {
                    let d = x - mean;
                    d * d
                }
                None => 0.0,
            };
        }
    }
    tree_combine(acc)
}

/// Rows the portable [`cosine_scores_on`] scores side by side.
const SCORE_LANES: usize = 8;

/// [`cosine_scores`](crate::cosine_scores) on a chosen instruction set:
/// AVX-512 scores sixteen rows a vector, the rest eight rows an array.
pub(crate) fn cosine_scores_on(isa: Isa, query: &[f32], rows: &[f32], scores: &mut [f32]) {
    let dim = query.len();
    assert_len("cosine rows", rows.len(), scores.len(), dim);
    let norm_q = query.iter().map(|x| x * x).sum::<f32>().sqrt();
    let score = |dot: f32, squares: f32| {
        let norm = squares.sqrt();
        let cosine = if norm_q <= COSINE_FLOOR || norm <= COSINE_FLOOR {
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
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        assert!(isa.available(), "{isa:?} kernels need CPU support");
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        unsafe { avx512::cosine_scores(query, norm_q, rows, scores) };
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

/// A norm at or below this scores a cosine of 0, as
/// [`cosine_similarity`](crate::cosine_similarity) does.
const COSINE_FLOOR: f32 = 1e-12;

/// In-place GELU over a slice: vectorized when the CPU has AVX-512,
/// bit-identical to mapping [`gelu_scalar`] either way.
pub fn gelu_inplace(v: &mut [f32]) {
    gelu_inplace_on(Isa::best(), v);
}

/// [`gelu_inplace`] on a chosen instruction set.
pub(crate) fn gelu_inplace_on(isa: Isa, v: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        assert!(isa.available(), "{isa:?} kernels need CPU support");
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        unsafe { avx512::gelu_slice(v) };
        return;
    }
    for x in v.iter_mut() {
        *x = gelu_scalar(*x);
    }
}

/// GELU's derivative (of the tanh approximation) at one value; the
/// scalar reference for [`gelu_backward_on`].
pub(crate) fn gelu_derivative(x: f32) -> f32 {
    let u = GELU_C * (x + GELU_A * x * x * x);
    let t = fast_tanh(u);
    let du = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// GELU's backward in place: each `grad[i]` times [`gelu_derivative`] at
/// `pre[i]`, the layer's input. Vectorized on AVX-512, bit-identical to
/// `grad[i] * gelu_derivative(pre[i])` either way.
pub(crate) fn gelu_backward_on(isa: Isa, pre: &[f32], grad: &mut [f32]) {
    assert_len("GELU gradient", grad.len(), 1, pre.len());
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        assert!(isa.available(), "{isa:?} kernels need CPU support");
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        unsafe { avx512::gelu_backward(pre, grad) };
        return;
    }
    for (g, &x) in grad.iter_mut().zip(pre) {
        *g *= gelu_derivative(x);
    }
}

/// In-place numerically stabilized softmax over one row: subtract the
/// [`strided_max`], [`fast_exp`], [`strided_sum`], divide. Scalar reference for
/// [`softmax_row`].
pub fn softmax_row_scalar(row: &mut [f32]) {
    let max = strided_max(row);
    for x in row.iter_mut() {
        *x = fast_exp(*x - max);
    }
    // One divide, then a multiply per element (not a divide per element):
    // the reciprocal is part of the pinned semantics shared with the
    // vector form.
    let inv = 1.0 / strided_sum(row);
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Vectorized [`softmax_row_scalar`] (bit-identical; AVX-512 or scalar).
pub fn softmax_row(row: &mut [f32]) {
    softmax_row_on(Isa::best(), row);
}

/// [`softmax_row`] on a chosen instruction set.
pub(crate) fn softmax_row_on(isa: Isa, row: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        assert!(isa.available(), "{isa:?} kernels need CPU support");
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        unsafe { avx512::softmax_row(row) };
        return;
    }
    softmax_row_scalar(row);
}

/// In-place layer norm over one row with gain `gamma` and bias `beta`:
/// mean and variance via the strided sums, then
/// `(x - mean) * inv_std * gamma + beta` per element. Scalar reference
/// for [`layer_norm_row`].
pub fn layer_norm_row_scalar(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    let n = row.len() as f32;
    let mean = strided_sum(row) / n;
    let var = strided_sum_sq_dev(row, mean) / n;
    let inv_std = 1.0 / (var + eps).sqrt();
    for (x, (&g, &b)) in row.iter_mut().zip(gamma.iter().zip(beta)) {
        *x = (*x - mean) * inv_std * g + b;
    }
}

/// Vectorized [`layer_norm_row_scalar`] (bit-identical; AVX-512 or
/// scalar). `gamma` and `beta` must be as long as `row`.
pub fn layer_norm_row(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    layer_norm_row_on(Isa::best(), row, gamma, beta, eps);
}

/// [`layer_norm_row`] on a chosen instruction set.
pub(crate) fn layer_norm_row_on(isa: Isa, row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    assert_len("layer-norm gamma", gamma.len(), 1, row.len());
    assert_len("layer-norm beta", beta.len(), 1, row.len());
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        assert!(isa.available(), "{isa:?} kernels need CPU support");
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        unsafe { avx512::layer_norm_row(row, gamma, beta, eps) };
        return;
    }
    layer_norm_row_scalar(row, gamma, beta, eps);
}

/// The shape of one sequence's attention: `seq` tokens of width `d`
/// split over `heads` heads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttnShape {
    pub(crate) seq: usize,
    pub(crate) d: usize,
    pub(crate) heads: usize,
}

/// Rows of scores the fused attention kernel carries at once.
const ATTN_ROWS: usize = 8;

/// Scratch floats [`attention_block`] needs for one sequence: the larger
/// of the fused kernel's (`K^T` padded to whole vectors plus
/// [`ATTN_ROWS`] score rows) and the composition's (one head's Q, `K^T`,
/// V, scores and output).
pub(crate) fn attention_scratch_len(seq: usize, dh: usize) -> usize {
    let padded = seq.saturating_add(SUM_LANES - 1) / SUM_LANES * SUM_LANES;
    let fused = padded.saturating_mul(dh.saturating_add(ATTN_ROWS));
    let composed = seq.saturating_mul(seq.saturating_add(dh.saturating_mul(4)));
    fused.max(composed)
}

/// Multi-head scaled dot-product attention for one sequence: reads the
/// `seq x 3d` fused projection rows `qkv` (`[Q|K|V]` per row) and writes
/// the `seq x d` concatenated head outputs into `concat`. Per head this
/// is `softmax_rows((Q_h @ K_h^T) * scale) @ V_h` with exactly the
/// arithmetic of [`matmul_into`] and [`softmax_row`], so the result is
/// the same on every instruction set; AVX-512 runs it as one fused
/// kernel, anything else as the per-head composition. (Training keeps
/// each head's softmax, which the fused kernel never materializes, so
/// its forward runs the composition over views of `qkv` instead:
/// `MultiHeadSelfAttention::heads_kept`.)
pub(crate) fn attention_block(
    isa: Isa,
    qkv: &[f32],
    shape: AttnShape,
    scale: f32,
    scratch: &mut [f32],
    concat: &mut [f32],
) {
    let AttnShape { seq, d, heads } = shape;
    assert!(
        heads > 0 && d.is_multiple_of(heads),
        "heads must divide d_model"
    );
    assert_len("attention output", concat.len(), seq, d);
    assert!(
        concat.len().checked_mul(3) == Some(qkv.len()),
        "attention input holds {} values but its shape is {seq}x3*{d}",
        qkv.len()
    );
    assert!(
        scratch.len() >= attention_scratch_len(seq, d / heads),
        "attention scratch holds {} values, {seq}x{d}/{heads} needs {}",
        scratch.len(),
        attention_scratch_len(seq, d / heads)
    );
    if concat.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx512 {
        assert!(isa.available(), "{isa:?} kernels need CPU support");
        // SAFETY: `isa.available()` asserted the CPU has AVX-512F.
        unsafe { avx512::attention_block(qkv, shape, scale, scratch, concat) };
        return;
    }
    attention_block_composed(isa, qkv, shape, scale, scratch, concat);
}

/// [`attention_block`] as the per-head composition of the row and matmul
/// kernels: copy the head's Q and V out (K pre-transposed, so the score
/// matmul streams both operands row-major), scores, scale pass, softmax
/// per row, `P @ V`, copy the head back. The only path on CPUs without
/// AVX-512 and the reference the fused kernel is tested against.
fn attention_block_composed(
    isa: Isa,
    qkv: &[f32],
    AttnShape { seq, d, heads }: AttnShape,
    scale: f32,
    scratch: &mut [f32],
    concat: &mut [f32],
) {
    let dh = d / heads;
    let (qh, rest) = scratch.split_at_mut(seq * dh);
    let (kt, rest) = rest.split_at_mut(dh * seq);
    let (vh, rest) = rest.split_at_mut(seq * dh);
    let (attn, rest) = rest.split_at_mut(seq * seq);
    let head_out = &mut rest[..seq * dh];
    for h in 0..heads {
        let c0 = h * dh;
        for (r, row) in qkv.chunks_exact(3 * d).enumerate() {
            qh[r * dh..(r + 1) * dh].copy_from_slice(&row[c0..c0 + dh]);
            vh[r * dh..(r + 1) * dh].copy_from_slice(&row[2 * d + c0..2 * d + c0 + dh]);
            for (c, &kv) in row[d + c0..d + c0 + dh].iter().enumerate() {
                kt[c * seq + r] = kv;
            }
        }
        gemm(isa, qh, kt, None, attn, (seq, dh, seq));
        for e in attn.iter_mut() {
            *e *= scale;
        }
        for row in attn.chunks_exact_mut(seq) {
            softmax_row_on(isa, row);
        }
        gemm(isa, attn, vh, None, head_out, (seq, seq, dh));
        for (r, out) in head_out.chunks_exact(dh).enumerate() {
            concat[r * d + c0..r * d + c0 + dh].copy_from_slice(out);
        }
    }
}

/// AVX-512 kernels: the 16-lane matmul tiles, the fused attention block,
/// and the vector forms of the activation/reduction kernels. Each replays
/// the scalar evaluation order lane-wise (separate multiply and add,
/// min/max with `x` in the NaN-propagating operand position, masked loads
/// contributing `+0.0` like the scalar remainder handling), so outputs
/// are bit-identical to the scalar forms. AVX2-only CPUs take the scalar
/// row kernels — same values, just slower.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    type V = __m512;
    /// All lanes set where a broadcast `a` value is non-zero.
    type Keep = __mmask16;
    pub(super) const LANES: usize = 16;

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn zero() -> V {
        _mm512_setzero_ps()
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn splat(x: f32) -> V {
        _mm512_set1_ps(x)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add(a: V, b: V) -> V {
        _mm512_add_ps(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul(a: V, b: V) -> V {
        _mm512_mul_ps(a, b)
    }

    /// The first `n` lanes; panics past `LANES`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tail_mask(n: usize) -> __mmask16 {
        assert!(n <= LANES, "{n} values do not fit one vector");
        (0xFFFFu32 >> (LANES - n)) as u16
    }

    /// `s` in the first `s.len()` lanes, `+0.0` in the rest; panics when
    /// `s` is longer than a vector.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn load_tail(s: &[f32]) -> V {
        let lanes = tail_mask(s.len());
        // SAFETY: the masked load reads only the lanes set in `lanes`,
        // which are the `s.len()` values `s` holds.
        unsafe { _mm512_maskz_loadu_ps(lanes, s.as_ptr()) }
    }

    /// Writes the first `s.len()` lanes of `v` to `s`; panics when `s`
    /// is longer than a vector.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn store_tail(s: &mut [f32], v: V) {
        let lanes = tail_mask(s.len());
        // SAFETY: the masked store writes only the lanes set in `lanes`,
        // which are the `s.len()` values `s` holds.
        unsafe { _mm512_mask_storeu_ps(s.as_mut_ptr(), lanes, v) }
    }

    /// The first `LANES` values of `s`; panics when `s` is shorter. (The
    /// constant full mask compiles to a plain load.)
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn loadu(s: &[f32]) -> V {
        load_tail(&s[..LANES])
    }

    /// Writes `v` to the first `LANES` values of `s`; panics when `s` is
    /// shorter.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn storeu(s: &mut [f32], v: V) {
        store_tail(&mut s[..LANES], v)
    }

    /// Lane `l < rows` reads `band[l * stride]`, the rest are `+0.0`: one
    /// column of a `rows`-row band. Panics unless the last row read is
    /// inside `band` and the stride fits the gather's `i32` offsets.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn gather(band: &[f32], stride: usize, rows: usize) -> V {
        let lanes = tail_mask(rows);
        assert!(
            stride <= i32::MAX as usize / LANES && (rows == 0 || (rows - 1) * stride < band.len()),
            "{rows} rows of stride {stride} do not fit a band of {}",
            band.len()
        );
        let offsets = _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(stride as i32),
        );
        let (src, base) = (zero(), band.as_ptr().cast());
        // SAFETY: the gather reads `band[l * stride]` for the lanes `l`
        // set in `lanes`, all below `rows`, and the assert above put the
        // last of those inside `band`; `LANES * stride` fits an `i32`, so
        // no offset wraps.
        unsafe { _mm512_mask_i32gather_ps::<4>(src, lanes, offsets, base) }
    }

    /// The portable form's scores, sixteen rows a vector: lane `l` of
    /// a block gathers row `l`'s column `i` at step `i`, so each lane
    /// sums its row's products and squares in index order from `-0.0`
    /// (one rounded multiply, one rounded add each), then takes the
    /// square root, the floor test, the divide and the affine map in the
    /// lane; the ragged last block runs with its missing rows masked off.
    #[target_feature(enable = "avx512f")]
    pub(super) fn cosine_scores(query: &[f32], norm_q: f32, rows: &[f32], scores: &mut [f32]) {
        let dim = query.len();
        let (vq, floor) = (splat(norm_q), splat(COSINE_FLOOR));
        let q_degenerate = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(vq, floor);
        for (block, out) in rows.chunks(LANES * dim).zip(scores.chunks_mut(LANES)) {
            let (mut dot, mut squares) = (splat(-0.0), splat(-0.0));
            for (i, &q) in query.iter().enumerate() {
                let x = gather(&block[i..], dim, out.len());
                dot = add(dot, mul(splat(q), x));
                squares = add(squares, mul(x, x));
            }
            let norm = _mm512_sqrt_ps(squares);
            let degenerate = q_degenerate | _mm512_cmp_ps_mask::<_CMP_LE_OQ>(norm, floor);
            let cosine = _mm512_div_ps(dot, mul(vq, norm));
            let cosine = _mm512_mask_mov_ps(cosine, degenerate, zero());
            store_tail(out, mul(add(cosine, splat(1.0)), splat(0.5)));
        }
    }

    /// `!(a == 0.0)` per lane: unordered-or-not-equal, so NaN is kept.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn nonzero(a: V) -> Keep {
        _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_ps())
    }

    /// `acc + x` where `keep` is set, `acc` untouched elsewhere.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add_where(keep: Keep, acc: V, x: V) -> V {
        _mm512_mask_add_ps(acc, keep, acc, x)
    }

    /// The `16 x 16` block `rows` transposed: lane `l` of vector `k` is
    /// lane `k` of `rows[l]`. Pairs of rows interleave at 32 then 64
    /// bits, then two rounds of 128-bit block shuffles gather each
    /// column's four quarters.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(rows: [V; LANES]) -> [V; LANES] {
        let pd = _mm512_castps_pd;
        let ps = _mm512_castpd_ps;
        let mut t = [zero(); LANES];
        for i in 0..LANES / 2 {
            t[2 * i] = _mm512_unpacklo_ps(rows[2 * i], rows[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_ps(rows[2 * i], rows[2 * i + 1]);
        }
        let mut u = [zero(); LANES];
        for i in 0..LANES / 4 {
            let [a, b, c, d] = [t[4 * i], t[4 * i + 1], t[4 * i + 2], t[4 * i + 3]];
            u[4 * i] = ps(_mm512_unpacklo_pd(pd(a), pd(c)));
            u[4 * i + 1] = ps(_mm512_unpackhi_pd(pd(a), pd(c)));
            u[4 * i + 2] = ps(_mm512_unpacklo_pd(pd(b), pd(d)));
            u[4 * i + 3] = ps(_mm512_unpackhi_pd(pd(b), pd(d)));
        }
        for h in 0..2 {
            for j in 0..4 {
                let (lo, hi) = (u[8 * h + j], u[8 * h + 4 + j]);
                t[8 * h + j] = _mm512_shuffle_f32x4::<0x88>(lo, hi);
                t[8 * h + 4 + j] = _mm512_shuffle_f32x4::<0xDD>(lo, hi);
            }
        }
        let mut out = [zero(); LANES];
        for j in 0..8 {
            out[j] = _mm512_shuffle_f32x4::<0x88>(t[j], t[8 + j]);
            out[8 + j] = _mm512_shuffle_f32x4::<0xDD>(t[j], t[8 + j]);
        }
        out
    }

    simd_gemm!("avx512f");

    /// Fused multi-head attention for one sequence (see
    /// [`super::attention_block`] for the contract). Per head: `K_h` is
    /// transposed once into scratch (`dh` rows padded to whole vectors,
    /// each vector one gather down a column of `qkv`), then [`ATTN_ROWS`]
    /// query rows at a time run
    ///
    /// 1. scores — a `ATTN_ROWS x 1` matmul tile per score vector (lanes
    ///    across keys, ascending head column, zero-skip mask on the
    ///    broadcast Q value), times `scale`, stored to the score rows in
    ///    scratch (key block by key block, so a key's `ATTN_ROWS`
    ///    probabilities are one stride apart for step 3) while the
    ///    16-bucket running maximum is updated;
    /// 2. the maximum's halving tree, `exp_v(x - max)` and the 16-bucket
    ///    sum (lanes past `seq` add `+0.0`), its halving tree, one scalar
    ///    reciprocal, one multiply per element — [`softmax_row`]'s
    ///    instruction sequence, with the rows' chains interleaved;
    /// 3. `P @ V_h` — a `ATTN_ROWS x 1` tile per output vector (lanes
    ///    across the head's columns, ascending key, zero-skip mask on the
    ///    broadcast probability), V read in place and the result stored
    ///    masked straight into `concat`.
    ///
    /// A short final group repeats its last row, recomputing and
    /// re-storing identical values, so every group runs the same code.
    /// Any `seq > 0` and head width work: `ceil(seq / 16)` score vectors
    /// and `ceil(dh / 16)` output vectors, the last of each masked.
    #[target_feature(enable = "avx512f")]
    pub(super) fn attention_block(
        qkv: &[f32],
        AttnShape { seq, d, heads }: AttnShape,
        scale: f32,
        scratch: &mut [f32],
        concat: &mut [f32],
    ) {
        const R: usize = ATTN_ROWS;
        let dh = d / heads;
        let ld = 3 * d;
        let score_vecs = seq.div_ceil(LANES);
        let padded = score_vecs * LANES;
        // Keys held by score vector `v`.
        let keys = |v: usize| (seq - v * LANES).min(LANES);
        let (kt, scores) = scratch.split_at_mut(dh * padded);
        // Key block `v` of the group's score rows: row `r`'s vector is
        // `blocks[v][r * LANES..][..LANES]`, so a key's `R` probabilities
        // sit at one stride from one base.
        let blocks = &mut scores[..R * padded];
        let vscale = splat(scale);
        for h in 0..heads {
            let c0 = h * dh;
            for v in 0..score_vecs {
                let band = &qkv[v * LANES * ld + d + c0..];
                for (c, kt_row) in kt.chunks_mut(padded).take(dh).enumerate() {
                    storeu(&mut kt_row[v * LANES..], gather(&band[c..], ld, keys(v)));
                }
            }
            for i0 in (0..seq).step_by(R) {
                let (mut rows, mut q) = ([0; R], [&qkv[..0]; R]);
                for r in 0..R {
                    rows[r] = (i0 + r).min(seq - 1);
                    q[r] = &qkv[rows[r] * ld + c0..][..dh];
                }

                let mut max = [splat(f32::NEG_INFINITY); R];
                for (v, block) in blocks.chunks_exact_mut(R * LANES).enumerate() {
                    let kv = v * LANES..v * LANES + keys(v);
                    let mut acc = [zero(); R];
                    for (c, kt_row) in kt.chunks(padded).take(dh).enumerate() {
                        let vk = load_tail(&kt_row[kv.clone()]);
                        for r in 0..R {
                            let vq = splat(q[r][c]);
                            acc[r] = add_where(nonzero(vq), acc[r], mul(vq, vk));
                        }
                    }
                    let lanes = tail_mask(keys(v));
                    for (r, x) in block.chunks_exact_mut(LANES).enumerate() {
                        let scaled = mul(acc[r], vscale);
                        storeu(x, scaled);
                        max[r] = _mm512_mask_max_ps(max[r], lanes, max[r], scaled);
                    }
                }

                let mut sum = [zero(); R];
                for m in &mut max {
                    *m = splat(tree_max_v(*m));
                }
                for (v, block) in blocks.chunks_exact_mut(R * LANES).enumerate() {
                    let lanes = tail_mask(keys(v));
                    for (r, x) in block.chunks_exact_mut(LANES).enumerate() {
                        let e = exp_v(_mm512_sub_ps(loadu(x), max[r]));
                        storeu(x, e);
                        sum[r] = add(sum[r], _mm512_maskz_mov_ps(lanes, e));
                    }
                }
                for s in &mut sum {
                    *s = splat(1.0 / tree_combine_v(*s));
                }
                for block in blocks.chunks_exact_mut(R * LANES) {
                    for (x, &inv) in block.chunks_exact_mut(LANES).zip(&sum) {
                        storeu(x, mul(loadu(x), inv));
                    }
                }

                for v in 0..dh.div_ceil(LANES) {
                    let cols = c0 + v * LANES..c0 + dh.min((v + 1) * LANES);
                    let v_cols = 2 * d + cols.start..2 * d + cols.end;
                    let mut acc = [zero(); R];
                    let mut qkv_rows = qkv.chunks(ld).take(seq);
                    for block in blocks.chunks_exact(R * LANES) {
                        for (j, qkv_row) in (&mut qkv_rows).take(LANES).enumerate() {
                            let vv = load_tail(&qkv_row[v_cols.clone()]);
                            for r in 0..R {
                                let vp = splat(block[r * LANES + j]);
                                acc[r] = add_where(nonzero(vp), acc[r], mul(vp, vv));
                            }
                        }
                    }
                    for r in 0..R {
                        store_tail(&mut concat[rows[r] * d..][cols.clone()], acc[r]);
                    }
                }
            }
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tanh_v(x: V) -> V {
        let x = _mm512_max_ps(_mm512_set1_ps(-TANH_CLAMP), x);
        let x = _mm512_min_ps(_mm512_set1_ps(TANH_CLAMP), x);
        let x2 = _mm512_mul_ps(x, x);
        let mut p = _mm512_set1_ps(TANH_A13);
        p = _mm512_add_ps(_mm512_set1_ps(TANH_A11), _mm512_mul_ps(x2, p));
        p = _mm512_add_ps(_mm512_set1_ps(TANH_A9), _mm512_mul_ps(x2, p));
        p = _mm512_add_ps(_mm512_set1_ps(TANH_A7), _mm512_mul_ps(x2, p));
        p = _mm512_add_ps(_mm512_set1_ps(TANH_A5), _mm512_mul_ps(x2, p));
        p = _mm512_add_ps(_mm512_set1_ps(TANH_A3), _mm512_mul_ps(x2, p));
        p = _mm512_add_ps(_mm512_set1_ps(TANH_A1), _mm512_mul_ps(x2, p));
        let num = _mm512_mul_ps(x, p);
        let mut q = _mm512_set1_ps(TANH_B6);
        q = _mm512_add_ps(_mm512_set1_ps(TANH_B4), _mm512_mul_ps(x2, q));
        q = _mm512_add_ps(_mm512_set1_ps(TANH_B2), _mm512_mul_ps(x2, q));
        q = _mm512_add_ps(_mm512_set1_ps(TANH_B0), _mm512_mul_ps(x2, q));
        _mm512_div_ps(num, q)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn exp_v(x: V) -> V {
        let x = _mm512_max_ps(_mm512_set1_ps(EXP_LO), x);
        let x = _mm512_min_ps(_mm512_set1_ps(EXP_HI), x);
        let z = _mm512_add_ps(
            _mm512_mul_ps(x, _mm512_set1_ps(EXP_LOG2E)),
            _mm512_set1_ps(0.5),
        );
        // 0x09 = round toward -inf (floor), suppressing exceptions.
        let n = _mm512_roundscale_ps::<0x09>(z);
        let x = _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(EXP_C1)));
        let x = _mm512_sub_ps(x, _mm512_mul_ps(n, _mm512_set1_ps(EXP_C2)));
        let x2 = _mm512_mul_ps(x, x);
        let mut p = _mm512_set1_ps(EXP_P0);
        p = _mm512_add_ps(_mm512_set1_ps(EXP_P1), _mm512_mul_ps(x, p));
        p = _mm512_add_ps(_mm512_set1_ps(EXP_P2), _mm512_mul_ps(x, p));
        p = _mm512_add_ps(_mm512_set1_ps(EXP_P3), _mm512_mul_ps(x, p));
        p = _mm512_add_ps(_mm512_set1_ps(EXP_P4), _mm512_mul_ps(x, p));
        p = _mm512_add_ps(_mm512_set1_ps(EXP_P5), _mm512_mul_ps(x, p));
        let mut y = _mm512_mul_ps(p, x2);
        y = _mm512_add_ps(y, x);
        y = _mm512_add_ps(y, _mm512_set1_ps(1.0));
        let ni = _mm512_cvtps_epi32(n);
        let bits = _mm512_slli_epi32::<23>(_mm512_add_epi32(ni, _mm512_set1_epi32(127)));
        _mm512_mul_ps(y, _mm512_castsi512_ps(bits))
    }

    /// `f` over `v` in place: whole vectors, then the remainder as one
    /// masked vector (whose spare lanes compute on `+0.0` and are never
    /// stored). An empty remainder is skipped: a masked store, even of no
    /// lanes, stalls the next row's loads that overlap its 64 bytes, and
    /// the row kernels run row after row.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn map_inplace(v: &mut [f32], f: impl Fn(V) -> V) {
        let mut chunks = v.chunks_exact_mut(LANES);
        for ch in &mut chunks {
            storeu(ch, f(loadu(ch)));
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            store_tail(rem, f(load_tail(rem)));
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn gelu_slice(v: &mut [f32]) {
        map_inplace(v, |x| {
            let x3 = _mm512_mul_ps(
                _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(GELU_A), x), x),
                x,
            );
            let inner = _mm512_mul_ps(_mm512_set1_ps(GELU_C), _mm512_add_ps(x, x3));
            let t = tanh_v(inner);
            _mm512_mul_ps(
                _mm512_mul_ps(_mm512_set1_ps(0.5), x),
                _mm512_add_ps(_mm512_set1_ps(1.0), t),
            )
        });
    }

    /// [`gelu_derivative`]'s operations in its order, lane-wise, times
    /// the gradient; a remainder is one masked vector (spare lanes compute
    /// on `+0.0` and are never stored).
    #[target_feature(enable = "avx512f")]
    pub(super) fn gelu_backward(pre: &[f32], grad: &mut [f32]) {
        let backward = |x: V, g: V| {
            let one = splat(1.0);
            let x3 = mul(mul(mul(splat(GELU_A), x), x), x);
            let t = tanh_v(mul(splat(GELU_C), add(x, x3)));
            let du = mul(splat(GELU_C), add(one, mul(mul(splat(3.0 * GELU_A), x), x)));
            let slope = mul(mul(splat(0.5), x), _mm512_sub_ps(one, mul(t, t)));
            mul(g, add(mul(splat(0.5), add(one, t)), mul(slope, du)))
        };
        let mut gs = grad.chunks_exact_mut(LANES);
        let mut xs = pre.chunks_exact(LANES);
        for (g, x) in (&mut gs).zip(&mut xs) {
            storeu(g, backward(loadu(x), loadu(g)));
        }
        let g = gs.into_remainder();
        if !g.is_empty() {
            store_tail(g, backward(load_tail(xs.remainder()), load_tail(g)));
        }
    }

    /// In-register halving tree, lane-for-lane the same adds as the
    /// scalar [`tree_combine`]: lanes `i` and `i+8` (then `+4`, `+2`,
    /// `+1`) combine pairwise; only lane 0 of each intermediate is
    /// ultimately read, and its dependency chain is exactly the scalar
    /// tree's.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tree_combine_v(acc: V) -> f32 {
        // 0xEE selects 128-bit chunks [2,3,2,3]: lane i gets lane i+8.
        let acc = _mm512_add_ps(acc, _mm512_shuffle_f32x4::<0xEE>(acc, acc));
        // 0x55 selects chunks [1,1,1,1]: lane i gets lane i+4.
        let acc = _mm512_add_ps(acc, _mm512_shuffle_f32x4::<0x55>(acc, acc));
        // Within each 128-bit chunk: lane i gets lane i+2, then lane 1.
        let acc = _mm512_add_ps(acc, _mm512_shuffle_ps::<0x0E>(acc, acc));
        let acc = _mm512_add_ps(acc, _mm512_shuffle_ps::<0x01>(acc, acc));
        _mm512_cvtss_f32(acc)
    }

    /// Vector [`strided_sum`]: a partial trailing chunk is one masked
    /// load, its missing lanes adding `+0.0`. (This and the other
    /// reductions skip an empty one, which would only lengthen the
    /// add chain.)
    #[target_feature(enable = "avx512f")]
    fn strided_sum_v(v: &[f32]) -> f32 {
        let mut acc = zero();
        let mut chunks = v.chunks_exact(LANES);
        for ch in &mut chunks {
            acc = add(acc, loadu(ch));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            acc = add(acc, load_tail(rem));
        }
        tree_combine_v(acc)
    }

    /// The halving tree of [`strided_max`] on the 16 buckets, the same
    /// shuffles as [`tree_combine_v`] with `_mm512_max_ps` for the add.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tree_max_v(acc: V) -> f32 {
        let acc = _mm512_max_ps(acc, _mm512_shuffle_f32x4::<0xEE>(acc, acc));
        let acc = _mm512_max_ps(acc, _mm512_shuffle_f32x4::<0x55>(acc, acc));
        let acc = _mm512_max_ps(acc, _mm512_shuffle_ps::<0x0E>(acc, acc));
        let acc = _mm512_max_ps(acc, _mm512_shuffle_ps::<0x01>(acc, acc));
        _mm512_cvtss_f32(acc)
    }

    /// Vector [`strided_max`]: `_mm512_max_ps` is the instruction whose
    /// tie/NaN behaviour the scalar form replicates, so bucket updates
    /// and the halving tree map to it directly. The partial trailing
    /// chunk uses a masked max so untouched lanes keep their bucket.
    #[target_feature(enable = "avx512f")]
    fn strided_max_v(v: &[f32]) -> f32 {
        let mut acc = splat(f32::NEG_INFINITY);
        let mut chunks = v.chunks_exact(LANES);
        for ch in &mut chunks {
            acc = _mm512_max_ps(acc, loadu(ch));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            acc = _mm512_mask_max_ps(acc, tail_mask(rem.len()), acc, load_tail(rem));
        }
        tree_max_v(acc)
    }

    #[target_feature(enable = "avx512f")]
    fn strided_sum_sq_dev_v(v: &[f32], mean: f32) -> f32 {
        let vm = splat(mean);
        let mut acc = zero();
        let mut chunks = v.chunks_exact(LANES);
        for ch in &mut chunks {
            let d = _mm512_sub_ps(loadu(ch), vm);
            acc = add(acc, mul(d, d));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let d = _mm512_sub_ps(load_tail(rem), vm);
            acc = add(acc, _mm512_maskz_mov_ps(tail_mask(rem.len()), mul(d, d)));
        }
        tree_combine_v(acc)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn softmax_row(row: &mut [f32]) {
        let vmax = splat(strided_max_v(row));
        map_inplace(row, |x| exp_v(_mm512_sub_ps(x, vmax)));
        let vs = splat(1.0 / strided_sum_v(row));
        map_inplace(row, |x| mul(x, vs));
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn layer_norm_row(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
        let n = row.len() as f32;
        let mean = strided_sum_v(row) / n;
        let var = strided_sum_sq_dev_v(row, mean) / n;
        let inv_std = 1.0 / (var + eps).sqrt();
        let (vmean, vinv) = (splat(mean), splat(inv_std));
        let norm = |x, g, b| add(mul(mul(_mm512_sub_ps(x, vmean), vinv), g), b);
        let (gamma, beta) = (&gamma[..row.len()], &beta[..row.len()]);
        let mut xs = row.chunks_exact_mut(LANES);
        let (mut gs, mut bs) = (gamma.chunks_exact(LANES), beta.chunks_exact(LANES));
        for ((x, g), b) in (&mut xs).zip(&mut gs).zip(&mut bs) {
            storeu(x, norm(loadu(x), loadu(g), loadu(b)));
        }
        let x = xs.into_remainder();
        if !x.is_empty() {
            let (g, b) = (load_tail(gs.remainder()), load_tail(bs.remainder()));
            store_tail(x, norm(load_tail(x), g, b));
        }
    }
}

/// AVX2 kernels: the 8-lane matmul tiles. The row kernels and attention
/// have no AVX2 form; an AVX2-only CPU composes them from these tiles and
/// the scalar row kernels.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{View, ViewMut};
    use std::arch::x86_64::*;

    type V = __m256;
    /// All bits set where a broadcast `a` value is non-zero.
    type Keep = __m256;
    pub(super) const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn zero() -> V {
        _mm256_setzero_ps()
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn splat(x: f32) -> V {
        _mm256_set1_ps(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn add(a: V, b: V) -> V {
        _mm256_add_ps(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul(a: V, b: V) -> V {
        _mm256_mul_ps(a, b)
    }

    /// The first `n` lanes (sign bit set); panics past `LANES`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tail_mask(n: usize) -> __m256i {
        assert!(n <= LANES, "{n} values do not fit one vector");
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane)
    }

    /// `s` in the first `s.len()` lanes, `+0.0` in the rest; panics when
    /// `s` is longer than a vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn load_tail(s: &[f32]) -> V {
        let lanes = tail_mask(s.len());
        // SAFETY: the masked load reads only the lanes set in `lanes`,
        // which are the `s.len()` values `s` holds.
        unsafe { _mm256_maskload_ps(s.as_ptr(), lanes) }
    }

    /// Writes the first `s.len()` lanes of `v` to `s`; panics when `s`
    /// is longer than a vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn store_tail(s: &mut [f32], v: V) {
        let lanes = tail_mask(s.len());
        // SAFETY: the masked store writes only the lanes set in `lanes`,
        // which are the `s.len()` values `s` holds.
        unsafe { _mm256_maskstore_ps(s.as_mut_ptr(), lanes, v) }
    }

    /// The first `LANES` values of `s`; panics when `s` is shorter. (The
    /// constant full mask compiles to a plain load.)
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn loadu(s: &[f32]) -> V {
        load_tail(&s[..LANES])
    }

    /// Writes `v` to the first `LANES` values of `s`; panics when `s` is
    /// shorter.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn storeu(s: &mut [f32], v: V) {
        store_tail(&mut s[..LANES], v)
    }

    /// `!(a == 0.0)` per lane: unordered-or-not-equal, so NaN is kept.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn nonzero(a: V) -> Keep {
        _mm256_cmp_ps::<_CMP_NEQ_UQ>(a, _mm256_setzero_ps())
    }

    /// `acc + x` where `keep` is set, `acc` elsewhere — as `acc + (x & keep)`,
    /// which keeps the mask off the accumulation chain (a blend of the
    /// sum would add its latency to every step). A masked-off `x` is
    /// `+0.0`, and `acc + (+0.0)` is `acc` bit for bit for every value an
    /// accumulator can hold: it starts at `+0.0` and a round-to-nearest
    /// sum is `-0.0` only when both addends are, so it is never `-0.0`
    /// (the one value `+ (+0.0)` would change), and a NaN accumulator is
    /// already quiet and passes through.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_where(keep: Keep, acc: V, x: V) -> V {
        _mm256_add_ps(acc, _mm256_and_ps(x, keep))
    }

    /// The `8 x 8` block `rows` transposed: lane `l` of vector `k` is
    /// lane `k` of `rows[l]`. Pairs of rows interleave, then 64-bit
    /// shuffles and 128-bit permutes gather each column's halves.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose(rows: [V; LANES]) -> [V; LANES] {
        let mut t = [zero(); LANES];
        for i in 0..LANES / 2 {
            t[2 * i] = _mm256_unpacklo_ps(rows[2 * i], rows[2 * i + 1]);
            t[2 * i + 1] = _mm256_unpackhi_ps(rows[2 * i], rows[2 * i + 1]);
        }
        let mut u = [zero(); LANES];
        for i in 0..LANES / 4 {
            let [a, b, c, d] = [t[4 * i], t[4 * i + 1], t[4 * i + 2], t[4 * i + 3]];
            u[4 * i] = _mm256_shuffle_ps::<0x44>(a, c);
            u[4 * i + 1] = _mm256_shuffle_ps::<0xEE>(a, c);
            u[4 * i + 2] = _mm256_shuffle_ps::<0x44>(b, d);
            u[4 * i + 3] = _mm256_shuffle_ps::<0xEE>(b, d);
        }
        let mut out = [zero(); LANES];
        for j in 0..4 {
            out[j] = _mm256_permute2f128_ps::<0x20>(u[j], u[4 + j]);
            out[4 + j] = _mm256_permute2f128_ps::<0x31>(u[j], u[4 + j]);
        }
        out
    }

    simd_gemm!("avx2");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Bit-for-bit equality, except that any NaN matches any NaN (x86
    /// vector ops may pick a different payload than scalar ones).
    #[track_caller]
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?} ({:#x}), want {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// `a @ b` by the scalar reference loop. (`Tensor::matmul` dispatches
    /// to the vector kernels, so it cannot referee them.)
    fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::ones(a.rows, b.cols);
        matmul_bias_into(Isa::Scalar, a, b, None, &mut out);
        out
    }

    /// `a @ b` on every available instruction set — with and without a
    /// bias epilogue, into stale output — against the scalar reference.
    #[track_caller]
    fn check_matmul_everywhere(a: &Tensor, b: &Tensor, rng: &mut StdRng) {
        let what = format!("{}x{}x{}", a.rows, a.cols, b.cols);
        let reference = reference_matmul(a, b);
        let bias = Tensor::xavier(1, b.cols, rng);
        let mut biased = reference.clone();
        for r in 0..biased.rows {
            for (o, bv) in biased.row_mut(r).iter_mut().zip(&bias.data) {
                *o += *bv;
            }
        }
        for isa in Isa::supported() {
            let mut out = Tensor::ones(a.rows, b.cols); // stale contents must be overwritten
            matmul_bias_into(isa, a, b, None, &mut out);
            assert_same_bits(&out.data, &reference.data, &format!("{what} {isa:?}"));
            let mut out = Tensor::ones(a.rows, b.cols);
            matmul_bias_into(isa, a, b, Some(&bias), &mut out);
            assert_same_bits(&out.data, &biased.data, &format!("{what} {isa:?} + bias"));
        }
    }

    /// Every dispatch target must be `==`-equal to the scalar reference,
    /// including ragged shapes that exercise every tile width and the
    /// sub-vector tails.
    #[test]
    fn kernel_matches_reference_matmul_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut shapes = vec![
            (1, 1, 1),
            (2, 3, 2),
            (32, 12, 32), // attention scores shape
            (32, 32, 12), // attention output shape
            (6, 9, 12),   // one masked vector, row remainder 2
            (5, 7, 16),   // one vector at the full-mask boundary
            (3, 4, 5),    // fewer rows than one tile
            (7, 6, 20),   // two vectors, masked second, row remainder 3
            (5, 8, 31),   // two vectors, row remainder 1
            (7, 5, 17),
            (64, 48, 96),
            (5, 9, 64),
            (33, 31, 29),
            (3, 8, 127), // 48 + 48 + 31
            // The encoder's own shapes: a 64-clip batch through the fused
            // Q/K/V projection and the second feed-forward projection, and
            // a 64-clip output projection.
            (2048, 48, 144),
            (2048, 96, 48),
            (64, 48, 48),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
        ];
        // Every column remainder class of both vector widths, each with
        // a different row remainder.
        shapes.extend((1..=49).map(|c| (4 + c % 4, 7, c)));
        for (r, k, c) in shapes {
            let mut a = Tensor::xavier(r, k, &mut rng);
            let b = Tensor::xavier(k, c, &mut rng);
            // Exercise the zero-skip path too.
            for v in a.data.iter_mut() {
                if rng.gen_range(0.0..1.0f32) < 0.1 {
                    *v = 0.0;
                }
            }
            let reference = reference_matmul(&a, &b);
            assert_eq!(matmul(&a, &b), reference, "{r}x{k}x{c}");
            assert_eq!(a.matmul(&b), reference, "{r}x{k}x{c} (Tensor::matmul)");
            let mut out = Tensor::ones(r, c); // stale contents must be overwritten
            matmul_into(&a, &b, &mut out);
            assert_eq!(out, reference, "{r}x{k}x{c} (into)");
            check_matmul_everywhere(&a, &b, &mut rng);
        }
    }

    /// The zero-skip is a mask in the vector kernels and a branch in the
    /// reference; they must agree where it matters: a zero (of either
    /// sign) in `a` facing NaN or an infinity in `b`, non-finite values
    /// in `a`, whole rows of zeros, and products that underflow to `-0.0`.
    #[test]
    fn zero_skip_mask_matches_the_branch_on_special_values() {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-30,
            -1e-30,
        ];
        let mut rng = StdRng::seed_from_u64(12);
        for (r, k, c) in [(9, 11, 50), (4, 16, 48), (7, 33, 17), (5, 5, 5)] {
            for round in 0..8 {
                let mut a = Tensor::xavier(r, k, &mut rng);
                let mut b = Tensor::xavier(k, c, &mut rng);
                // Odd rounds keep `a` finite so zeros meet the NaN/inf in `b`
                // without the row being NaN anyway.
                let a_specials = if round % 2 == 0 {
                    &specials[..]
                } else {
                    &specials[..2]
                };
                for v in a.data.iter_mut() {
                    if rng.gen_range(0.0..1.0f32) < 0.3 {
                        *v = a_specials[rng.gen_range(0..a_specials.len())];
                    }
                }
                for v in b.data.iter_mut() {
                    if rng.gen_range(0.0..1.0f32) < 0.1 {
                        *v = specials[rng.gen_range(0..specials.len())];
                    }
                }
                a.row_mut(r / 2).fill(0.0);
                a.row_mut(r - 1).fill(-0.0);
                check_matmul_everywhere(&a, &b, &mut rng);
            }
        }
    }

    /// A logical `rows x cols` operand with `specials` sprinkled in and
    /// its middle row set to `zero` (`±0.0`), stored as columns
    /// `off..off + cols` of a wider buffer — transposed when `transposed`
    /// — and viewed in place: returns the buffer, the view's stride, and
    /// the operand as a contiguous tensor.
    fn stored_operand(
        rng: &mut StdRng,
        (rows, cols): (usize, usize),
        (transposed, off, zero): (bool, usize, f32),
        specials: &[f32],
    ) -> (Vec<f32>, usize, Tensor) {
        let mut logical = Tensor::xavier(rows, cols, rng);
        for v in logical.data.iter_mut() {
            if rng.gen_range(0.0..1.0f32) < 0.15 {
                *v = specials[rng.gen_range(0..specials.len())];
            }
        }
        if rows > 1 {
            logical.row_mut(rows / 2).fill(zero);
        }
        let (srows, scols) = if transposed {
            (cols, rows)
        } else {
            (rows, cols)
        };
        let stride = scols + off + 3;
        let mut buffer = vec![f32::NAN; srows * stride + off];
        for i in 0..rows {
            for j in 0..cols {
                let (si, sj) = if transposed { (j, i) } else { (i, j) };
                buffer[si * stride + off + sj] = logical.data[i * cols + j];
            }
        }
        (buffer, stride, logical)
    }

    /// The view of a [`stored_operand`].
    fn view_of(
        buf: &[f32],
        off: usize,
        (rows, cols): (usize, usize),
        ld: usize,
        t: bool,
    ) -> View<'_> {
        let data = buf.get(off..).unwrap_or(&[]);
        match t {
            true => View::new(data, cols, rows, ld).t(),
            false => View::new(data, rows, cols, ld),
        }
    }

    /// The view matmuls read their operands in place: `Aᵀ·B`, `A·Bᵀ` and
    /// plain products over column blocks of wider buffers, on every
    /// instruction set, against the scalar reference over contiguous
    /// copies (`a.transposed().matmul(b)`'s bits), written into a column
    /// block of a wider output whose other values must stay untouched —
    /// and each again with a bias row, against the scalar
    /// [`matmul_bias_into`] (the Q/K/V projections' bits).
    /// The shapes are the backward's — the per-head `32 x 12 x 32`,
    /// `32 x 32 x 12` and `12 x 32 x 32`, the encoder's `48`- and
    /// `96`-wide projections, a one-row output projection — and ragged
    /// ones that leave row, column and `k` remainders on both vector
    /// widths; the operands hold `±0.0`, NaN and `±inf`, and a whole row
    /// of each is zero.
    #[test]
    fn view_matmuls_match_the_copied_operands_exactly() {
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-30];
        let finite = [0.0, -0.0, 1e-30];
        let mut rng = StdRng::seed_from_u64(17);
        let mut shapes = vec![
            (32, 12, 32),
            (32, 32, 12),
            (12, 32, 32),
            (32, 48, 48),
            (32, 48, 96),
            (32, 96, 48),
            (48, 32, 96),
            (96, 32, 48),
            (48, 32, 144),
            (9, 150, 20),
            (1, 48, 48),
            (48, 1, 48),
            (5, 8, 4),
            (0, 3, 4),
            (3, 0, 4),
            (3, 4, 0),
        ];
        for (i, c) in (1..=35).enumerate() {
            shapes.push((1 + i % 11, [1, 5, 16, 17, 31][i % 5], c));
        }
        let mut compared = 0;
        for (n, &(r, k, c)) in shapes.iter().enumerate() {
            for (ta, tb) in [(false, false), (true, false), (false, true)] {
                let values = if n % 2 == 0 {
                    &specials[..]
                } else {
                    &finite[..]
                };
                let zero = if n % 3 == 0 { -0.0 } else { 0.0 };
                let (a_off, b_off) = (n % 3, n % 4);
                let (a_buf, lda, a) = stored_operand(&mut rng, (r, k), (ta, a_off, zero), values);
                let (b_buf, ldb, b) = stored_operand(&mut rng, (k, c), (tb, b_off, zero), values);
                let av = view_of(&a_buf, a_off, (r, k), lda, ta);
                let bv = view_of(&b_buf, b_off, (k, c), ldb, tb);
                let (_, _, bias) = stored_operand(&mut rng, (1, c), (false, 0, zero), values);
                let mut with_bias = Tensor::zeros(r, c);
                matmul_bias_into(Isa::Scalar, &a, &b, Some(&bias), &mut with_bias);
                let cases = [
                    (None, reference_matmul(&a, &b)),
                    (Some(&bias.data[..]), with_bias),
                ];
                for isa in Isa::supported() {
                    for (bias, want) in &cases {
                        let (off, ldc) = (2, c + 5);
                        let mut out = vec![7.5f32; r * ldc + off];
                        let out_view = ViewMut::new(&mut out[off..], r, c, ldc);
                        matmul_bias_view_into(isa, av, bv, *bias, out_view);
                        let what = format!(
                            "{r}x{k}x{c} ta {ta} tb {tb} {isa:?} bias {}",
                            bias.is_some()
                        );
                        let mut untouched = out.clone();
                        for i in 0..r {
                            let row = off + i * ldc..off + i * ldc + c;
                            assert_same_bits(&out[row.clone()], want.row(i), &what);
                            untouched[row].fill(7.5);
                        }
                        assert!(untouched.iter().all(|&v| v == 7.5), "{what}: wrote outside");
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared >= 6 * shapes.len());
    }

    /// A matmul takes one transposed operand at most, and a view must fit
    /// the buffer it is read from.
    #[test]
    fn view_matmuls_check_their_operands() {
        let buf = vec![1.0f32; 12];
        let message = panic_message(|| {
            let _ = View::new(&buf, 3, 4, 5);
        });
        assert!(message.contains("holds 12 values, too few"), "{message:?}");
        let message = panic_message(|| {
            let _ = View::new(&buf, 2, 4, 3);
        });
        assert!(message.contains("at stride 3"), "{message:?}");
        for isa in Isa::supported() {
            let message = panic_message(move || {
                let buf = vec![1.0f32; 16];
                let a = View::new(&buf, 4, 4, 4);
                let mut out = vec![0.0; 16];
                matmul_view_into(isa, a.t(), a.t(), ViewMut::new(&mut out, 4, 4, 4));
            });
            assert!(
                message.contains("one transposed operand"),
                "{isa:?}: {message:?}"
            );
        }
    }

    /// GELU's vector backward against `grad * gelu_derivative(x)`, on
    /// every instruction set, over every length class (whole vectors,
    /// tails, empty) and the awkward values plus `±inf` and NaN in both
    /// the layer input and the incoming gradient.
    #[test]
    fn gelu_backward_matches_the_scalar_rule_exactly() {
        let mut rng = StdRng::seed_from_u64(29);
        let special = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for len in [0usize, 1, 7, 12, 15, 16, 17, 31, 32, 48, 96, 127, 1000] {
            let mut pre = random_slice(&mut rng, len);
            let mut grad = random_slice(&mut rng, len);
            for (i, v) in pre.iter_mut().chain(grad.iter_mut()).enumerate() {
                if i % 13 == 5 {
                    *v = special[i % special.len()];
                }
            }
            let want: Vec<f32> = grad
                .iter()
                .zip(&pre)
                .map(|(&g, &x)| g * gelu_derivative(x))
                .collect();
            for isa in Isa::supported() {
                let mut got = grad.clone();
                gelu_backward_on(isa, &pre, &mut got);
                assert_same_bits(&got, &want, &format!("gelu backward len={len} {isa:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "output shape mismatch")]
    fn matmul_into_checks_output_shape() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(3, 4);
        let mut out = Tensor::zeros(2, 3);
        matmul_into(&a, &b, &mut out);
    }

    /// The message a closure panics with.
    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("should have panicked");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// `Tensor`'s fields are public, so a shape can lie about its data.
    /// Every kernel must refuse such an operand with a message before any
    /// pointer is formed, whichever operand it is, on every variant.
    #[test]
    fn matmul_rejects_a_tensor_whose_data_is_shorter_than_its_shape() {
        let short = |rows, cols| Tensor {
            rows,
            cols,
            data: vec![1.0],
        };
        for isa in Isa::supported() {
            for broken in ["lhs", "rhs", "output", "bias"] {
                let message = panic_message(move || {
                    let pick = |name, rows, cols| {
                        if name == broken {
                            short(rows, cols)
                        } else {
                            Tensor::ones(rows, cols)
                        }
                    };
                    let (a, b) = (pick("lhs", 3, 2), pick("rhs", 2, 64));
                    let (bias, mut out) = (pick("bias", 1, 64), pick("output", 3, 64));
                    matmul_bias_into(isa, &a, &b, Some(&bias), &mut out);
                });
                assert!(
                    message.contains(&format!("matmul {broken} holds 1 values")),
                    "{isa:?} {broken}: {message:?}"
                );
            }
        }
        // Through the public entry, and with a shape whose product wraps.
        let message = panic_message(|| {
            let mut out = Tensor::zeros(3, 64);
            matmul_into(&Tensor::ones(3, 2), &short(2, 64), &mut out);
        });
        assert!(message.contains("matmul rhs holds 1 values"), "{message:?}");
        let message = panic_message(|| {
            let mut out = short(usize::MAX / 2 + 1, 2);
            matmul_into(&short(usize::MAX / 2 + 1, 2), &Tensor::ones(2, 2), &mut out);
        });
        assert!(message.contains("matmul lhs holds 1 values"), "{message:?}");
    }

    #[test]
    fn row_kernels_reject_short_gamma_and_beta() {
        for isa in Isa::supported() {
            for (g, b) in [(47, 48), (48, 47), (49, 48)] {
                let message = panic_message(move || {
                    let mut row = vec![1.0f32; 48];
                    layer_norm_row_on(isa, &mut row, &vec![1.0; g], &vec![0.0; b], 1e-5);
                });
                assert!(message.contains("layer-norm"), "{isa:?}: {message:?}");
            }
        }
    }

    #[test]
    fn fast_tanh_tracks_libm() {
        let mut x = -12.0f32;
        while x <= 12.0 {
            let got = fast_tanh(x);
            assert!(
                (got - x.tanh()).abs() <= 1e-6,
                "tanh({x}) = {got} vs {}",
                x.tanh()
            );
            assert!(got.abs() <= 1.0, "tanh({x}) = {got} out of range");
            x += 1e-3;
        }
        assert_eq!(fast_tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(fast_tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(fast_tanh(f32::INFINITY), fast_tanh(TANH_CLAMP));
        assert!(fast_tanh(f32::NAN).is_nan());
    }

    #[test]
    fn fast_exp_tracks_libm() {
        let mut x = -87.0f32;
        while x <= 20.0 {
            let got = fast_exp(x);
            let want = x.exp();
            assert!(
                (got - want).abs() <= 5e-7 * want,
                "exp({x}) = {got} vs {want}"
            );
            x += 1e-3;
        }
        assert_eq!(fast_exp(0.0), 1.0);
        // Saturation, not flush-to-zero, below the clamp point.
        assert!(fast_exp(-1000.0) > 0.0);
        assert_eq!(fast_exp(-1000.0), fast_exp(EXP_LO));
        assert!(fast_exp(f32::NAN).is_nan());
    }

    /// Values that exercise clamp edges, saturation, signed zero, and
    /// subnormal-adjacent magnitudes in the vector/scalar comparisons.
    fn awkward_values() -> Vec<f32> {
        vec![
            0.0, -0.0, 1e-30, -1e-30, 0.5, -0.5, 3.0, -3.0, 9.0, -9.0, 40.0, -40.0, 90.0, -90.0,
        ]
    }

    fn random_slice(rng: &mut StdRng, len: usize) -> Vec<f32> {
        let specials = awkward_values();
        (0..len)
            .map(|_| {
                if rng.gen_range(0.0..1.0f32) < 0.1 {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-4.0..4.0f32)
                }
            })
            .collect()
    }

    /// The slice kernels must be bit-identical to the scalar reference
    /// forms on every length (full vectors, tails, empty) — through the
    /// dispatching entry and on every instruction set the CPU has.
    #[test]
    fn vector_kernels_match_scalar_forms_exactly() {
        let mut rng = StdRng::seed_from_u64(23);
        for len in [0usize, 1, 7, 15, 16, 17, 31, 32, 48, 96, 127, 1000] {
            let base = random_slice(&mut rng, len);

            let mut vectored = base.clone();
            gelu_inplace(&mut vectored);
            let scalar: Vec<f32> = base.iter().map(|&x| gelu_scalar(x)).collect();
            for (c, (&g, &w)) in vectored.iter().zip(&scalar).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "gelu len={len} idx={c}");
            }
            for isa in Isa::supported() {
                let mut vectored = base.clone();
                gelu_inplace_on(isa, &mut vectored);
                assert_same_bits(&vectored, &scalar, &format!("gelu len={len} {isa:?}"));
            }

            if len > 0 {
                let mut vectored = base.clone();
                softmax_row(&mut vectored);
                let mut scalar = base.clone();
                softmax_row_scalar(&mut scalar);
                for (c, (&g, &w)) in vectored.iter().zip(&scalar).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "softmax len={len} idx={c}");
                }
                for isa in Isa::supported() {
                    let mut vectored = base.clone();
                    softmax_row_on(isa, &mut vectored);
                    assert_same_bits(&vectored, &scalar, &format!("softmax len={len} {isa:?}"));
                }

                let gamma: Vec<f32> = (0..len).map(|_| rng.gen_range(0.5..1.5f32)).collect();
                let beta: Vec<f32> = (0..len).map(|_| rng.gen_range(-0.5..0.5f32)).collect();
                let mut vectored = base.clone();
                layer_norm_row(&mut vectored, &gamma, &beta, crate::modules::LN_EPS);
                let mut scalar = base.clone();
                layer_norm_row_scalar(&mut scalar, &gamma, &beta, crate::modules::LN_EPS);
                for (c, (&g, &w)) in vectored.iter().zip(&scalar).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "layer_norm len={len} idx={c}");
                }
                for isa in Isa::supported() {
                    let mut vectored = base.clone();
                    layer_norm_row_on(isa, &mut vectored, &gamma, &beta, crate::modules::LN_EPS);
                    assert_same_bits(&vectored, &scalar, &format!("layer_norm len={len} {isa:?}"));
                }
            }
        }
    }

    /// [`attention_block`] on every instruction set — the fused AVX-512
    /// kernel where the CPU has it — against the per-head composition of
    /// the scalar kernels, with scratch and output pre-filled with NaN so
    /// a read of stale scratch or an unwritten output element shows.
    #[test]
    fn attention_block_matches_the_per_head_composition_exactly() {
        let mut rng = StdRng::seed_from_u64(41);
        for seq in [1usize, 5, 8, 9, 16, 17, 32, 33] {
            for (dh, heads) in [(4, 4), (8, 2), (12, 4), (16, 3), (20, 2), (33, 1)] {
                let d = dh * heads;
                let shape = AttnShape { seq, d, heads };
                let scale = 1.0 / (dh as f32).sqrt();
                for flavour in ["plain", "large", "special"] {
                    let mut qkv: Vec<f32> = match flavour {
                        // Score magnitudes that reach both `exp` clamps.
                        "large" => (0..seq * 3 * d)
                            .map(|_| rng.gen_range(-9.0..9.0f32))
                            .collect(),
                        _ => random_slice(&mut rng, seq * 3 * d),
                    };
                    if flavour == "special" {
                        for v in qkv.iter_mut() {
                            if rng.gen_range(0.0..1.0f32) < 0.02 {
                                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                                    [rng.gen_range(0..3)];
                            }
                        }
                    }
                    let what = format!("seq={seq} dh={dh} heads={heads} {flavour}");
                    let len = attention_scratch_len(seq, dh);
                    let mut reference = vec![f32::NAN; seq * d];
                    let mut scratch = vec![f32::NAN; len];
                    attention_block_composed(
                        Isa::Scalar,
                        &qkv,
                        shape,
                        scale,
                        &mut scratch,
                        &mut reference,
                    );
                    if flavour != "special" {
                        assert!(reference.iter().all(|x| x.is_finite()), "{what}");
                    }
                    for isa in Isa::supported() {
                        let mut concat = vec![f32::NAN; seq * d];
                        let mut scratch = vec![f32::NAN; len];
                        attention_block(isa, &qkv, shape, scale, &mut scratch, &mut concat);
                        assert_same_bits(&concat, &reference, &format!("{what} {isa:?}"));
                    }
                }
            }
        }
    }

    #[test]
    fn attention_block_checks_its_operands() {
        let shape = AttnShape {
            seq: 4,
            d: 8,
            heads: 2,
        };
        let len = attention_scratch_len(4, 4);
        for isa in Isa::supported() {
            for (qkv, scratch, concat, expected) in [
                (4 * 24 - 1, len, 4 * 8, "attention input"),
                (4 * 24, len - 1, 4 * 8, "attention scratch"),
                (4 * 24, len, 4 * 8 - 1, "attention output"),
            ] {
                let message = panic_message(move || {
                    let (qkv, mut scratch, mut concat) =
                        (vec![0.5; qkv], vec![0.0; scratch], vec![0.0; concat]);
                    attention_block(isa, &qkv, shape, 0.5, &mut scratch, &mut concat);
                });
                assert!(message.contains(expected), "{isa:?}: {message:?}");
            }
        }
    }

    /// One ISA module's loads and stores, run with its CPU feature on: a
    /// whole-vector access reaches the first `LANES` values of a longer
    /// slice and nothing past them, a masked one exactly the values its
    /// slice holds (its spare lanes read `+0.0`, not the memory behind
    /// the slice), and each panics on a slice it cannot fit.
    #[cfg(target_arch = "x86_64")]
    macro_rules! check_slice_helpers {
        ($isa:ident) => {{
            use $isa::{load_tail, loadu, splat, store_tail, storeu, LANES};
            const GUARD: f32 = -7.0;
            let src: Vec<f32> = (1..=LANES + 2).map(|i| i as f32).collect();
            let mut out = vec![GUARD; LANES + 2];
            storeu(&mut out[1..], loadu(&src[1..]));
            assert_eq!(out[1..=LANES], src[1..=LANES]);
            assert_eq!([out[0], out[LANES + 1]], [GUARD; 2]);
            for n in 0..=LANES {
                let mut out = vec![GUARD; LANES + 2];
                storeu(&mut out[1..], load_tail(&src[1..=n]));
                let mut want = vec![0.0; LANES + 2];
                want[1..=n].copy_from_slice(&src[1..=n]);
                (want[0], want[LANES + 1]) = (GUARD, GUARD);
                assert_eq!(out, want, "load_tail of {n}");
                let mut out = vec![GUARD; LANES + 2];
                store_tail(&mut out[1..=n], splat(0.5));
                let written = out.iter().filter(|&&x| x == 0.5).count();
                assert!(out[1..=n].iter().all(|&x| x == 0.5), "store_tail of {n}");
                assert_eq!(written, n, "store_tail of {n} wrote past its slice");
            }
            let mut buf = vec![0.0; LANES + 1];
            let message = panic_message(|| {
                let _ = loadu(&src[..LANES - 1]);
            });
            assert!(message.contains("range end"), "{message:?}");
            let message = panic_message(std::panic::AssertUnwindSafe(|| {
                storeu(&mut buf[..LANES - 1], splat(1.0))
            }));
            assert!(message.contains("range end"), "{message:?}");
            let message = panic_message(|| {
                let _ = load_tail(&src[..LANES + 1]);
            });
            assert!(message.contains("do not fit one vector"), "{message:?}");
            let message = panic_message(std::panic::AssertUnwindSafe(|| {
                store_tail(&mut buf, splat(1.0))
            }));
            assert!(message.contains("do not fit one vector"), "{message:?}");
            assert_eq!(buf, vec![0.0; LANES + 1], "a refused store wrote");
        }};
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2_helpers_stay_inside_their_slices() {
        check_slice_helpers!(avx2);
    }

    /// The AVX-512 set, plus the K-column gather: it reads `band[l *
    /// stride]` for its first `rows` lanes only, and panics on a band
    /// whose last row runs past the slice or a stride past `i32`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn avx512_helpers_stay_inside_their_slices() {
        use avx512::{gather, storeu, LANES};
        check_slice_helpers!(avx512);
        let stride = 5;
        let qkv: Vec<f32> = (1..=LANES * stride).map(|i| i as f32).collect();
        for rows in 0..=LANES {
            for c in [0, stride - 1] {
                // Exactly the band `rows` rows need, from column `c`.
                let band = &qkv[c..c + rows.saturating_sub(1) * stride + 1];
                let mut out = [f32::NAN; LANES];
                storeu(&mut out, gather(band, stride, rows));
                for (l, &x) in out.iter().enumerate() {
                    let want = if l < rows { band[l * stride] } else { 0.0 };
                    assert_eq!(x, want, "rows {rows} column {c} lane {l}");
                }
                if rows > 0 {
                    let short = &band[..band.len() - 1];
                    let message = panic_message(|| {
                        let _ = gather(short, stride, rows);
                    });
                    assert!(message.contains("do not fit a band"), "{message:?}");
                }
            }
        }
        let message = panic_message(|| {
            let _ = gather(&qkv, i32::MAX as usize, 2);
        });
        assert!(message.contains("do not fit a band"), "{message:?}");
        let message = panic_message(|| {
            let _ = gather(&qkv, 1, LANES + 1);
        });
        assert!(message.contains("do not fit one vector"), "{message:?}");
    }

    #[test]
    fn load_store_helpers_stay_inside_their_slices() {
        #[cfg(target_arch = "x86_64")]
        for isa in Isa::supported() {
            match isa {
                Isa::Scalar => {}
                // SAFETY: `Isa::supported` lists only what the CPU runs.
                Isa::Avx2 => unsafe { avx2_helpers_stay_inside_their_slices() },
                // SAFETY: `Isa::supported` lists only what the CPU runs.
                Isa::Avx512 => unsafe { avx512_helpers_stay_inside_their_slices() },
            }
        }
    }

    #[test]
    fn strided_sum_basics() {
        for len in [0usize, 1, 15, 16, 17, 100] {
            let ones = vec![1.0f32; len];
            assert_eq!(strided_sum(&ones), len as f32);
            assert_eq!(strided_sum_sq_dev(&ones, 1.0), 0.0);
        }
        assert_eq!(strided_sum(&[]), 0.0);
    }

    #[test]
    fn strided_max_matches_iterator_max() {
        let mut rng = StdRng::seed_from_u64(31);
        assert_eq!(strided_max(&[]), f32::NEG_INFINITY);
        for len in [1usize, 7, 15, 16, 17, 32, 100] {
            let v = random_slice(&mut rng, len);
            let want = v.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            assert_eq!(strided_max(&v), want, "len={len}");
        }
    }
}
