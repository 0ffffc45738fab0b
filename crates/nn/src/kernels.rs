//! SIMD kernels: the one matmul and the row kernels of the encoder.
//!
//! [`Tensor::matmul`] *is* [`matmul`]: the autograd tape (its forward and
//! both products of its backward), the losses, the Tuner and the tape-free
//! inference path (`TrajectoryEncoder::embed_batch` and the matcher's scan
//! built on it) all run the register-tiled kernels below on the widest
//! instruction set the CPU has (`Isa`: AVX-512, AVX2 or portable scalar
//! code — chosen by CPU feature detection only). The readable scalar ikj
//! loop, `matmul_scalar`, is the single reference: it is what `Isa::Scalar`
//! runs and the oracle the vector kernels are differentially tested
//! against, bit for bit — which is why a model trained on one host is the
//! model trained on any other.
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
//! dispatching form that runs the vector code where the CPU has it (used
//! by the autograd tape's forward ops and by the batched tape-free
//! inference path alike); the pairs are differentially tested to produce
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
//! differentially tested against.
//!
//! ## Safety boundary
//!
//! The vector kernels take raw pointers. Every safe entry point
//! (`gemm`, `attention_block`, the row kernels) asserts its operand
//! lengths against the shape once, with `assert!`, before the `unsafe`
//! call; the kernels index only inside those lengths.

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

/// The matmul on slices: `out (r x c) = a (r x k) @ b (k x c) [+ bias]`.
/// This is the safe boundary of the vector kernels: every operand's
/// length is asserted against `(r, k, c)` here, once.
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
        Isa::Scalar => matmul_scalar(a, b, bias, out, (r, k, c)),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 | Isa::Avx512 => {
            let bias = bias.map_or(std::ptr::null(), <[f32]>::as_ptr);
            let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            // SAFETY: the CPU feature was asserted by `isa.available()`, and
            // the four `assert_len` calls above pin `a`, `b`, `out` and
            // `bias` (when non-null) to exactly r*k, k*c, r*c and c values,
            // which is all the kernel indexes.
            unsafe {
                if isa == Isa::Avx512 {
                    avx512::gemm(a, b, bias, out, r, k, c)
                } else {
                    avx2::gemm(a, b, bias, out, r, k, c)
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("no vector kernels on this architecture"),
    }
}

/// The reference loop — the only scalar matmul in the crate — with the
/// bias added in a second pass.
fn matmul_scalar(
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    (r, k, c): (usize, usize, usize),
) {
    out.fill(0.0);
    for i in 0..r {
        let out_row = &mut out[i * c..(i + 1) * c];
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * c..(kk + 1) * c];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        if let Some(bias) = bias {
            for (o, &bv) in out_row.iter_mut().zip(bias) {
                *o += bv;
            }
        }
    }
}

/// Emits the register-tile matmul for the ISA module it is invoked in,
/// which supplies the vector vocabulary: `V` / `LANES`, `zero` / `splat` /
/// `loadu` / `storeu` / `add` / `mul`, the column-remainder mask (`Tail`,
/// `tail_mask`, `load_tail`, `store_tail`) and the zero-skip mask (`Keep`,
/// `nonzero`, `add_where`).
macro_rules! simd_gemm {
    ($feature:literal) => {
        /// Output rows per full tile.
        const MR: usize = 4;
        /// Column vectors per full tile.
        const NR: usize = 3;

        /// One `ROWS x NV` tile: `ROWS` output rows by `NV` column
        /// vectors starting at `out`, the last vector masked by `tail`.
        /// `a` points at the tile's first row, `b` and `bias` (null for
        /// none) at its first column. Each accumulator starts at `+0.0`
        /// and takes one rounded multiply and one rounded add per
        /// ascending `k`, the add masked off where the `a` value is zero.
        ///
        /// # Safety
        /// The CPU must support `$feature`; `a` must be readable for
        /// `ROWS` rows of `k`, `b` for `k` rows of stride `c`, and `out`
        /// writable for `ROWS` rows of stride `c`, each over the tile's
        /// columns (`(NV - 1) * LANES` plus the lanes set in `tail`), as
        /// must `bias` when non-null.
        #[inline]
        #[target_feature(enable = $feature)]
        #[allow(clippy::needless_range_loop)]
        unsafe fn tile<const ROWS: usize, const NV: usize>(
            a: *const f32,
            b: *const f32,
            bias: *const f32,
            out: *mut f32,
            k: usize,
            c: usize,
            tail: Tail,
        ) {
            let mut acc = [[zero(); NV]; ROWS];
            for kk in 0..k {
                let b_row = b.add(kk * c);
                let mut vb = [zero(); NV];
                for v in 0..NV - 1 {
                    vb[v] = loadu(b_row.add(v * LANES));
                }
                vb[NV - 1] = load_tail(b_row.add((NV - 1) * LANES), tail);
                for m in 0..ROWS {
                    let va = splat(*a.add(m * k + kk));
                    let keep = nonzero(va);
                    for v in 0..NV {
                        acc[m][v] = add_where(keep, acc[m][v], mul(va, vb[v]));
                    }
                }
            }
            if !bias.is_null() {
                for v in 0..NV {
                    let vbias = if v == NV - 1 {
                        load_tail(bias.add(v * LANES), tail)
                    } else {
                        loadu(bias.add(v * LANES))
                    };
                    for m in 0..ROWS {
                        acc[m][v] = add(acc[m][v], vbias);
                    }
                }
            }
            for m in 0..ROWS {
                let o = out.add(m * c);
                for v in 0..NV - 1 {
                    storeu(o.add(v * LANES), acc[m][v]);
                }
                store_tail(o.add((NV - 1) * LANES), tail, acc[m][NV - 1]);
            }
        }

        /// `out (r x c) = a (r x k) @ b (k x c) [+ bias (c)]`: row tiles
        /// outermost so `a` streams once and the `b` panel stays cached,
        /// `MR`-row tiles then 1-row tiles for the remainder, column
        /// blocks of up to `NR` vectors with the last one masked.
        ///
        /// # Safety
        /// The CPU must support `$feature`; `a`, `b` and `out` must be
        /// valid for `r * k`, `k * c` and `r * c` values, and `bias`
        /// either null or valid for `c`.
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn gemm(
            a: *const f32,
            b: *const f32,
            bias: *const f32,
            out: *mut f32,
            r: usize,
            k: usize,
            c: usize,
        ) {
            let mut i = 0;
            while i < r {
                let full = r - i >= MR;
                let mut j = 0;
                while j < c {
                    let cols = (c - j).min(NR * LANES);
                    let nv = cols.div_ceil(LANES);
                    let tail = tail_mask(cols - (nv - 1) * LANES);
                    let a = a.add(i * k);
                    let b = b.add(j);
                    let bias = if bias.is_null() { bias } else { bias.add(j) };
                    let out = out.add(i * c + j);
                    match (full, nv) {
                        (true, 1) => tile::<MR, 1>(a, b, bias, out, k, c, tail),
                        (true, 2) => tile::<MR, 2>(a, b, bias, out, k, c, tail),
                        (true, _) => tile::<MR, NR>(a, b, bias, out, k, c, tail),
                        (false, 1) => tile::<1, 1>(a, b, bias, out, k, c, tail),
                        (false, 2) => tile::<1, 2>(a, b, bias, out, k, c, tail),
                        (false, _) => tile::<1, NR>(a, b, bias, out, k, c, tail),
                    }
                    j += cols;
                }
                i += if full { MR } else { 1 };
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
/// [`gelu_inplace`] and the forward used by the tape's GELU op.
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
        // SAFETY: the CPU feature was asserted; the kernel indexes only
        // inside `v`.
        unsafe { avx512::gelu_slice(v) };
        return;
    }
    for x in v.iter_mut() {
        *x = gelu_scalar(*x);
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
        // SAFETY: the CPU feature was asserted; the kernel indexes only
        // inside `row`.
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
        // SAFETY: the CPU feature was asserted, and the two `assert_len`
        // calls above make `gamma` and `beta` exactly as long as `row`,
        // which is as far as the kernel reads them.
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
/// kernel, anything else as the per-head composition.
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
    // The fused kernel gathers K columns with 32-bit row offsets.
    assert!(
        d <= i32::MAX as usize / (3 * SUM_LANES),
        "attention width {d} is too large"
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
        // SAFETY: the CPU feature was asserted, and the asserts above pin
        // `concat` to seq*d values, `qkv` to three times that and
        // `scratch` to at least `attention_scratch_len`, which covers the
        // kernel's `K^T` and score rows; `seq > 0`, `d > 0`, `heads | d`,
        // and 16 rows of `3 * d` floats fit the gather's `i32` offsets.
        unsafe {
            avx512::attention_block(
                qkv.as_ptr(),
                shape,
                scale,
                scratch.as_mut_ptr(),
                concat.as_mut_ptr(),
            )
        };
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
    /// Lanes of a column block's last vector that exist.
    type Tail = __mmask16;
    /// All lanes set where a broadcast `a` value is non-zero.
    type Keep = __mmask16;
    const LANES: usize = 16;

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn zero() -> V {
        _mm512_setzero_ps()
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: f32) -> V {
        _mm512_set1_ps(x)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn loadu(p: *const f32) -> V {
        _mm512_loadu_ps(p)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn storeu(p: *mut f32, v: V) {
        _mm512_storeu_ps(p, v)
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

    /// The first `n` lanes, `1 <= n <= LANES`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tail_mask(n: usize) -> Tail {
        (0xFFFFu32 >> (LANES - n)) as u16
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_tail(p: *const f32, tail: Tail) -> V {
        _mm512_maskz_loadu_ps(tail, p)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_tail(p: *mut f32, tail: Tail, v: V) {
        _mm512_mask_storeu_ps(p, tail, v)
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
    ///    scratch while the 16-bucket running maximum is updated;
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
    /// Any `seq` and head width work: `ceil(seq / 16)` score vectors and
    /// `ceil(dh / 16)` output vectors, the last of each masked.
    ///
    /// # Safety
    /// The CPU must support AVX-512F; `qkv` must be valid for
    /// `seq * 3 * d` values, `concat` for `seq * d`, `scratch` for
    /// [`attention_scratch_len`]`(seq, d / heads)`; `seq > 0`, `heads > 0`,
    /// `heads` divides `d > 0`, and `16 * 3 * d` fits an `i32`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::needless_range_loop)]
    pub(super) unsafe fn attention_block(
        qkv: *const f32,
        AttnShape { seq, d, heads }: AttnShape,
        scale: f32,
        scratch: *mut f32,
        concat: *mut f32,
    ) {
        const R: usize = ATTN_ROWS;
        let dh = d / heads;
        let ld = 3 * d;
        let score_vecs = seq.div_ceil(LANES);
        let padded = score_vecs * LANES;
        let seq_tail = tail_mask(seq - (score_vecs - 1) * LANES);
        let out_vecs = dh.div_ceil(LANES);
        let dh_tail = tail_mask(dh - (out_vecs - 1) * LANES);
        let kt = scratch;
        let scores = scratch.add(dh * padded);
        let vscale = splat(scale);
        // Lane `l` of a gather reads row `l` of a 16-row band of `qkv`.
        let row_stride = _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm512_set1_epi32(ld as i32),
        );
        for h in 0..heads {
            let c0 = h * dh;
            for v in 0..score_vecs {
                let lanes = if v + 1 == score_vecs { seq_tail } else { !0 };
                let k_rows = qkv.add(v * LANES * ld + d + c0);
                for c in 0..dh {
                    let column = _mm512_mask_i32gather_ps::<4>(
                        zero(),
                        lanes,
                        row_stride,
                        k_rows.add(c).cast(),
                    );
                    storeu(kt.add(c * padded + v * LANES), column);
                }
            }
            for i0 in (0..seq).step_by(R) {
                let mut rows = [0; R];
                for r in 0..R {
                    rows[r] = (i0 + r).min(seq - 1);
                }

                let mut max = [splat(f32::NEG_INFINITY); R];
                for v in 0..score_vecs {
                    let lanes = if v + 1 == score_vecs { seq_tail } else { !0 };
                    let mut acc = [zero(); R];
                    for c in 0..dh {
                        let vk = load_tail(kt.add(c * padded + v * LANES), lanes);
                        for r in 0..R {
                            let vq = splat(*qkv.add(rows[r] * ld + c0 + c));
                            acc[r] = add_where(nonzero(vq), acc[r], mul(vq, vk));
                        }
                    }
                    for r in 0..R {
                        let scaled = mul(acc[r], vscale);
                        storeu(scores.add(r * padded + v * LANES), scaled);
                        max[r] = _mm512_mask_max_ps(max[r], lanes, max[r], scaled);
                    }
                }

                let mut sum = [zero(); R];
                for r in 0..R {
                    max[r] = splat(tree_max_v(max[r]));
                }
                for v in 0..score_vecs {
                    let lanes = if v + 1 == score_vecs { seq_tail } else { !0 };
                    for r in 0..R {
                        let p = scores.add(r * padded + v * LANES);
                        let e = exp_v(_mm512_sub_ps(loadu(p), max[r]));
                        storeu(p, e);
                        sum[r] = add(sum[r], _mm512_maskz_mov_ps(lanes, e));
                    }
                }
                for r in 0..R {
                    sum[r] = splat(1.0 / tree_combine_v(sum[r]));
                }
                for v in 0..score_vecs {
                    for r in 0..R {
                        let p = scores.add(r * padded + v * LANES);
                        storeu(p, mul(loadu(p), sum[r]));
                    }
                }

                for v in 0..out_vecs {
                    let lanes = if v + 1 == out_vecs { dh_tail } else { !0 };
                    let mut acc = [zero(); R];
                    for j in 0..seq {
                        let vv = load_tail(qkv.add(j * ld + 2 * d + c0 + v * LANES), lanes);
                        for r in 0..R {
                            let vp = splat(*scores.add(r * padded + j));
                            acc[r] = add_where(nonzero(vp), acc[r], mul(vp, vv));
                        }
                    }
                    for r in 0..R {
                        store_tail(concat.add(rows[r] * d + c0 + v * LANES), lanes, acc[r]);
                    }
                }
            }
        }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn tanh_v(x: __m512) -> __m512 {
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
    unsafe fn exp_v(x: __m512) -> __m512 {
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

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gelu_slice(v: &mut [f32]) {
        let n = v.len();
        let p = v.as_mut_ptr();
        let mut i = 0;
        while i + 16 <= n {
            let x = _mm512_loadu_ps(p.add(i));
            let x3 = _mm512_mul_ps(
                _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(GELU_A), x), x),
                x,
            );
            let inner = _mm512_mul_ps(_mm512_set1_ps(GELU_C), _mm512_add_ps(x, x3));
            let t = tanh_v(inner);
            let y = _mm512_mul_ps(
                _mm512_mul_ps(_mm512_set1_ps(0.5), x),
                _mm512_add_ps(_mm512_set1_ps(1.0), t),
            );
            _mm512_storeu_ps(p.add(i), y);
            i += 16;
        }
        for x in &mut v[i..] {
            *x = gelu_scalar(*x);
        }
    }

    /// In-register halving tree, lane-for-lane the same adds as the
    /// scalar [`tree_combine`]: lanes `i` and `i+8` (then `+4`, `+2`,
    /// `+1`) combine pairwise; only lane 0 of each intermediate is
    /// ultimately read, and its dependency chain is exactly the scalar
    /// tree's.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tree_combine_v(acc: __m512) -> f32 {
        // 0xEE selects 128-bit chunks [2,3,2,3]: lane i gets lane i+8.
        let acc = _mm512_add_ps(acc, _mm512_shuffle_f32x4::<0xEE>(acc, acc));
        // 0x55 selects chunks [1,1,1,1]: lane i gets lane i+4.
        let acc = _mm512_add_ps(acc, _mm512_shuffle_f32x4::<0x55>(acc, acc));
        // Within each 128-bit chunk: lane i gets lane i+2, then lane 1.
        let acc = _mm512_add_ps(acc, _mm512_shuffle_ps::<0x0E>(acc, acc));
        let acc = _mm512_add_ps(acc, _mm512_shuffle_ps::<0x01>(acc, acc));
        _mm512_cvtss_f32(acc)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn strided_sum_v(v: &[f32]) -> f32 {
        let mut acc = _mm512_setzero_ps();
        let mut chunks = v.chunks_exact(16);
        for ch in &mut chunks {
            acc = _mm512_add_ps(acc, _mm512_loadu_ps(ch.as_ptr()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mask: u16 = (1u16 << rem.len()) - 1;
            acc = _mm512_add_ps(acc, _mm512_maskz_loadu_ps(mask, rem.as_ptr()));
        }
        tree_combine_v(acc)
    }

    /// The halving tree of [`strided_max`] on the 16 buckets, the same
    /// shuffles as [`tree_combine_v`] with `_mm512_max_ps` for the add.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn tree_max_v(acc: __m512) -> f32 {
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
    unsafe fn strided_max_v(v: &[f32]) -> f32 {
        let mut acc = _mm512_set1_ps(f32::NEG_INFINITY);
        let mut chunks = v.chunks_exact(16);
        for ch in &mut chunks {
            acc = _mm512_max_ps(acc, _mm512_loadu_ps(ch.as_ptr()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mask: u16 = (1u16 << rem.len()) - 1;
            let x = _mm512_maskz_loadu_ps(mask, rem.as_ptr());
            acc = _mm512_mask_max_ps(acc, mask, acc, x);
        }
        tree_max_v(acc)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn strided_sum_sq_dev_v(v: &[f32], mean: f32) -> f32 {
        let vm = _mm512_set1_ps(mean);
        let mut acc = _mm512_setzero_ps();
        let mut chunks = v.chunks_exact(16);
        for ch in &mut chunks {
            let d = _mm512_sub_ps(_mm512_loadu_ps(ch.as_ptr()), vm);
            acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mask: u16 = (1u16 << rem.len()) - 1;
            let d = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, rem.as_ptr()), vm);
            let sq = _mm512_maskz_mov_ps(mask, _mm512_mul_ps(d, d));
            acc = _mm512_add_ps(acc, sq);
        }
        tree_combine_v(acc)
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn softmax_row(row: &mut [f32]) {
        let max = strided_max_v(row);
        let n = row.len();
        let p = row.as_mut_ptr();
        let vmax = _mm512_set1_ps(max);
        let mut i = 0;
        while i + 16 <= n {
            let x = _mm512_sub_ps(_mm512_loadu_ps(p.add(i)), vmax);
            _mm512_storeu_ps(p.add(i), exp_v(x));
            i += 16;
        }
        for x in &mut row[i..] {
            *x = fast_exp(*x - max);
        }
        let inv = 1.0 / strided_sum_v(row);
        let p = row.as_mut_ptr();
        let vs = _mm512_set1_ps(inv);
        let mut i = 0;
        while i + 16 <= n {
            _mm512_storeu_ps(p.add(i), _mm512_mul_ps(_mm512_loadu_ps(p.add(i)), vs));
            i += 16;
        }
        for x in &mut row[i..] {
            *x *= inv;
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn layer_norm_row(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
        let n = row.len() as f32;
        let mean = strided_sum_v(row) / n;
        let var = strided_sum_sq_dev_v(row, mean) / n;
        let inv_std = 1.0 / (var + eps).sqrt();
        let len = row.len();
        let p = row.as_mut_ptr();
        let gp = gamma.as_ptr();
        let bp = beta.as_ptr();
        let vmean = _mm512_set1_ps(mean);
        let vinv = _mm512_set1_ps(inv_std);
        let mut i = 0;
        while i + 16 <= len {
            let x = _mm512_sub_ps(_mm512_loadu_ps(p.add(i)), vmean);
            let y = _mm512_add_ps(
                _mm512_mul_ps(_mm512_mul_ps(x, vinv), _mm512_loadu_ps(gp.add(i))),
                _mm512_loadu_ps(bp.add(i)),
            );
            _mm512_storeu_ps(p.add(i), y);
            i += 16;
        }
        for (c, x) in row.iter_mut().enumerate().skip(i) {
            *x = (*x - mean) * inv_std * gamma[c] + beta[c];
        }
    }
}

/// AVX2 kernels: the 8-lane matmul tiles. The row kernels and attention
/// have no AVX2 form; an AVX2-only CPU composes them from these tiles and
/// the scalar row kernels.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    type V = __m256;
    /// Lanes of a column block's last vector that exist (sign bit set).
    type Tail = __m256i;
    /// All bits set where a broadcast `a` value is non-zero.
    type Keep = __m256;
    const LANES: usize = 8;

    #[inline]
    #[target_feature(enable = "avx2")]
    fn zero() -> V {
        _mm256_setzero_ps()
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat(x: f32) -> V {
        _mm256_set1_ps(x)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn loadu(p: *const f32) -> V {
        _mm256_loadu_ps(p)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn storeu(p: *mut f32, v: V) {
        _mm256_storeu_ps(p, v)
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

    /// The first `n` lanes, `1 <= n <= LANES`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tail_mask(n: usize) -> Tail {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_tail(p: *const f32, tail: Tail) -> V {
        _mm256_maskload_ps(p, tail)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_tail(p: *mut f32, tail: Tail, v: V) {
        _mm256_maskstore_ps(p, tail, v)
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
                layer_norm_row(&mut vectored, &gamma, &beta, crate::tape::LN_EPS);
                let mut scalar = base.clone();
                layer_norm_row_scalar(&mut scalar, &gamma, &beta, crate::tape::LN_EPS);
                for (c, (&g, &w)) in vectored.iter().zip(&scalar).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "layer_norm len={len} idx={c}");
                }
                for isa in Isa::supported() {
                    let mut vectored = base.clone();
                    layer_norm_row_on(isa, &mut vectored, &gamma, &beta, crate::tape::LN_EPS);
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
                        let mut concat = vec![f32::NAN; seq * d];
                        attention_block_composed(
                            isa,
                            &qkv,
                            shape,
                            scale,
                            &mut scratch,
                            &mut concat,
                        );
                        assert_same_bits(&concat, &reference, &format!("{what} {isa:?} composed"));
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
