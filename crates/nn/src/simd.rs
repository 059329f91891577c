//! Explicit-width f64 SIMD kernels with runtime width selection.
//!
//! The kernels here power the batched forward, backward and Adam step in
//! [`crate::mlp`] — every layer stores its weights k-major, `Wᵀ[in×out]`,
//! so the forward reads them as they lie.
//! They follow one **order-of-operations contract** that makes every
//! width produce bit-identical results to the scalar reference:
//!
//! * Reductions run over `k` in ascending order per output element.
//!   Vector lanes span *outputs* (`n`), never the reduction axis, so no
//!   partial-sum reassociation ever happens.
//! * Multiplies and adds are written as separate operations, and LLVM
//!   only fuses them under fast-math flags, which Rust does not set, so
//!   no fused multiply-add can change rounding. The V4 bodies do not even
//!   enable `fma`; the V8 bodies' `avx512f` implies it, and they rely on
//!   the separate operations alone. The one exception is `tanh`
//!   ([`crate::tanh`]): its fused operations are explicit
//!   (`f64::mul_add`, `_mm512_fmadd_pd`) and mirror, site for site, the
//!   reference it ports.
//! * Transcendentals are ports, not approximations: `tanh` is glibc
//!   2.36's, bit for bit, at every width ([`tanh_in_place`]), so its bits
//!   no longer depend on the host's libm. `softmax`'s `exp` and the
//!   trainers' `ln`/`exp` stay libm calls.
//!
//! Consequently the differential suite pins a tolerance of **zero**:
//! `assert_eq!` on `f64::to_bits`.
//!
//! Width selection follows ratchet's `KernelElement` pattern: a small
//! enum ([`KernelWidth`]) chosen once at startup (or forced by tests and
//! benches), dispatching to monomorphized lane kernels. The widths are
//! `V8` (AVX-512F `f64x8`: hand-written bodies for the three GEMMs and
//! `tanh`, the AVX bodies for the other elementwise kernels), `V4` (AVX
//! `f64x4`) and `V2` (the SSE2 baseline, and the portable fallback on
//! any other architecture); `V8` and `V4` fall back to their generic
//! lane bodies on a CPU without their instructions. The references every
//! width is held to are the plain scalar [`crate::Mlp::forward`] and
//! [`crate::Mlp::backward`].

use std::sync::OnceLock;

/// Vector width for the f64 kernels, à la ratchet's `KernelElement`.
///
/// `V8` maps to AVX-512F `f64x8` on `x86_64` for the GEMMs and `tanh`,
/// and to the AVX bodies for the other elementwise kernels; `V4` maps to
/// AVX `f64x4`.
/// Both are runtime-detected and fall back to the generic 8- and 4-lane
/// kernels on a CPU without those instructions. `V2` is the
/// SSE2-baseline 2-lane kernel, and the generic body every other
/// architecture runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelWidth {
    /// Eight f64 lanes (AVX-512F zmm).
    V8,
    /// Four f64 lanes (AVX ymm).
    V4,
    /// Two f64 lanes (SSE2 xmm baseline).
    V2,
}

impl KernelWidth {
    /// Number of f64 lanes per vector.
    pub fn lanes(self) -> usize {
        match self {
            KernelWidth::V8 => 8,
            KernelWidth::V4 => 4,
            KernelWidth::V2 => 2,
        }
    }

    /// Stable name, `v<lanes>`.
    pub fn name(self) -> &'static str {
        match self {
            KernelWidth::V8 => "v8",
            KernelWidth::V4 => "v4",
            KernelWidth::V2 => "v2",
        }
    }

    /// All widths, widest first (for differential sweeps).
    pub fn all() -> [KernelWidth; 3] {
        [KernelWidth::V8, KernelWidth::V4, KernelWidth::V2]
    }

    /// Select the widest kernel the CPU supports: `V8` when it reports
    /// AVX-512F, `V4` when it reports AVX, else `V2`.
    pub fn pick() -> KernelWidth {
        #[cfg(target_arch = "x86_64")]
        if v8::avx512_available() {
            return KernelWidth::V8;
        } else if v4::avx_available() {
            return KernelWidth::V4;
        }
        KernelWidth::V2
    }
}

/// [`KernelWidth::pick`], computed once and cached.
pub fn picked() -> KernelWidth {
    static PICKED: OnceLock<KernelWidth> = OnceLock::new();
    *PICKED.get_or_init(KernelWidth::pick)
}

// ---- lane workers ----
//
// One generic body, monomorphized per lane count. The `L`-sized array
// temporaries compile to vector registers; the remainder tail is scalar.
// Per *element* the arithmetic is identical across `L`, which is what
// the bit-identity contract rests on.

#[inline(always)]
fn add_lanes<const L: usize>(y: &mut [f64], x: &[f64]) {
    let n = y.len();
    let main = n - n % L;
    let (yv, yt) = y.split_at_mut(main);
    let (xv, xt) = x.split_at(main);
    for (yc, xc) in yv.chunks_exact_mut(L).zip(xv.chunks_exact(L)) {
        for i in 0..L {
            yc[i] += xc[i];
        }
    }
    for (yi, xi) in yt.iter_mut().zip(xt) {
        *yi += *xi;
    }
}

/// Coefficients of one Adam step, fixed across a parameter sweep
/// ([`adam_step`]).
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    lr: f64,
    /// Gradient scale (`1 / samples accumulated`).
    scale: f64,
    b1: f64,
    b2: f64,
    /// Bias corrections `1 - βᵗ`.
    bc1: f64,
    bc2: f64,
    eps: f64,
}

impl AdamStep {
    /// Step `t` (1-based) at learning rate `lr` over gradients summed
    /// from `samples` samples, with the usual β₁ = 0.9, β₂ = 0.999,
    /// ε = 1e-8.
    pub fn new(lr: f64, samples: usize, t: u64) -> AdamStep {
        let (b1, b2): (f64, f64) = (0.9, 0.999);
        AdamStep {
            lr,
            scale: 1.0 / samples as f64,
            b1,
            b2,
            bc1: 1.0 - b1.powi(t as i32),
            bc2: 1.0 - b2.powi(t as i32),
            eps: 1e-8,
        }
    }
}

/// One parameter's Adam update. Every width evaluates exactly this
/// expression tree per element; IEEE `div` and `sqrt` are correctly
/// rounded at any vector width, so lanes are exact.
#[inline(always)]
fn adam_element(
    w: &mut f64,
    g: &mut f64,
    m: &mut f64,
    v: &mut f64,
    nb1: f64,
    nb2: f64,
    c: &AdamStep,
) {
    let grad = *g * c.scale;
    let mn = c.b1 * *m + nb1 * grad;
    let vn = c.b2 * *v + nb2 * grad * grad;
    *m = mn;
    *v = vn;
    let mhat = mn / c.bc1;
    let vhat = vn / c.bc2;
    *w -= c.lr * mhat / (vhat.sqrt() + c.eps);
    *g = 0.0;
}

#[inline(always)]
fn adam_lanes<const L: usize>(
    w: &mut [f64],
    g: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    c: &AdamStep,
) {
    let (nb1, nb2) = (1.0 - c.b1, 1.0 - c.b2);
    let main = w.len() - w.len() % L;
    let (wv, wt) = w.split_at_mut(main);
    let (gv, gt) = g.split_at_mut(main);
    let (mv, mt) = m.split_at_mut(main);
    let (vv, vt) = v.split_at_mut(main);
    for (((wc, gc), mc), vc) in wv
        .chunks_exact_mut(L)
        .zip(gv.chunks_exact_mut(L))
        .zip(mv.chunks_exact_mut(L))
        .zip(vv.chunks_exact_mut(L))
    {
        for l in 0..L {
            adam_element(&mut wc[l], &mut gc[l], &mut mc[l], &mut vc[l], nb1, nb2, c);
        }
    }
    for (((wi, gi), mi), vi) in wt.iter_mut().zip(gt).zip(mt).zip(vt) {
        adam_element(wi, gi, mi, vi, nb1, nb2, c);
    }
}

/// `y[n] = Σ_k x[k] · wt[k·out + n]` for a k-major (transposed) weight
/// slab, register-blocked: outputs advance in blocks of `4·L` whose four
/// accumulator vectors stay in registers while `k` streams, so the
/// weight slab is read once and `y` written once (a row-at-a-time
/// update would re-read and re-write `y` for every `k`), and the four
/// independent accumulation chains hide FP-add latency. Each output
/// element still accumulates in ascending-`k` order with separate
/// mul-then-add — bit-identical to the scalar matvec.
///
/// With `ACC` the accumulators start from `y` instead of zero (see
/// [`gemm_kt_acc`]); the `ACC = false` instantiation is the forward
/// kernel and compiles as if the parameter did not exist.
#[inline(always)]
fn gemv_kt_lanes<const L: usize, const ACC: bool>(wt: &[f64], x: &[f64], y: &mut [f64]) {
    let out = y.len();
    if out == 0 {
        return;
    }
    let block = 4 * L;
    let mut n = 0;
    while n + block <= out {
        let mut acc = [[0.0f64; L]; 4];
        if ACC {
            for (u, a) in acc.iter_mut().enumerate() {
                a.copy_from_slice(&y[n + u * L..n + (u + 1) * L]);
            }
        }
        for (k, &xk) in x.iter().enumerate() {
            let row = &wt[k * out + n..k * out + n + block];
            for (u, a) in acc.iter_mut().enumerate() {
                let mut prod = [0.0f64; L];
                for l in 0..L {
                    prod[l] = row[u * L + l] * xk;
                }
                for l in 0..L {
                    a[l] += prod[l];
                }
            }
        }
        for (u, a) in acc.iter().enumerate() {
            y[n + u * L..n + (u + 1) * L].copy_from_slice(a);
        }
        n += block;
    }
    // Output tail: plain dot products in the same ascending-k order.
    for nn in n..out {
        let mut a = if ACC { y[nn] } else { 0.0 };
        for (k, &xk) in x.iter().enumerate() {
            a += wt[k * out + nn] * xk;
        }
        y[nn] = a;
    }
}

/// Batched GEMM over the same k-major slab: `batch` independent GEMVs
/// computed together, row-blocked so each weight vector loaded from the
/// slab is reused across [`GEMM_ROW_BLOCK`] batch rows before moving on —
/// the weight-traffic amortization a gathered serving batch exists for.
/// The per-element reduction order is exactly [`gemv_kt_lanes`]'s, so
/// batching is bit-invisible. `ACC` as in [`gemv_kt_lanes`].
#[inline(always)]
fn gemm_kt_lanes<const L: usize, const ACC: bool>(
    wt: &[f64],
    xs: &[f64],
    ys: &mut [f64],
    batch: usize,
    kdim: usize,
    out: usize,
) {
    const RB: usize = GEMM_ROW_BLOCK;
    if out == 0 {
        return;
    }
    let nb = 2 * L;
    let mut b = 0;
    while b + RB <= batch {
        let xrow: [&[f64]; RB] = std::array::from_fn(|r| &xs[(b + r) * kdim..(b + r + 1) * kdim]);
        let mut n = 0;
        while n + nb <= out {
            // RB rows × 2 vectors of L lanes: 8 independent accumulator
            // chains in registers at L = 4, with each `row` load shared
            // by all RB batch rows.
            let mut acc = [[[0.0f64; L]; 2]; RB];
            if ACC {
                for (r, accr) in acc.iter_mut().enumerate() {
                    for (u, a) in accr.iter_mut().enumerate() {
                        a.copy_from_slice(
                            &ys[(b + r) * out + n + u * L..(b + r) * out + n + (u + 1) * L],
                        );
                    }
                }
            }
            for k in 0..kdim {
                let row = &wt[k * out + n..k * out + n + nb];
                for (r, accr) in acc.iter_mut().enumerate() {
                    let xk = xrow[r][k];
                    for (u, a) in accr.iter_mut().enumerate() {
                        let mut prod = [0.0f64; L];
                        for l in 0..L {
                            prod[l] = row[u * L + l] * xk;
                        }
                        for l in 0..L {
                            a[l] += prod[l];
                        }
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                for (u, a) in accr.iter().enumerate() {
                    ys[(b + r) * out + n + u * L..(b + r) * out + n + (u + 1) * L]
                        .copy_from_slice(a);
                }
            }
            n += nb;
        }
        for nn in n..out {
            for (r, xr) in xrow.iter().enumerate() {
                let mut a = if ACC { ys[(b + r) * out + nn] } else { 0.0 };
                for (k, &xk) in xr.iter().enumerate() {
                    a += wt[k * out + nn] * xk;
                }
                ys[(b + r) * out + nn] = a;
            }
        }
        b += RB;
    }
    // Batch tail: plain per-row GEMV.
    while b < batch {
        gemv_kt_lanes::<L, ACC>(
            wt,
            &xs[b * kdim..(b + 1) * kdim],
            &mut ys[b * out..(b + 1) * out],
        );
        b += 1;
    }
}

/// Batch rows sharing one weight load in [`gemm_kt_lanes`] and
/// [`gemm_rt`]'s V4 body.
const GEMM_ROW_BLOCK: usize = 4;

/// `ys[b][o] = Σ_j xs[b][j] · w[o·kdim + j]` over a **row-major** slab
/// (`out` rows of `kdim`): lanes span `L` consecutive rows, each lane
/// walking its own row in ascending `j`, so a vector gathers one column
/// per step. The portable body of [`gemm_rt`]; the AVX one transposes
/// 4×4 tiles in registers instead of gathering.
#[inline(always)]
fn gemm_rt_lanes<const L: usize>(
    w: &[f64],
    xs: &[f64],
    ys: &mut [f64],
    batch: usize,
    kdim: usize,
    out: usize,
) {
    let main = out - out % L;
    for b in 0..batch {
        let x = &xs[b * kdim..(b + 1) * kdim];
        let y = &mut ys[b * out..(b + 1) * out];
        for o in (0..main).step_by(L) {
            let rows: [&[f64]; L] = std::array::from_fn(|l| &w[(o + l) * kdim..(o + l + 1) * kdim]);
            let mut acc = [0.0f64; L];
            for (j, &xj) in x.iter().enumerate() {
                let mut prod = [0.0f64; L];
                for l in 0..L {
                    prod[l] = rows[l][j] * xj;
                }
                for l in 0..L {
                    acc[l] += prod[l];
                }
            }
            y[o..o + L].copy_from_slice(&acc);
        }
        for (o, yo) in y.iter_mut().enumerate().skip(main) {
            let mut a = 0.0;
            for (wj, xj) in w[o * kdim..(o + 1) * kdim].iter().zip(x) {
                a += wj * xj;
            }
            *yo = a;
        }
    }
}

// ---- V4 backends ----
//
// `#[target_feature(enable = "avx")]` recompiles the generic 4-lane body
// with ymm registers ("avx" only — never "fma", see the module contract).

#[cfg(target_arch = "x86_64")]
mod v4 {
    #[target_feature(enable = "avx")]
    pub unsafe fn add(y: &mut [f64], x: &[f64]) {
        super::add_lanes::<4>(y, x);
    }

    #[target_feature(enable = "avx")]
    pub unsafe fn gemm_kt(
        wt: &[f64],
        xs: &[f64],
        ys: &mut [f64],
        batch: usize,
        kdim: usize,
        out: usize,
    ) {
        super::gemm_kt_lanes::<4, false>(wt, xs, ys, batch, kdim, out);
    }

    #[target_feature(enable = "avx")]
    pub unsafe fn gemm_kt_acc(
        wt: &[f64],
        xs: &[f64],
        ys: &mut [f64],
        batch: usize,
        kdim: usize,
        out: usize,
    ) {
        super::gemm_kt_lanes::<4, true>(wt, xs, ys, batch, kdim, out);
    }

    /// [`super::gemm_rt`] on AVX. Per block of [`super::GEMM_ROW_BLOCK`]
    /// batch rows and 4 outputs, each 4×4 tile of the row-major slab
    /// (4 outputs × 4 consecutive `j`) is loaded as four row vectors and
    /// transposed in registers (`unpack` + `permute2f128`) into four
    /// column vectors, lanes spanning outputs; every batch row of the
    /// block then takes its four separate mul-then-adds from those, in
    /// ascending `j`. The `kdim % 4` tail gathers its columns; the
    /// `out % 4` outputs are plain dot products.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX, and the slices must have the shapes
    /// [`super::gemm_dims`] checked.
    #[target_feature(enable = "avx")]
    pub unsafe fn gemm_rt(
        w: &[f64],
        xs: &[f64],
        ys: &mut [f64],
        batch: usize,
        kdim: usize,
        out: usize,
    ) {
        use std::arch::x86_64::*;
        const RB: usize = super::GEMM_ROW_BLOCK;
        let (jmain, omain) = (kdim - kdim % 4, out - out % 4);
        let wp = w.as_ptr();
        let mut b = 0;
        while b < batch {
            // A full block of rows, else one row at a time.
            let rows = if b + RB <= batch { RB } else { 1 };
            let xp: [*const f64; RB] =
                std::array::from_fn(|r| xs.as_ptr().add((b + r.min(rows - 1)) * kdim));
            for o in (0..omain).step_by(4) {
                let wo = wp.add(o * kdim);
                let mut acc = [_mm256_setzero_pd(); RB];
                let mut j = 0;
                while j < jmain {
                    let r0 = _mm256_loadu_pd(wo.add(j));
                    let r1 = _mm256_loadu_pd(wo.add(kdim + j));
                    let r2 = _mm256_loadu_pd(wo.add(2 * kdim + j));
                    let r3 = _mm256_loadu_pd(wo.add(3 * kdim + j));
                    let t0 = _mm256_unpacklo_pd(r0, r1);
                    let t1 = _mm256_unpackhi_pd(r0, r1);
                    let t2 = _mm256_unpacklo_pd(r2, r3);
                    let t3 = _mm256_unpackhi_pd(r2, r3);
                    let cols = [
                        _mm256_permute2f128_pd(t0, t2, 0x20),
                        _mm256_permute2f128_pd(t1, t3, 0x20),
                        _mm256_permute2f128_pd(t0, t2, 0x31),
                        _mm256_permute2f128_pd(t1, t3, 0x31),
                    ];
                    for (a, x) in acc.iter_mut().zip(xp).take(rows) {
                        for (c, col) in cols.iter().enumerate() {
                            let prod = _mm256_mul_pd(*col, _mm256_broadcast_sd(&*x.add(j + c)));
                            *a = _mm256_add_pd(*a, prod);
                        }
                    }
                    j += 4;
                }
                while j < kdim {
                    let col = _mm256_set_pd(
                        *wo.add(3 * kdim + j),
                        *wo.add(2 * kdim + j),
                        *wo.add(kdim + j),
                        *wo.add(j),
                    );
                    for (a, x) in acc.iter_mut().zip(xp).take(rows) {
                        let prod = _mm256_mul_pd(col, _mm256_broadcast_sd(&*x.add(j)));
                        *a = _mm256_add_pd(*a, prod);
                    }
                    j += 1;
                }
                for (r, a) in acc.iter().enumerate().take(rows) {
                    _mm256_storeu_pd(ys.as_mut_ptr().add((b + r) * out + o), *a);
                }
            }
            for o in omain..out {
                for (r, x) in xp.iter().enumerate().take(rows) {
                    let mut a = 0.0;
                    for j in 0..kdim {
                        a += *wp.add(o * kdim + j) * *x.add(j);
                    }
                    ys[(b + r) * out + o] = a;
                }
            }
            b += rows;
        }
    }

    #[target_feature(enable = "avx")]
    pub unsafe fn adam(
        w: &mut [f64],
        g: &mut [f64],
        m: &mut [f64],
        v: &mut [f64],
        c: &super::AdamStep,
    ) {
        super::adam_lanes::<4>(w, g, m, v, c);
    }

    pub(super) fn avx_available() -> bool {
        use std::sync::OnceLock;
        static AVX: OnceLock<bool> = OnceLock::new();
        *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
    }
}

fn add_v4(y: &mut [f64], x: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if v4::avx_available() {
        // SAFETY: guarded by runtime AVX detection.
        unsafe { v4::add(y, x) };
        return;
    }
    add_lanes::<4>(y, x)
}

fn gemm_kt_v4(wt: &[f64], xs: &[f64], ys: &mut [f64], batch: usize, kdim: usize, out: usize) {
    #[cfg(target_arch = "x86_64")]
    if v4::avx_available() {
        // SAFETY: guarded by runtime AVX detection.
        unsafe { v4::gemm_kt(wt, xs, ys, batch, kdim, out) };
        return;
    }
    gemm_kt_lanes::<4, false>(wt, xs, ys, batch, kdim, out)
}

fn gemm_kt_acc_v4(wt: &[f64], xs: &[f64], ys: &mut [f64], batch: usize, kdim: usize, out: usize) {
    #[cfg(target_arch = "x86_64")]
    if v4::avx_available() {
        // SAFETY: guarded by runtime AVX detection.
        unsafe { v4::gemm_kt_acc(wt, xs, ys, batch, kdim, out) };
        return;
    }
    gemm_kt_lanes::<4, true>(wt, xs, ys, batch, kdim, out)
}

fn gemm_rt_v4(w: &[f64], xs: &[f64], ys: &mut [f64], batch: usize, kdim: usize, out: usize) {
    #[cfg(target_arch = "x86_64")]
    if v4::avx_available() {
        // SAFETY: guarded by runtime AVX detection; shapes checked by
        // `gemm_dims`.
        unsafe { v4::gemm_rt(w, xs, ys, batch, kdim, out) };
        return;
    }
    gemm_rt_lanes::<4>(w, xs, ys, batch, kdim, out)
}

fn adam_v4(w: &mut [f64], g: &mut [f64], m: &mut [f64], v: &mut [f64], c: &AdamStep) {
    #[cfg(target_arch = "x86_64")]
    if v4::avx_available() {
        // SAFETY: guarded by runtime AVX detection.
        unsafe { v4::adam(w, g, m, v, c) };
        return;
    }
    adam_lanes::<4>(w, g, m, v, c)
}

// ---- V8 backends ----
//
// Hand-written AVX-512F bodies for the three GEMMs (and, in
// `crate::tanh`, for `tanh`); the other elementwise kernels run their V4
// bodies (Adam is bound by its divider, not its width). Rust's `avx512f`
// implies `fma`, so these bodies do not rely on
// the feature set to keep products and sums apart: each spells
// `_mm512_mul_pd` then `_mm512_add_pd`, which LLVM does not fuse without
// fast-math flags. Output tails are masked loads and stores, not scalar
// loops.

#[cfg(target_arch = "x86_64")]
mod v8 {
    use std::arch::x86_64::*;

    /// Batch rows sharing one slab load in the batched GEMMs.
    const ROWS: usize = 4;
    /// Vectors of outputs per batched panel.
    const VECS: usize = 4;

    /// The first `n` of a vector's 8 lanes (`n ≤ 8`).
    fn first(n: usize) -> __mmask8 {
        (0xFFu16 >> (8 - n)) as __mmask8
    }

    /// `R` batch rows × `U` vectors of outputs, `y[r][0..8U] (+)= Σ_k
    /// x[r][k] · wt[k·out + 0..8U]`, lanes outside `mask` computed and
    /// dropped. The `R·U` accumulators stay in registers while `k`
    /// streams in ascending order, and each slab load serves all `R`
    /// rows.
    ///
    /// # Safety
    ///
    /// AVX-512F; `x[r]` readable for `kdim`, and `wt + k·out` and
    /// `y[r]` readable (and `y[r]` writable) on every lane `mask` keeps.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn panel<const R: usize, const U: usize, const ACC: bool>(
        wt: *const f64,
        x: [*const f64; R],
        y: [*mut f64; R],
        kdim: usize,
        out: usize,
        mask: [__mmask8; U],
    ) {
        let mut acc = [[_mm512_setzero_pd(); U]; R];
        if ACC {
            for (a, yr) in acc.iter_mut().zip(y) {
                for (u, au) in a.iter_mut().enumerate() {
                    *au = _mm512_maskz_loadu_pd(mask[u], yr.add(8 * u));
                }
            }
        }
        for k in 0..kdim {
            let row = wt.add(k * out);
            let mut w = [_mm512_setzero_pd(); U];
            for (u, wu) in w.iter_mut().enumerate() {
                *wu = _mm512_maskz_loadu_pd(mask[u], row.add(8 * u));
            }
            for (a, xr) in acc.iter_mut().zip(x) {
                let xk = _mm512_set1_pd(*xr.add(k));
                for (au, wu) in a.iter_mut().zip(w) {
                    *au = _mm512_add_pd(*au, _mm512_mul_pd(wu, xk));
                }
            }
        }
        for (a, yr) in acc.iter().zip(y) {
            for (u, au) in a.iter().enumerate() {
                _mm512_mask_storeu_pd(yr.add(8 * u), mask[u], *au);
            }
        }
    }

    /// `R` batch rows over every output: panels of `U` whole vectors,
    /// then the `out % 8U` tail in pieces of at most two vectors, the
    /// last one masked.
    ///
    /// # Safety
    ///
    /// AVX-512F; `kdim > 0`, `wt` a `kdim × out` slab, each `x[r]`
    /// `kdim` long and each `y[r]` `out` long.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn rows<const R: usize, const U: usize, const ACC: bool>(
        wt: *const f64,
        x: [*const f64; R],
        y: [*mut f64; R],
        kdim: usize,
        out: usize,
    ) {
        let at = |n: usize| y.map(|yr| yr.wrapping_add(n));
        let mut n = 0;
        while n + 8 * U <= out {
            panel::<R, U, ACC>(wt.add(n), x, at(n), kdim, out, [0xFF; U]);
            n += 8 * U;
        }
        while n < out {
            let rest = out - n;
            if rest > 8 {
                let mask = [0xFF, first(rest.min(16) - 8)];
                panel::<R, 2, ACC>(wt.add(n), x, at(n), kdim, out, mask);
                n += 16;
            } else {
                panel::<R, 1, ACC>(wt.add(n), x, at(n), kdim, out, [first(rest)]);
                n = out;
            }
        }
    }

    /// [`super::gemm_kt`] (`ACC = false`) and [`super::gemm_kt_acc`] on
    /// AVX-512F: blocks of [`ROWS`] batch rows × [`VECS`] vectors (32
    /// outputs), then each remaining row alone × 8 vectors (64 outputs)
    /// — the batch-1 GEMV of `forward_one` is all remainder.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and the slices must have the
    /// shapes [`super::gemm_dims`] checked.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_kt<const ACC: bool>(
        wt: &[f64],
        xs: &[f64],
        ys: &mut [f64],
        batch: usize,
        kdim: usize,
        out: usize,
    ) {
        if kdim == 0 {
            if !ACC {
                ys.fill(0.0);
            }
            return;
        }
        let (w, x, y) = (wt.as_ptr(), xs.as_ptr(), ys.as_mut_ptr());
        let mut b = 0;
        while b + ROWS <= batch {
            let mut xr = [x; ROWS];
            let mut yr = [y; ROWS];
            for r in 0..ROWS {
                xr[r] = x.add((b + r) * kdim);
                yr[r] = y.add((b + r) * out);
            }
            rows::<ROWS, VECS, ACC>(w, xr, yr, kdim, out);
            b += ROWS;
        }
        while b < batch {
            rows::<1, 8, ACC>(w, [x.add(b * kdim)], [y.add(b * out)], kdim, out);
            b += 1;
        }
    }

    /// [`super::gemm_rt`] on AVX-512F, with lanes across batch rows: the
    /// rows `xs` are transposed into `stage` (`Xᵀ[kdim×batch]`), which
    /// then serves as the k-major slab of a [`gemm_kt`] whose rows are
    /// the row-major weights, and the `[out×batch]` result is transposed
    /// back into `ys`. Each output still reduces in ascending `j`, mul
    /// then add; the weights are read as they lie, with no register
    /// transposes.
    ///
    /// # Safety
    ///
    /// As [`gemm_kt`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_rt(
        w: &[f64],
        xs: &[f64],
        ys: &mut [f64],
        batch: usize,
        kdim: usize,
        out: usize,
        stage: &mut Vec<f64>,
    ) {
        let need = (kdim + out) * batch;
        if stage.len() < need {
            stage.resize(need, 0.0);
        }
        let (xt, yt) = stage[..need].split_at_mut(kdim * batch);
        crate::matrix::transpose_into(xs, batch, kdim, xt);
        gemm_kt::<false>(xt, w, yt, out, kdim, batch);
        crate::matrix::transpose_into(yt, out, batch, ys);
    }

    pub(super) fn avx512_available() -> bool {
        use std::sync::OnceLock;
        static AVX512: OnceLock<bool> = OnceLock::new();
        *AVX512.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
    }
}

fn gemm_kt_v8(wt: &[f64], xs: &[f64], ys: &mut [f64], batch: usize, kdim: usize, out: usize) {
    #[cfg(target_arch = "x86_64")]
    if v8::avx512_available() {
        // SAFETY: guarded by runtime AVX-512F detection; shapes checked
        // by `gemm_dims`.
        unsafe { v8::gemm_kt::<false>(wt, xs, ys, batch, kdim, out) };
        return;
    }
    gemm_kt_lanes::<8, false>(wt, xs, ys, batch, kdim, out)
}

fn gemm_kt_acc_v8(wt: &[f64], xs: &[f64], ys: &mut [f64], batch: usize, kdim: usize, out: usize) {
    #[cfg(target_arch = "x86_64")]
    if v8::avx512_available() {
        // SAFETY: as `gemm_kt_v8`.
        unsafe { v8::gemm_kt::<true>(wt, xs, ys, batch, kdim, out) };
        return;
    }
    gemm_kt_lanes::<8, true>(wt, xs, ys, batch, kdim, out)
}

#[allow(clippy::too_many_arguments)]
fn gemm_rt_v8(
    w: &[f64],
    xs: &[f64],
    ys: &mut [f64],
    batch: usize,
    kdim: usize,
    out: usize,
    stage: &mut Vec<f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if v8::avx512_available() {
        // Lanes across batch rows cost a whole vector per weight however
        // few rows fill it; up to one row block, the V4 body's tiles are
        // cheaper.
        if batch <= GEMM_ROW_BLOCK {
            return gemm_rt_v4(w, xs, ys, batch, kdim, out);
        }
        // SAFETY: as `gemm_kt_v8`.
        unsafe { v8::gemm_rt(w, xs, ys, batch, kdim, out, stage) };
        return;
    }
    let _ = stage;
    gemm_rt_lanes::<8>(w, xs, ys, batch, kdim, out)
}

fn tanh_v8(y: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if v8::avx512_available() {
        // SAFETY: guarded by runtime AVX-512F detection.
        unsafe { crate::tanh::v8::tanh(y) };
        return;
    }
    crate::tanh::tanh_slice(y)
}

// ---- public dispatch ----

/// `y[i] += x[i]`, vectorized over `i` (bias application).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add_assign(y: &mut [f64], x: &[f64], width: KernelWidth) {
    assert_eq!(y.len(), x.len(), "add_assign length mismatch");
    match width {
        KernelWidth::V8 | KernelWidth::V4 => add_v4(y, x),
        KernelWidth::V2 => add_lanes::<2>(y, x),
    }
}

/// Dense GEMM over a **k-major** (input-major, i.e. transposed) weight
/// slab: `batch` rows of `xs` (each `kdim` long) against one slab,
/// producing `batch` rows of `ys` (each `out` long),
/// `ys[b][n] = Σ_k xs[b][k] · wt[k·out + n]`.
///
/// Every output element accumulates over `k` in ascending order, making
/// each row bit-identical to the same layer's product in the plain
/// scalar [`crate::Mlp::forward`]. Row-blocked so each weight load is
/// shared across batch rows; batching changes no
/// element's reduction order, so the results are bit-identical to
/// `batch` independent single-row calls.
///
/// # Panics
///
/// Panics if `xs`/`ys` are not whole multiples of `batch`, or the slab
/// size does not match the per-row dimensions.
pub fn gemm_kt(wt: &[f64], xs: &[f64], ys: &mut [f64], batch: usize, width: KernelWidth) {
    let Some((kdim, out)) = gemm_dims(wt, xs, ys, batch) else {
        return;
    };
    match width {
        KernelWidth::V8 => gemm_kt_v8(wt, xs, ys, batch, kdim, out),
        KernelWidth::V4 => gemm_kt_v4(wt, xs, ys, batch, kdim, out),
        KernelWidth::V2 => gemm_kt_lanes::<2, false>(wt, xs, ys, batch, kdim, out),
    }
}

/// [`gemm_kt`] accumulating into `ys`: every output element continues
/// from its current value, `((ys + x₀·w₀) + x₁·w₁) + …` in ascending `k`
/// — the sequence of `k` successive rank-1 updates in the per-sample
/// [`crate::Mlp::backward`]. This is the weight-gradient product
/// `gwᵀ += Xᵀ·Δ`: the deltas `Δ[B×out]` are the k-major slab (reduction
/// over the batch), the transposed layer inputs `Xᵀ[in×B]` are the rows,
/// `gwᵀ[in×out]` is `ys`.
///
/// # Panics
///
/// As [`gemm_kt`].
pub fn gemm_kt_acc(wt: &[f64], xs: &[f64], ys: &mut [f64], batch: usize, width: KernelWidth) {
    let Some((kdim, out)) = gemm_dims(wt, xs, ys, batch) else {
        return;
    };
    match width {
        KernelWidth::V8 => gemm_kt_acc_v8(wt, xs, ys, batch, kdim, out),
        KernelWidth::V4 => gemm_kt_acc_v4(wt, xs, ys, batch, kdim, out),
        KernelWidth::V2 => gemm_kt_lanes::<2, true>(wt, xs, ys, batch, kdim, out),
    }
}

/// Dense GEMM over a **row-major** weight slab (`out` rows of `kdim`):
/// `ys[b][o] = Σ_j xs[b][j] · w[o·kdim + j]`. This is the backward's
/// hand-off `Δ·W` read off a layer's k-major `Wᵀ[in×out]`: its rows are
/// the product's outputs (`in`), the reduction runs over `out`.
///
/// Lanes still span outputs and every output element accumulates over
/// `j` in ascending order with separate mul-then-add, so each row is
/// bit-identical to the hand-off in the plain scalar
/// [`crate::Mlp::backward`], and batching is bit-invisible. The V4 body
/// transposes 4×4 weight tiles in registers, sharing each across 4 batch
/// rows. The V8 body runs its
/// lanes across batch rows instead, through a transposed copy of `xs`
/// and of the result kept in `stage`, which grows to
/// `(kdim + out) · batch` once and is left as it is by the other widths.
///
/// # Panics
///
/// As [`gemm_kt`].
pub fn gemm_rt(
    w: &[f64],
    xs: &[f64],
    ys: &mut [f64],
    batch: usize,
    stage: &mut Vec<f64>,
    width: KernelWidth,
) {
    let Some((kdim, out)) = gemm_dims(w, xs, ys, batch) else {
        return;
    };
    match width {
        KernelWidth::V8 => gemm_rt_v8(w, xs, ys, batch, kdim, out, stage),
        KernelWidth::V4 => gemm_rt_v4(w, xs, ys, batch, kdim, out),
        KernelWidth::V2 => gemm_rt_lanes::<2>(w, xs, ys, batch, kdim, out),
    }
}

/// Shape check shared by the GEMM entry points: `(kdim, out)`, or `None`
/// for an empty batch.
fn gemm_dims(wt: &[f64], xs: &[f64], ys: &[f64], batch: usize) -> Option<(usize, usize)> {
    if batch == 0 {
        assert!(xs.is_empty() && ys.is_empty(), "gemm_kt shape mismatch");
        return None;
    }
    assert_eq!(xs.len() % batch, 0, "gemm_kt input shape mismatch");
    assert_eq!(ys.len() % batch, 0, "gemm_kt output shape mismatch");
    let kdim = xs.len() / batch;
    let out = ys.len() / batch;
    assert_eq!(wt.len(), kdim * out, "gemm_kt weight shape mismatch");
    Some((kdim, out))
}

/// `y[i] = tanh(y[i])`, bit for bit [`crate::tanh::tanh`] at every
/// width: `V8` runs the eight-lane AVX-512F body, the other widths the
/// scalar port per element.
pub fn tanh_in_place(y: &mut [f64], width: KernelWidth) {
    match width {
        KernelWidth::V8 => tanh_v8(y),
        KernelWidth::V4 | KernelWidth::V2 => crate::tanh::tanh_slice(y),
    }
}

/// One Adam update over a parameter array: moments `m`/`v` advance, `w`
/// steps, and the consumed gradients `g` are zeroed in the same sweep.
/// Vectorized over the (independent) parameters.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn adam_step(
    w: &mut [f64],
    g: &mut [f64],
    m: &mut [f64],
    v: &mut [f64],
    c: &AdamStep,
    width: KernelWidth,
) {
    let n = w.len();
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "adam_step length mismatch"
    );
    match width {
        KernelWidth::V8 | KernelWidth::V4 => adam_v4(w, g, m, v, c),
        KernelWidth::V2 => adam_lanes::<2>(w, g, m, v, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_metadata() {
        for w in KernelWidth::all() {
            assert_eq!(w.name(), format!("v{}", w.lanes()));
            assert!(w.lanes().is_power_of_two());
        }
        assert_eq!(picked(), KernelWidth::pick());
    }

    /// `pick()` is the widest width the CPU has: `V8` exactly when
    /// AVX-512F is detected, `V4` when only AVX is, else `V2`.
    #[test]
    fn pick_follows_the_cpu() {
        #[cfg(target_arch = "x86_64")]
        let (avx512, avx) = (
            std::arch::is_x86_feature_detected!("avx512f"),
            std::arch::is_x86_feature_detected!("avx"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx512, avx) = (false, false);
        let want = match (avx512, avx) {
            (true, _) => KernelWidth::V8,
            (false, true) => KernelWidth::V4,
            (false, false) => KernelWidth::V2,
        };
        assert_eq!(KernelWidth::pick(), want);
    }

    #[test]
    fn gemv_kt_matches_scalar_reference() {
        for (k, n) in [(3usize, 5usize), (56, 256), (70, 46), (1, 1), (8, 3)] {
            let wt: Vec<f64> = (0..k * n)
                .map(|i| ((i * 31 % 17) as f64 - 8.0) * 0.3)
                .collect();
            let x: Vec<f64> = (0..k).map(|i| (i as f64 - 2.0) * 0.5).collect();
            // Scalar row-major reference in the exact matvec order.
            let mut want = vec![0.0; n];
            for (nn, w) in want.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (kk, xv) in x.iter().enumerate() {
                    acc += wt[kk * n + nn] * xv;
                }
                *w = acc;
            }
            for width in KernelWidth::all() {
                let mut y = vec![f64::NAN; n];
                gemm_kt(&wt, &x, &mut y, 1, width);
                assert_eq!(
                    y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "gemv width {width:?} k {k} n {n}"
                );
            }
        }
    }

    #[test]
    fn gemm_kt_matches_per_row_gemv() {
        // Batches straddling the row-block boundary (4) and shapes
        // straddling the n-block boundaries for every width.
        for (batch, k, n) in [
            (1usize, 5usize, 7usize),
            (3, 56, 46),
            (4, 8, 16),
            (5, 3, 9),
            (8, 56, 256),
            (11, 17, 33),
        ] {
            let wt: Vec<f64> = (0..k * n)
                .map(|i| ((i * 29 % 13) as f64 - 6.0) * 0.21)
                .collect();
            let xs: Vec<f64> = (0..batch * k)
                .map(|i| ((i * 7 % 19) as f64 - 9.0) * 0.4)
                .collect();
            for width in KernelWidth::all() {
                // Reference: batch independent single-row calls at the
                // same width.
                let mut want = vec![0.0; batch * n];
                for b in 0..batch {
                    gemm_kt(
                        &wt,
                        &xs[b * k..(b + 1) * k],
                        &mut want[b * n..(b + 1) * n],
                        1,
                        width,
                    );
                }
                let mut ys = vec![f64::NAN; batch * n];
                gemm_kt(&wt, &xs, &mut ys, batch, width);
                assert_eq!(
                    ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "gemm width {width:?} batch {batch} k {k} n {n}"
                );
            }
        }
    }

    #[test]
    fn gemm_kt_acc_matches_successive_axpy() {
        // The weight-gradient product: per row `o`, `k` rank-1 updates
        // `gw[o] += Δᵀ[o][k] · X[k]` in ascending `k`, from non-zero `gw`.
        for (batch, k, n) in [
            (1usize, 5usize, 7usize),
            (3, 12, 46),
            (4, 1, 16),
            (5, 3, 9),
            (8, 48, 42),
            (18, 65, 33),
            (2, 0, 5),
        ] {
            let slab: Vec<f64> = (0..k * n)
                .map(|i| ((i * 29 % 13) as f64 - 6.0) * 0.21)
                .collect();
            let xs: Vec<f64> = (0..batch * k)
                .map(|i| ((i * 7 % 19) as f64 - 9.0) * 0.4)
                .collect();
            let base: Vec<f64> = (0..batch * n).map(|i| (i as f64 * 0.13).sin()).collect();
            let mut want = base.clone();
            for b in 0..batch {
                for kk in 0..k {
                    for j in 0..n {
                        want[b * n + j] += xs[b * k + kk] * slab[kk * n + j];
                    }
                }
            }
            for width in KernelWidth::all() {
                let mut ys = base.clone();
                gemm_kt_acc(&slab, &xs, &mut ys, batch, width);
                assert_eq!(
                    ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "gemm_kt_acc width {width:?} batch {batch} k {k} n {n}"
                );
            }
        }
    }

    #[test]
    fn add_assign_all_widths() {
        let b: Vec<f64> = (0..23).map(|i| i as f64 * 0.25).collect();
        let want: Vec<f64> = b.iter().map(|b| 1.0 + b).collect();
        for w in KernelWidth::all() {
            let mut got = vec![1.0; 23];
            add_assign(&mut got, &b, w);
            assert_eq!(got, want);
        }
    }
}
