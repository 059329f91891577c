//! `tanh`, ported bit for bit from glibc 2.36: `s_tanh.c` over the FMA
//! build of `s_expm1.c` (`__expm1_fma`), as one scalar body and an
//! eight-lane AVX-512F body.
//!
//! glibc resolves `expm1` once per process among an SSE2, an FMA4 and an
//! FMA build of one C source, which round differently on about 0.02 % of
//! `tanh` inputs, so `f64::tanh` gives bits that depend on the host. The
//! port pins the FMA build's answer everywhere: its multiply-adds are
//! spelled out, at exactly the sites gcc contracted.
//!
//! * `tanh` itself has no fused operation.
//! * In `expm1`, twelve sites are fused: the reduction's
//!   `hi = fma(−t, ln2_hi, a)`; the polynomial's `R1 = fma(hxs, Q1, 1)`,
//!   `R2 = fma(hxs, Q3, Q2)`, `R3 = fma(hxs, Q5, Q4)`,
//!   `r1 = fma(h4, R3, fma(h2, R2, R1))`, `t = fma(−r1, hfx, 3)` and its
//!   denominator `fma(−x, t, 6)`; and the reconstruction's
//!   `x − fma(e, x, −hxs)` (k = 0), `fma(e − c, x, −c)` (k ≠ 0) and
//!   `fma(0.5, x − e, −0.5)` (k = −1). The twelfth, `fma(x − e, 2, 1)`
//!   at k = 1, sits on a branch `tanh` never takes (below).
//! * `k = (int)(a · invln2 ± 0.5)` is a multiply then an add, not fused.
//! * Scaling by `2ᵏ` adds `k << 20` to the high word, which is a 64-bit
//!   add of `k << 52`.
//!
//! `tanh` calls `expm1` only on `a = 2|x|` for 1 ≤ |x| < 22 and on
//! `a = −2|x|` for 2⁻⁵⁵ ≤ |x| < 1, so `2⁻⁵⁴ ≤ |a| < 44`. That leaves out
//! `expm1`'s non-finite, overflow, `a ≤ −56 ln 2`, `|a| < 2⁻⁵⁴` and k = 1
//! branches: they are not ported. What is left reduces in three ways
//! (k = 0 for |a| ≤ 0.5 ln 2; k = −1, `a + ln2_hi`, for |a| < 1.5 ln 2,
//! where `a` is always negative; `k = (int)(a · invln2 ± 0.5)` beyond)
//! and reconstructs in five: k = 0, k = −1, 2 ≤ k ≤ 19, 20 ≤ k ≤ 56,
//! and k ≤ −2 or k > 56.
//!
//! On an `x86_64` CPU with FMA the scalar body is compiled with the
//! `fma` target feature (detected once); elsewhere `f64::mul_add` is
//! libm's correctly rounded `fma`, with the same bits.

// Constants, by bits, from `s_expm1.c`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INVLN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
const Q1: f64 = f64::from_bits(0xbfa1_1111_1111_10f4);
const Q2: f64 = f64::from_bits(0x3f5a_01a0_19fe_5585);
const Q3: f64 = f64::from_bits(0xbf14_ce19_9eaa_dbb7);
const Q4: f64 = f64::from_bits(0x3ed0_cfca_86e6_5239);
const Q5: f64 = f64::from_bits(0xbe8a_fdb7_6e09_c32d);

/// Upper bounds (exclusive) on |a| of `expm1`'s k = 0 and k = −1
/// reductions: high words above `0x3fd62e42` (0.5 ln 2) and `0x3ff0a2b1`
/// (1.5 ln 2).
const K0_BELOW: f64 = f64::from_bits(0x3fd6_2e43 << 32);
const KM1_BELOW: f64 = f64::from_bits(0x3ff0_a2b2 << 32);
/// `tanh`'s branch points on |x|: below 2⁻⁵⁵ it is `x·(1 + x)`, from 22
/// on it is ±1, and from 1 on it takes `expm1(2|x|)`.
const TINY_BELOW: f64 = f64::from_bits(0x3c80_0000 << 32);
const SATURATE_FROM: f64 = 22.0;

/// `tanh(x)`, bit for bit glibc 2.36's with its FMA `expm1`, on every
/// `f64` (±0, subnormals, ±inf and NaN payloads included).
pub fn tanh(x: f64) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by runtime FMA detection.
        return unsafe { fma::tanh(x) };
    }
    body(x)
}

/// [`tanh`] on every element of `y`, with one dispatch for the slice.
pub(crate) fn tanh_slice(y: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by runtime FMA detection.
        return unsafe { fma::tanh_slice(y) };
    }
    for v in y {
        *v = body(*v);
    }
}

#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    use std::sync::OnceLock;
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| std::arch::is_x86_feature_detected!("fma"))
}

/// The scalar body recompiled with hardware multiply-adds.
#[cfg(target_arch = "x86_64")]
mod fma {
    /// # Safety
    ///
    /// The CPU must support FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn tanh(x: f64) -> f64 {
        super::body(x)
    }

    /// # Safety
    ///
    /// The CPU must support FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn tanh_slice(y: &mut [f64]) {
        for v in y {
            *v = super::body(*v);
        }
    }
}

/// `s_tanh.c`.
#[inline(always)]
fn body(x: f64) -> f64 {
    if !x.is_finite() {
        // ±1 on ±inf; NaN keeps its payload.
        return if x.is_sign_positive() {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let ax = x.abs();
    if ax < TINY_BELOW {
        // ±0 included: x·(1 + x) returns it.
        return x * (1.0 + x);
    }
    let z = if ax >= SATURATE_FROM {
        // `1 − tiny`, which rounds to 1.
        1.0
    } else if ax >= 1.0 {
        let t = expm1(2.0 * ax);
        1.0 - 2.0 / (t + 2.0)
    } else {
        let t = expm1(-2.0 * ax);
        -t / (t + 2.0)
    };
    if x.is_sign_positive() {
        z
    } else {
        -z
    }
}

/// `y · 2ᵏ` by adding `k` to its exponent field.
#[inline(always)]
fn scale(y: f64, k: i64) -> f64 {
    f64::from_bits(y.to_bits().wrapping_add((k << 52) as u64))
}

/// `s_expm1.c` on the arguments [`body`] passes it, 2⁻⁵⁴ ≤ |a| < 44.
#[inline(always)]
fn expm1(a: f64) -> f64 {
    let aa = a.abs();
    let (k, x, c) = if aa < K0_BELOW {
        (0, a, 0.0)
    } else {
        let (k, hi, lo) = if aa < KM1_BELOW {
            // a < 0 here.
            (-1, a + LN2_HI, -LN2_LO)
        } else {
            let k = (INVLN2 * a + if a < 0.0 { -0.5 } else { 0.5 }) as i32;
            let t = f64::from(k);
            (k, (-t).mul_add(LN2_HI, a), t * LN2_LO)
        };
        let x = hi - lo;
        (i64::from(k), x, (hi - x) - lo)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = hxs.mul_add(Q1, 1.0);
    let h2 = hxs * hxs;
    let r2 = hxs.mul_add(Q3, Q2);
    let h4 = h2 * h2;
    let r3 = hxs.mul_add(Q5, Q4);
    let r1 = h4.mul_add(r3, h2.mul_add(r2, r1));
    let t = (-r1).mul_add(hfx, 3.0);
    let e = hxs * ((r1 - t) / (-x).mul_add(t, 6.0));
    if k == 0 {
        return x - e.mul_add(x, -hxs);
    }
    let e = (e - c).mul_add(x, -c) - hxs;
    match k {
        -1 => 0.5f64.mul_add(x - e, -0.5),
        2..=19 => {
            // 1 − 2⁻ᵏ.
            let t = f64::from_bits(((0x3ff0_0000 - (0x20_0000 >> k)) as u64) << 32);
            scale(t - (e - x), k)
        }
        20..=56 => {
            // 2⁻ᵏ.
            let t = f64::from_bits(((0x3ff - k) as u64) << 52);
            scale((x - (e + t)) + 1.0, k)
        }
        _ => scale(1.0 - (e - x), k) - 1.0,
    }
}

/// The eight-lane body: every lane runs [`body`]'s operations on the
/// branch its input takes, the branches blended with masks. AVX-512F
/// only (`V8` is picked on `avx512f` alone), so `k` is converted through
/// 32-bit lanes and signs are flipped with integer xors.
#[cfg(target_arch = "x86_64")]
pub(crate) mod v8 {
    use std::arch::x86_64::*;

    /// [`super::tanh`] on every element of `y`: each 8-block whose lanes
    /// all lie in 2⁻⁵⁵ ≤ |x| < 22 in vectors, any other block (a tiny,
    /// large, infinite or NaN lane) and the `len % 8` tail through the
    /// scalar body.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tanh(y: &mut [f64]) {
        let mut blocks = y.chunks_exact_mut(8);
        for b in &mut blocks {
            match lanes(_mm512_loadu_pd(b.as_ptr())) {
                Some(z) => _mm512_storeu_pd(b.as_mut_ptr(), z),
                None => scalar(b),
            }
        }
        scalar(blocks.into_remainder());
    }

    #[target_feature(enable = "avx512f")]
    fn scalar(y: &mut [f64]) {
        for v in y {
            *v = super::body(*v);
        }
    }

    #[target_feature(enable = "avx512f")]
    #[inline]
    fn splat(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }

    /// `tanh` of eight lanes, or `None` if one lies outside the vector
    /// range.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lanes(x: __m512d) -> Option<__m512d> {
        let sign = _mm512_set1_epi64(i64::MIN);
        let bits = _mm512_castpd_si512(x);
        let ax = _mm512_castsi512_pd(_mm512_andnot_si512(sign, bits));
        // Ordered compares: a NaN lane fails both.
        let inside = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(ax, splat(super::TINY_BELOW))
            & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ax, splat(super::SATURATE_FROM));
        if inside != 0xFF {
            return None;
        }
        let big = _mm512_cmp_pd_mask::<_CMP_GE_OQ>(ax, splat(1.0));
        let two = splat(2.0);
        // a = 2|x| where |x| ≥ 1, else −2|x|; |a| = 2|x| either way.
        let aa = _mm512_add_pd(ax, ax);
        let a = _mm512_mask_blend_pd(big, _mm512_mul_pd(ax, splat(-2.0)), aa);
        let t = expm1(a, aa, big);
        // 1 − 2/(t + 2) where |x| ≥ 1, else −t/(t + 2): one division.
        let neg_t = _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(t), sign));
        let q = _mm512_div_pd(_mm512_mask_blend_pd(big, neg_t, two), _mm512_add_pd(t, two));
        let z = _mm512_mask_blend_pd(big, q, _mm512_sub_pd(splat(1.0), q));
        // z > 0: give it x's sign.
        let zbits = _mm512_xor_si512(_mm512_castpd_si512(z), _mm512_and_si512(bits, sign));
        Some(_mm512_castsi512_pd(zbits))
    }

    /// `expm1(a)` on eight lanes with 2⁻⁵⁴ ≤ |a| = `aa` < 44, `pos` the
    /// lanes where `a > 0`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn expm1(a: __m512d, aa: __m512d, pos: __mmask8) -> __m512d {
        use super::{INVLN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5};
        let k0 = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(aa, splat(super::K0_BELOW));
        let km1 = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(aa, splat(super::KM1_BELOW));
        // Reduction beyond 1.5 ln 2: k = (int)(a·invln2 ± 0.5), mul then add.
        let half = _mm512_mask_blend_pd(pos, splat(-0.5), splat(0.5));
        let k32 = _mm512_cvttpd_epi32(_mm512_add_pd(_mm512_mul_pd(a, splat(INVLN2)), half));
        let t = _mm512_cvtepi32_pd(k32);
        let hi = _mm512_fnmadd_pd(t, splat(LN2_HI), a);
        let lo = _mm512_mul_pd(t, splat(LN2_LO));
        // Below 1.5 ln 2 (a < 0): k = −1.
        let hi = _mm512_mask_blend_pd(km1, hi, _mm512_add_pd(a, splat(LN2_HI)));
        let lo = _mm512_mask_blend_pd(km1, lo, splat(-LN2_LO));
        let k = _mm512_mask_blend_epi64(km1, _mm512_cvtepi32_epi64(k32), _mm512_set1_epi64(-1));
        let xr = _mm512_sub_pd(hi, lo);
        let c = _mm512_sub_pd(_mm512_sub_pd(hi, xr), lo);
        // Below 0.5 ln 2: k = 0, no reduction.
        let x = _mm512_mask_blend_pd(k0, xr, a);
        let k = _mm512_mask_blend_epi64(k0, k, _mm512_setzero_si512());

        let hfx = _mm512_mul_pd(splat(0.5), x);
        let hxs = _mm512_mul_pd(x, hfx);
        let r1 = _mm512_fmadd_pd(hxs, splat(Q1), splat(1.0));
        let h2 = _mm512_mul_pd(hxs, hxs);
        let r2 = _mm512_fmadd_pd(hxs, splat(Q3), splat(Q2));
        let h4 = _mm512_mul_pd(h2, h2);
        let r3 = _mm512_fmadd_pd(hxs, splat(Q5), splat(Q4));
        let r1 = _mm512_fmadd_pd(h4, r3, _mm512_fmadd_pd(h2, r2, r1));
        let t = _mm512_fnmadd_pd(r1, hfx, splat(3.0));
        let den = _mm512_fnmadd_pd(x, t, splat(6.0));
        let e = _mm512_mul_pd(hxs, _mm512_div_pd(_mm512_sub_pd(r1, t), den));

        // k = 0.
        let y0 = _mm512_sub_pd(x, _mm512_fmsub_pd(e, x, hxs));
        let e = _mm512_sub_pd(_mm512_fmsub_pd(_mm512_sub_pd(e, c), x, c), hxs);
        let e_x = _mm512_sub_pd(e, x);
        // k = −1.
        let ym1 = _mm512_fmadd_pd(splat(0.5), _mm512_sub_pd(x, e), splat(-0.5));
        // 2 ≤ k ≤ 19: t = 1 − 2⁻ᵏ.
        let t_low = _mm512_slli_epi64::<32>(_mm512_sub_epi64(
            _mm512_set1_epi64(0x3ff0_0000),
            _mm512_srlv_epi64(_mm512_set1_epi64(0x20_0000), k),
        ));
        let y_low = _mm512_sub_pd(_mm512_castsi512_pd(t_low), e_x);
        // 20 ≤ k ≤ 56: t = 2⁻ᵏ.
        let t_mid = _mm512_slli_epi64::<52>(_mm512_sub_epi64(_mm512_set1_epi64(0x3ff), k));
        let y_mid = _mm512_add_pd(
            _mm512_sub_pd(x, _mm512_add_pd(e, _mm512_castsi512_pd(t_mid))),
            splat(1.0),
        );
        // k ≤ −2 or k > 56 (scaled before the final − 1).
        let y_far = _mm512_sub_pd(splat(1.0), e_x);

        let low = _mm512_cmpgt_epi64_mask(k, _mm512_set1_epi64(1))
            & _mm512_cmplt_epi64_mask(k, _mm512_set1_epi64(20));
        let mid = _mm512_cmpgt_epi64_mask(k, _mm512_set1_epi64(19))
            & _mm512_cmplt_epi64_mask(k, _mm512_set1_epi64(57));
        let scaled = _mm512_mask_blend_pd(mid, _mm512_mask_blend_pd(low, y_far, y_low), y_mid);
        let kexp = _mm512_slli_epi64::<52>(k);
        let scaled = _mm512_castsi512_pd(_mm512_add_epi64(_mm512_castpd_si512(scaled), kexp));
        // k = 0 and k = −1 lanes are overwritten below.
        let y = _mm512_mask_sub_pd(scaled, !(low | mid), scaled, splat(1.0));
        let y = _mm512_mask_blend_pd(_mm512_cmpeq_epi64_mask(k, _mm512_set1_epi64(-1)), y, ym1);
        _mm512_mask_blend_pd(k0, y, y0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(line, input, output bits)` per case of the golden file.
    fn golden() -> impl Iterator<Item = (&'static str, f64, u64)> {
        let text = include_str!("../tests/golden/tanh.txt");
        text.lines().filter(|l| !l.starts_with('#')).map(|line| {
            let mut f = line.split(' ');
            let mut hex = || u64::from_str_radix(f.next().unwrap(), 16).unwrap();
            (line, f64::from_bits(hex()), hex())
        })
    }

    /// Every golden case, −0 included, through the port itself.
    #[test]
    fn the_port_matches_the_golden_file() {
        for (line, x, want) in golden() {
            assert_eq!(tanh(x).to_bits(), want, "tanh({line})");
            let mut y = [x];
            tanh_slice(&mut y);
            assert_eq!(y[0].to_bits(), want, "tanh_slice({line})");
        }
    }

    /// The plain body, compiled without the `fma` target feature, so
    /// every `mul_add` is a call to libm's `fma`: the path a CPU without
    /// FMA runs.
    #[test]
    fn the_body_without_hardware_fma_matches_the_golden_file() {
        for (line, x, want) in golden() {
            assert_eq!(body(x).to_bits(), want, "body({line})");
        }
    }
}
