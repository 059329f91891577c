//! Scalar-vs-SIMD differential suite (à la `pass_semantics_diff.rs`).
//!
//! The kernel contract (crates/nn/src/simd.rs) promises **bit-identical**
//! results at every width — lanes span outputs, reductions stay in
//! ascending-k order, no FMA contraction outside `tanh`, whose fused
//! operations are explicit and the same at every width. So the pinned
//! tolerance here is zero: every assertion compares `f64::to_bits`.

use autophase_nn::simd::{adam_step, gemm_kt, gemm_kt_acc, gemm_rt, tanh_in_place, AdamStep};
use autophase_nn::tanh::tanh;
use autophase_nn::{Activation, BatchWorkspace, GradScratch, KernelWidth, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn obs(dim: usize, salt: u64) -> Vec<f64> {
    // Deterministic, sign-mixed, includes exact zeros (ReLU edge).
    (0..dim)
        .map(|i| {
            let t = (i as u64)
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(salt * 0x85eb_ca6b);
            if t.is_multiple_of(11) {
                0.0
            } else {
                ((t % 997) as f64 - 498.0) * 0.01
            }
        })
        .collect()
}

/// Layer shapes covering the serve/train nets (56- and 70-wide
/// observations, 256-unit hidden) plus degenerate and odd sizes that
/// exercise every remainder lane for 2- and 4-wide kernels.
const SHAPES: &[&[usize]] = &[
    &[56, 256, 256, 46],
    &[70, 64, 64, 46],
    &[56, 16, 1],
    &[70, 8, 5],
    &[1, 1],
    &[2, 3, 2],
    &[5, 7, 3],
    &[9, 13, 11, 4],
    &[3, 257, 2],
];

#[test]
fn batched_forward_bit_identical_across_widths_shapes_and_remainders() {
    for &shape in SHAPES {
        for act in [Activation::Tanh, Activation::Relu] {
            let mlp = Mlp::new(shape, act, 0xC0FFEE ^ shape.len() as u64);
            // Sign-mixed observations, then three that drive the first
            // hidden layer's pre-activations past ±22, below 2⁻⁵⁵ (both
            // run the V8 `tanh`'s scalar-fallback blocks) and to 0. A
            // layer sum starts from +0, so it never reaches −0.
            let mut inputs: Vec<Vec<f64>> = (0..13).map(|b| obs(shape[0], b as u64)).collect();
            for scale in [100.0, 1e-18, 0.0] {
                inputs.push(obs(shape[0], 5).iter().map(|v| v * scale).collect());
            }
            let want: Vec<Vec<u64>> = inputs.iter().map(|x| bits(&mlp.forward(x))).collect();
            for width in KernelWidth::all() {
                let mut ws = BatchWorkspace::with_width(width);
                // Batch sizes 1..=16 cover batch % lanes != 0 for 2-, 4-
                // and 8-wide kernels and every tail after 4-row blocks.
                for batch in 1..=inputs.len() {
                    ws.begin(&mlp);
                    for x in &inputs[..batch] {
                        ws.push_input(x);
                    }
                    mlp.forward_batch(&mut ws);
                    for (b, w) in want[..batch].iter().enumerate() {
                        assert_eq!(
                            bits(ws.logits(b)),
                            *w,
                            "shape {shape:?} act {act:?} width {width:?} batch {batch} row {b}"
                        );
                    }
                }
            }
        }
    }
}

/// Stage `inputs` into `ws` and run the batched forward.
fn stage(net: &Mlp, ws: &mut BatchWorkspace, inputs: &[Vec<f64>]) {
    ws.begin(net);
    for x in inputs {
        ws.push_input(x);
    }
    net.forward_batch(ws);
}

/// Two chunks of `(inputs, output gradients)`, one row per sample.
type Chunks<'a> = [(&'a [Vec<f64>], &'a [Vec<f64>]); 2];

/// Reference: per-sample [`Mlp::backward`] over both chunks in order,
/// then one step. Returns the serialized net — weights *and* Adam moments:
/// a gradient that differed in one bit shows in the moments even where
/// the weight's rounding would hide it.
fn sequential_update(net: &Mlp, chunks: Chunks) -> Vec<u8> {
    let mut seq = net.clone();
    for (inputs, grads) in chunks {
        for (x, g) in inputs.iter().zip(grads) {
            seq.backward(x, g);
        }
    }
    seq.step(1e-3);
    seq.to_bytes()
}

/// Two `backward_batch` calls (the second enters with non-zero `gw`, as
/// A2C's 64-transition chunks do), then one step, at `width`.
fn batched_update(net: &Mlp, chunks: Chunks, width: KernelWidth) -> Vec<u8> {
    let mut bat = net.clone();
    let mut ws = BatchWorkspace::with_width(width);
    let mut scratch = GradScratch::with_width(width);
    for (inputs, grads) in chunks {
        stage(&bat, &mut ws, inputs);
        bat.backward_batch(&ws, &grads.concat(), &mut scratch);
    }
    bat.step(1e-3);
    bat.to_bytes()
}

fn samples(dim: usize, n: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n).map(|b| obs(dim, salt + b as u64)).collect()
}

#[test]
fn backward_batch_bit_identical_to_sequential_backward() {
    // Remainder lanes in every dimension (inputs, hidden, outputs) for
    // 2- and 4-wide kernels, a single-output (value) head, one to three
    // hand-offs, and the serving layout itself.
    const SHAPES: &[&[usize]] = &[
        &[56, 32, 46],
        &[7, 11, 5, 3],
        &[70, 9, 2],
        &[42, 37, 1],
        &[3, 6, 5, 7, 2],
        &[42, 256, 256, 18],
        &[42, 256, 256, 1],
    ];
    // Around the GEMM row block (4) on both products, the benchmark's
    // update sizes (12, 48) and A2C's chunk (64) with its remainder.
    const BATCHES: &[usize] = &[0, 1, 3, 4, 5, 12, 48, 64, 65];
    for &shape in SHAPES {
        let (inp, out) = (shape[0], *shape.last().unwrap());
        let wide = shape.contains(&256);
        for act in [Activation::Tanh, Activation::Relu] {
            let net = Mlp::new(shape, act, 99);
            for &batch in BATCHES {
                // The 256-wide reference is slow in debug builds: keep
                // its sweep to the sizes the benchmark trains at.
                if wide && !(act == Activation::Tanh && [0, 12, 48].contains(&batch)) {
                    continue;
                }
                let (x1, g1) = (samples(inp, batch, 40), samples(out, batch, 80));
                let (x2, g2) = (samples(inp, 5, 140), samples(out, 5, 180));
                let chunks = [(&x1[..], &g1[..]), (&x2[..], &g2[..])];
                let want = sequential_update(&net, chunks);
                for width in KernelWidth::all() {
                    assert!(
                        batched_update(&net, chunks, width) == want,
                        "shape {shape:?} act {act:?} width {width:?} batch {batch}"
                    );
                }
            }
        }
    }
}

/// `ys[b][o] = Σ_j w[o·kdim + j] · xs[b][j]`: the scalar row-major
/// reference `gemm_rt` is held to, one strict ascending-`j` dot product
/// per output with separate multiply and add.
fn reference_rt(w: &[f64], xs: &[f64], batch: usize, kdim: usize, out: usize) -> Vec<f64> {
    let mut ys = vec![0.0; batch * out];
    for b in 0..batch {
        for o in 0..out {
            let mut acc = 0.0;
            for j in 0..kdim {
                acc += w[o * kdim + j] * xs[b * kdim + j];
            }
            ys[b * out + o] = acc;
        }
    }
    ys
}

/// `gemm_rt` (the backward's hand-off `Δ·W` off a k-major `Wᵀ`) against
/// the scalar reference at every width: reduction lengths and output
/// counts straddling the 4×4 register tile and 2/4 lanes, batches around
/// the 4-row block (the benchmark's 12 and 48, A2C's 64 + 1), and the
/// nets' own hand-off shapes 256→256, 18→256 and 1→256.
#[test]
fn gemm_rt_bit_identical_to_scalar_reference() {
    const KDIMS: &[usize] = &[1, 2, 3, 4, 5, 17, 18, 256];
    const OUTS: &[usize] = &[1, 3, 4, 5, 18, 256];
    const BATCHES: &[usize] = &[0, 1, 3, 4, 5, 12, 48, 65];
    for &kdim in KDIMS {
        for &out in OUTS {
            // Sign-mixed weights with exact zeros and negative zeros.
            let w: Vec<f64> = obs(kdim * out, (kdim * 1000 + out) as u64)
                .into_iter()
                .enumerate()
                .map(|(i, v)| if i % 13 == 5 { -0.0 } else { v })
                .collect();
            for &batch in BATCHES {
                let xs = obs(batch * kdim, 7 + batch as u64);
                let want = bits(&reference_rt(&w, &xs, batch, kdim, out));
                for width in KernelWidth::all() {
                    let mut ys = vec![f64::NAN; batch * out];
                    gemm_rt(&w, &xs, &mut ys, batch, &mut Vec::new(), width);
                    assert!(
                        bits(&ys) == want,
                        "gemm_rt width {width:?} kdim {kdim} out {out} batch {batch}"
                    );
                }
            }
        }
    }
}

/// `ys[b][n] = init[b][n] + Σ_k wt[k·out + n] · xs[b][k]`, ascending `k`,
/// separate multiply and add: the scalar reference `gemm_kt` (zero
/// `init`) and `gemm_kt_acc` are held to.
fn reference_kt(wt: &[f64], xs: &[f64], init: &[f64], kdim: usize, out: usize) -> Vec<f64> {
    let mut ys = init.to_vec();
    for (x, y) in xs.chunks_exact(kdim).zip(ys.chunks_exact_mut(out)) {
        for (n, yn) in y.iter_mut().enumerate() {
            for (k, xk) in x.iter().enumerate() {
                *yn += wt[k * out + n] * xk;
            }
        }
    }
    ys
}

/// The three products against their scalar references at every width,
/// on the edges a wider blocking creates: output counts around 8-lane
/// tails (1–17, 18, 31–33, 256), batches around 4-row blocks plus tail
/// rows (1–13, and the set-up's 48), and the nets' reduction lengths
/// (the value head's 1, the update batch 12, 18 actions, 42 features,
/// 256 hidden units). A shape here plays every role: `gemm_kt_acc` reads
/// `kdim` as the update batch and `batch` as the layer's inputs,
/// `gemm_rt` reads `kdim` as the layer's outputs, so `kdim` 1 with
/// `out` 256 is the value net's hand-off.
#[test]
fn gemm_products_bit_identical_at_block_and_tail_edges() {
    const OUTS: &[usize] = &[
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 31, 32, 33, 256,
    ];
    const BATCHES: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 48];
    const KDIMS: &[usize] = &[1, 12, 18, 42, 256];
    for &kdim in KDIMS {
        for &out in OUTS {
            let w: Vec<f64> = obs(kdim * out, (kdim * 1000 + out) as u64)
                .into_iter()
                .enumerate()
                .map(|(i, v)| if i % 13 == 5 { -0.0 } else { v })
                .collect();
            for &batch in BATCHES {
                // The 256-long reductions are slow to check in debug
                // builds: keep them to the batches a block boundary
                // separates.
                if kdim == 256 && ![1, 4, 5, 12, 13, 48].contains(&batch) {
                    continue;
                }
                let xs = obs(batch * kdim, 3 + batch as u64);
                let init = obs(batch * out, 500 + batch as u64);
                let want = [
                    bits(&reference_kt(&w, &xs, &vec![0.0; batch * out], kdim, out)),
                    bits(&reference_kt(&w, &xs, &init, kdim, out)),
                    bits(&reference_rt(&w, &xs, batch, kdim, out)),
                ];
                for width in KernelWidth::all() {
                    let mut got = [
                        vec![f64::NAN; batch * out],
                        init.clone(),
                        vec![f64::NAN; batch * out],
                    ];
                    gemm_kt(&w, &xs, &mut got[0], batch, width);
                    gemm_kt_acc(&w, &xs, &mut got[1], batch, width);
                    gemm_rt(&w, &xs, &mut got[2], batch, &mut Vec::new(), width);
                    for (name, (g, want)) in ["gemm_kt", "gemm_kt_acc", "gemm_rt"]
                        .iter()
                        .zip(got.iter().zip(&want))
                    {
                        assert!(
                            bits(g) == *want,
                            "{name} width {width:?} kdim {kdim} out {out} batch {batch}"
                        );
                    }
                }
            }
        }
    }
}

/// The scalar Adam loop `Mlp::step` ran before it became a lane kernel,
/// verbatim, over one parameter array (`t` already advanced).
#[allow(clippy::needless_range_loop)]
fn reference_adam(
    w: &mut [f64],
    gw: &mut [f64],
    mw: &mut [f64],
    vw: &mut [f64],
    pending: usize,
    t: u64,
    lr: f64,
) {
    let scale = 1.0 / pending as f64;
    let (b1, b2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
    let bc1 = 1.0 - b1.powi(t as i32);
    let bc2 = 1.0 - b2.powi(t as i32);
    for i in 0..w.len() {
        let g = gw[i] * scale;
        let m = b1 * mw[i] + (1.0 - b1) * g;
        let v = b2 * vw[i] + (1.0 - b2) * g * g;
        mw[i] = m;
        vw[i] = v;
        let mhat = m / bc1;
        let vhat = v / bc2;
        w[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
    gw.iter_mut().for_each(|g| *g = 0.0);
}

/// Lengths straddling every remainder case for 2 and 4 lanes.
const ADAM_LENGTHS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 257];
const ADAM_CHECKPOINTS: &[u64] = &[1, 2, 50];

#[test]
fn adam_kernel_bit_identical_to_scalar_reference() {
    for &n in ADAM_LENGTHS {
        for width in KernelWidth::all() {
            let w0 = obs(n, 1);
            let mut want = [w0.clone(), vec![0.0; n], vec![0.0; n], vec![0.0; n]];
            let mut got = want.clone();
            for t in 1..=50u64 {
                let (pending, lr) = (1 + (t as usize % 3), 1e-3);
                let grad = obs(n, 100 + t);
                want[1].copy_from_slice(&grad);
                got[1].copy_from_slice(&grad);
                let [w, g, m, v] = &mut want;
                reference_adam(w, g, m, v, pending, t, lr);
                let [w, g, m, v] = &mut got;
                adam_step(w, g, m, v, &AdamStep::new(lr, pending, t), width);
                if ADAM_CHECKPOINTS.contains(&t) {
                    for (what, (a, b)) in ["w", "g", "m", "v"].iter().zip(got.iter().zip(&want)) {
                        assert_eq!(bits(a), bits(b), "{what} n {n} width {width:?} step {t}");
                    }
                }
            }
        }
    }
}

/// `[w, b, mw, vw, mb, vb]` of a single-layer net, read back from its
/// serialized form (the moments have no other accessor).
fn single_layer_state(net: &Mlp, inp: usize, out: usize) -> [Vec<u64>; 6] {
    let bytes = net.to_bytes();
    // magic, version, activation, adam_t, n_sizes, two sizes.
    let mut pos = 4 + 4 + 1 + 8 + 4 + 2 * 4;
    [inp * out, out, inp * out, inp * out, out, out].map(|n| {
        let field = bytes[pos..pos + 8 * n]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        pos += 8 * n;
        field
    })
}

/// `Mlp::step` end to end (bias correction, gradient scale, clearing)
/// against the scalar reference, on single linear layers whose gradients
/// have a closed form: `gw = Σ_s g_s·x_sᵀ`, `gb = Σ_s g_s`.
#[test]
fn mlp_step_bit_identical_to_scalar_reference() {
    // (inputs, outputs): weight and bias lengths cover ADAM_LENGTHS.
    for (inp, out) in [
        (1usize, 1usize),
        (2, 1),
        (3, 1),
        (1, 4),
        (5, 1),
        (7, 1),
        (4, 2),
        (257, 1),
        (1, 257),
    ] {
        let mut net = Mlp::new(&[inp, out], Activation::Tanh, 31);
        let mut wref = net.parameters();
        let mut bref = wref.split_off(inp * out);
        let (mut gw, mut mw, mut vw) = (
            vec![0.0; inp * out],
            vec![0.0; inp * out],
            vec![0.0; inp * out],
        );
        let (mut gb, mut mb, mut vb) = (vec![0.0; out], vec![0.0; out], vec![0.0; out]);
        for t in 1..=50u64 {
            let pending = 1 + (t as usize % 3);
            for s in 0..pending as u64 {
                let (x, g) = (obs(inp, 7 * t + s), obs(out, 1000 + 7 * t + s));
                net.backward(&x, &g);
                for o in 0..out {
                    for i in 0..inp {
                        gw[o * inp + i] += g[o] * x[i];
                    }
                    gb[o] += g[o];
                }
            }
            net.step(2e-3);
            reference_adam(&mut wref, &mut gw, &mut mw, &mut vw, pending, t, 2e-3);
            reference_adam(&mut bref, &mut gb, &mut mb, &mut vb, pending, t, 2e-3);
            if ADAM_CHECKPOINTS.contains(&t) {
                let want = [&wref, &bref, &mw, &vw, &mb, &vb].map(|v| bits(v));
                assert!(
                    single_layer_state(&net, inp, out) == want,
                    "shape {inp}x{out} step {t}"
                );
            }
        }
    }
}

/// The `tanh` golden's `(input, libm's output bits, kind)` lines: every
/// branch boundary of `tanh` and its `expm1`, the specials (±0,
/// subnormals, ±inf, NaNs), the `fma-only` inputs and seeded values.
fn tanh_golden() -> Vec<(f64, u64, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tanh.txt");
    let text = std::fs::read_to_string(path).expect("tests/golden/tanh.txt");
    let hex = |s: &str| u64::from_str_radix(s, 16).unwrap();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            (
                f64::from_bits(hex(&l[..16])),
                hex(&l[17..33]),
                l[34..].to_string(),
            )
        })
        .collect()
}

/// Inputs whose `tanh` changes when one of the port's multiply-adds is
/// split into a multiply and an add: `R1`, `r1`'s inner sum, `t`, the
/// denominator, and the k = 0 and k ≠ 0 reconstructions, in that order.
/// Splitting the other five changes no result seen: two of their
/// products are exact, and the other three moved none of 6·10⁸ seeded
/// inputs.
const FMA_SITE_INPUTS: [u64; 6] = [
    0x3fc5_cd18_6ae1_0ce0,
    0xbfc7_74f0_e599_8675,
    0x3fc8_d466_cb7b_e5b5,
    0xbfc5_cd6d_af87_1c62,
    0xbfc3_6cb5_6164_d02c,
    0x4000_0bbd_6030_7834,
];

/// `tanh_in_place` against the scalar port, element by element, at every
/// width: slice lengths 0–33 and 256 (every tail of an 8-block), filled
/// with vector-range values only, with one scalar-fallback lane (tiny,
/// ≥ 22, infinite or NaN) per 8-block, and from the golden's inputs in
/// order, where boundaries and specials sit next to each other; last,
/// two whole vector blocks of [`FMA_SITE_INPUTS`].
#[test]
fn tanh_kernel_bit_identical_to_the_scalar_port() {
    let pool: Vec<f64> = tanh_golden().into_iter().map(|c| c.0).collect();
    let inside = |x: &&f64| (2f64.powi(-55)..22.0).contains(&x.abs());
    let vector: Vec<f64> = pool.iter().filter(inside).copied().collect();
    let fallback: Vec<f64> = pool.iter().filter(|x| !inside(x)).copied().collect();
    assert!(fallback.len() > 8 && fallback.iter().any(|x| x.is_nan()));
    let mut fills: Vec<Vec<f64>> = Vec::new();
    for len in (0..=33).chain([256]) {
        let at = |v: &[f64], i: usize| v[(len * 37 + i * 11) % v.len()];
        fills.push((0..len).map(|i| at(&vector, i)).collect());
        let odd = |i: usize| i % 8 == len % 8;
        fills.push(
            (0..len)
                .map(|i| {
                    if odd(i) {
                        at(&fallback, i)
                    } else {
                        at(&vector, i)
                    }
                })
                .collect(),
        );
    }
    fills.extend(pool.chunks(256).map(<[f64]>::to_vec));
    fills.push(
        (0..16)
            .map(|i| f64::from_bits(FMA_SITE_INPUTS[i % 6]))
            .collect(),
    );
    for xs in &fills {
        let want: Vec<u64> = xs.iter().map(|&x| tanh(x).to_bits()).collect();
        for width in KernelWidth::all() {
            let mut ys = xs.clone();
            tanh_in_place(&mut ys, width);
            for ((x, y), w) in xs.iter().zip(&ys).zip(&want) {
                assert_eq!(y.to_bits(), *w, "{width:?}: tanh({:016x})", x.to_bits());
            }
        }
    }
}

/// The release sweep: 10⁸ seeded inputs through the scalar port, the V8
/// kernel and `f64::tanh`, bit for bit. libm only joins when it agrees
/// with the golden on the inputs where glibc's SSE2 and FMA `expm1`
/// bodies differ; otherwise the host resolved another body, and the
/// golden alone binds the port.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10⁸ inputs: run in release (`make perf-smoke`)"
)]
fn tanh_sweep_matches_libm() {
    let libm = tanh_golden()
        .iter()
        .filter(|c| c.2 == "fma-only")
        .all(|&(x, y, _)| x.tanh().to_bits() == y);
    if !libm {
        eprintln!("host libm's tanh is not glibc's FMA expm1 build: sweeping port against V8 only");
    }
    let mut rng = StdRng::seed_from_u64(0x7a4e_5eed);
    let mut xs = vec![0.0f64; 4096];
    for _ in 0..100_000_000 / xs.len() + 1 {
        // One kind per 8-block: the first three stay in the vector
        // range, the last two mostly fall back to the scalar body.
        for (i, x) in xs.iter_mut().enumerate() {
            *x = match i / 8 % 5 {
                0 => rng.gen_range(-22.0..22.0),
                1 => rng.gen_range(-2.0..2.0),
                2 => rng.gen_range(-1e-3..1e-3),
                3 => rng.gen_range(-30.0..30.0),
                _ => f64::from_bits(rng.gen()),
            };
        }
        let mut ys = xs.clone();
        tanh_in_place(&mut ys, KernelWidth::V8);
        for (&x, y) in xs.iter().zip(&ys) {
            let port = tanh(x).to_bits();
            assert_eq!(y.to_bits(), port, "V8 tanh({:016x})", x.to_bits());
            if libm {
                assert_eq!(x.tanh().to_bits(), port, "libm tanh({:016x})", x.to_bits());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random shapes, batch sizes, and seeds: the batched forward is
    /// bit-identical to the scalar forward at every width.
    #[test]
    fn prop_soa_forward_bit_identical(
        inp in 1usize..80,
        hidden in 1usize..40,
        out in 1usize..50,
        batch in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mlp = Mlp::new(&[inp, hidden, out], Activation::Tanh, seed);
        let inputs: Vec<Vec<f64>> = (0..batch).map(|b| obs(inp, seed ^ b as u64)).collect();
        for width in KernelWidth::all() {
            let mut ws = BatchWorkspace::with_width(width);
            stage(&mlp, &mut ws, &inputs);
            for (b, x) in inputs.iter().enumerate() {
                prop_assert_eq!(bits(ws.logits(b)), bits(&mlp.forward(x)));
            }
        }
    }

    /// Random shapes (one or two hidden layers), batch sizes and seeds:
    /// `backward_batch` leaves the same weights and moments as per-sample
    /// `backward` at every width, with non-zero gradients on entry.
    #[test]
    fn prop_backward_batch_bit_identical(
        inp in 1usize..40,
        hidden in proptest::collection::vec(1usize..24, 1..3),
        out in 1usize..20,
        batch in 0usize..70,
        relu in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let mut shape = vec![inp];
        shape.extend(&hidden);
        shape.push(out);
        let act = if relu { Activation::Relu } else { Activation::Tanh };
        let net = Mlp::new(&shape, act, seed);
        let (x1, g1) = (samples(inp, 3, seed), samples(out, 3, seed + 50));
        let (x2, g2) = (samples(inp, batch, seed + 100), samples(out, batch, seed + 150));
        let chunks = [(&x1[..], &g1[..]), (&x2[..], &g2[..])];
        let want = sequential_update(&net, chunks);
        for width in KernelWidth::all() {
            prop_assert!(batched_update(&net, chunks, width) == want, "width {:?}", width);
        }
    }
}
