//! `tanh` golden (tier 1): hidden-unit activations pinned as bits.
//!
//! `golden/tanh.txt` holds one `<input> <output> <kind>` line per case,
//! both as hex `f64` bits, written by `f64::tanh` (glibc 2.36, whose
//! `expm1` resolved to its FMA body). The cases:
//!
//! * `boundary`: ±4 ulps around every branch point of `tanh` (|x| =
//!   2⁻⁵⁵, 1, 22) and of the `expm1` it calls on 2|x| (|2x| = 2⁻⁵⁴,
//!   0.5 ln 2, 1.5 ln 2, 56 ln 2, and where its `k` turns 19 → 20 and
//!   56 → 57), on both signs;
//! * `special`: ±0, the smallest subnormals, ±inf and two NaN payloads;
//! * `fma-only`: inputs on which glibc's SSE2 `expm1` body (the same C
//!   without contracted multiply-adds) gives a different `tanh` than its
//!   FMA body;
//! * `seeded`: uniform on [−30, 30], N(0, 2²) and raw bit patterns.
//!
//! Every case goes through a network's hidden layer, at every kernel
//! width of the batched forward and through the scalar `Mlp::forward`,
//! and must come out bit for bit. No layer sum is ever −0 (each starts
//! from +0), so the `-0` line is not driven through a network.
//! Regenerate only for an intended change of answer:
//! `cargo test -p autophase-nn --test tanh_golden -- --ignored`.

use autophase_nn::{Activation, BatchWorkspace, KernelWidth, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tanh.txt")
}

/// `(input, output, kind)` per line of the golden file.
fn golden() -> Vec<(f64, f64, String)> {
    let text = std::fs::read_to_string(golden_path()).expect("tests/golden/tanh.txt");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut f = l.split(' ');
            let mut hex = || f64::from_bits(u64::from_str_radix(f.next().unwrap(), 16).unwrap());
            let (x, y) = (hex(), hex());
            (x, y, f.next().unwrap().to_string())
        })
        .collect()
}

/// `x` one step of `ulps` away in bit order (same sign).
fn nudge(x: f64, ulps: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + ulps) as u64)
}

/// The smallest positive `x` whose `expm1(2x)` reduction picks `k`:
/// `k = (int)(2x · (1/ln 2) + ½)`, multiply then add, as glibc computes
/// it.
fn k_flip(k: i32) -> f64 {
    let invln2 = f64::from_bits(0x3ff7_1547_652b_82fe);
    let kof = |x: f64| (invln2 * (2.0 * x) + 0.5) as i32;
    let (mut lo, mut hi) = (1.0f64.to_bits(), 22.0f64.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if kof(f64::from_bits(mid)) >= k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

fn cases() -> Vec<(f64, &'static str)> {
    let mut out = Vec::new();
    // tanh's own branch points, then expm1's on 2|x| (halved).
    let mut points = vec![2f64.powi(-55), 1.0, 22.0];
    for hw in [0x3c8f_ffffu64, 0x3fd6_2e42, 0x3ff0_a2b1, 0x4043_6879] {
        points.push(f64::from_bits((hw + 1) << 32) / 2.0);
    }
    points.extend([k_flip(20), k_flip(57)]);
    for p in points {
        for ulps in -4..=4 {
            let x = nudge(p, ulps);
            out.extend([(x, "boundary"), (-x, "boundary")]);
        }
    }
    for bits in [
        0u64,
        0x8000_0000_0000_0000,
        1,
        0x8000_0000_0000_0001,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x7ff8_0000_0000_0001,
        0xfff4_0000_0000_0123,
    ] {
        out.push((f64::from_bits(bits), "special"));
    }
    for bits in [
        0x3fdb_bdb6_3ded_0200u64,
        0xbfb7_6d21_670a_c580,
        0x3fc9_6aac_e48b_7c20,
    ] {
        out.push((f64::from_bits(bits), "fma-only"));
    }
    let mut rng = StdRng::seed_from_u64(0x7a4e);
    for i in 0..4000 {
        let x = match i % 3 {
            0 => rng.gen_range(-30.0..30.0),
            1 => {
                let (u, v): (f64, f64) = (1.0 - rng.gen::<f64>(), rng.gen());
                2.0 * (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
            }
            _ => f64::from_bits(rng.gen()),
        };
        out.push((x, "seeded"));
    }
    out
}

fn render() -> String {
    let mut s = String::from("# input output kind: f64 bits, output = f64::tanh(input)\n");
    for (x, kind) in cases() {
        writeln!(s, "{:016x} {:016x} {kind}", x.to_bits(), x.tanh().to_bits()).unwrap();
    }
    s
}

#[test]
fn hidden_units_match_the_golden_at_every_width() {
    let cases: Vec<_> = golden()
        .into_iter()
        .filter(|(x, ..)| x.to_bits() != (-0.0f64).to_bits())
        .collect();
    let n = cases.len();
    assert!(n > 4000, "golden file too short: {n} cases");
    // Zero weights and the inputs as biases: each pre-activation is
    // `(0 + 0·0) + b`, exactly `b`.
    let mut net = Mlp::new(&[1, n, 1], Activation::Tanh, 1);
    let mut params = vec![0.0; n];
    params.extend(cases.iter().map(|c| c.0));
    params.extend(std::iter::repeat_n(0.0, n + 1));
    net.set_parameters(&params);
    for width in KernelWidth::all() {
        let mut ws = BatchWorkspace::with_width(width);
        ws.begin(&net);
        ws.push_input(&[0.0]);
        net.forward_batch(&mut ws);
        for ((x, y, kind), got) in cases.iter().zip(ws.activation(0, 0)) {
            assert_eq!(
                got.to_bits(),
                y.to_bits(),
                "{width:?}: tanh({:016x}) [{kind}]",
                x.to_bits()
            );
        }
    }
}

#[test]
fn the_scalar_forward_matches_the_golden() {
    // Unit weights, zero biases: `0 + x·1 + 0` in, `0 + h·1 + 0` out.
    let mut net = Mlp::new(&[1, 1, 1], Activation::Tanh, 1);
    net.set_parameters(&[1.0, 0.0, 1.0, 0.0]);
    for (x, y, kind) in golden() {
        if x.to_bits() == (-0.0f64).to_bits() {
            continue;
        }
        let got = net.forward(&[x])[0];
        assert_eq!(
            got.to_bits(),
            y.to_bits(),
            "tanh({:016x}) [{kind}]",
            x.to_bits()
        );
    }
}

#[test]
#[ignore = "overwrites the committed golden file; run only for an intended change of answer"]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, render()).unwrap();
}
