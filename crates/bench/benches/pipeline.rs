//! Criterion micro-benchmarks of the framework's hot paths: the cost of
//! one RL environment step decomposed into its parts (pass application,
//! scheduling, profiling, feature extraction), plus ablations called out
//! in DESIGN.md (chaining on/off, filtered vs. full observations).

use autophase_benchmarks::suite;
use autophase_core::compile::Input;
use autophase_core::env::{EnvConfig, PhaseOrderEnv};
use autophase_features::extract;
use autophase_hls::{profile::profile_module, schedule::schedule_function, HlsConfig};
use autophase_nn::simd::{gemm_kt, gemm_kt_acc, gemm_rt, tanh_in_place};
use autophase_nn::{Activation, BatchWorkspace, GradScratch, KernelWidth, Mlp};
use autophase_rl::env::Environment;
use autophase_serve::front::keyed_digest;
use autophase_serve::protocol::{
    read_reply, read_request, write_compile, write_reply, Reply, Source,
};
use autophase_telemetry::{FlightConfig, FlightRecorder};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::hash::{BuildHasher, RandomState};

fn bench_passes(c: &mut Criterion) {
    let gsm = suite()
        .into_iter()
        .find(|b| b.name == "gsm")
        .unwrap()
        .module;
    // Each iteration starts from an unshared copy, so the pass analyses
    // the module afresh instead of reading the facts an earlier iteration
    // left with a shared function (the copy is timed too).
    c.bench_function("pass/mem2reg on gsm", |b| {
        b.iter(|| {
            let mut m = gsm.deep_clone();
            autophase_passes::mem2reg::run(&mut m);
            black_box(m.num_insts())
        })
    });
    c.bench_function("pass/O3 pipeline on gsm", |b| {
        b.iter(|| {
            let mut m = gsm.deep_clone();
            autophase_passes::o3::o3_checked(&mut m, &Default::default());
            black_box(m.num_insts())
        })
    });
    // The pass step of a cold request: the nine-step prefix the serving
    // policy takes on every seed-1 corpus program, each step a checked
    // apply (verification included). Each iteration starts from unshared
    // copies (their deep clone is timed too, a few percent), so it analyses
    // every function afresh, as a parsed request does.
    const SERVED: [usize; 9] = [30, 23, 33, 30, 33, 26, 33, 30, 33];
    let programs = autophase_progen::program_batch(&Default::default(), 1, 40);
    let fuel = autophase_passes::FuelBudget::default();
    c.bench_function("pass/served ordering on 40 programs", |b| {
        b.iter(|| {
            let mut total = 0;
            for program in &programs {
                let mut m = program.deep_clone();
                for &pass in &SERVED {
                    let _ = autophase_passes::apply_checked(&mut m, pass, &fuel);
                }
                total += m.num_insts();
            }
            black_box(total)
        })
    });
}

fn bench_hls(c: &mut Criterion) {
    let cfg = HlsConfig::default();
    let matmul = suite()
        .into_iter()
        .find(|b| b.name == "matmul")
        .unwrap()
        .module;
    c.bench_function("hls/schedule matmul", |b| {
        b.iter(|| {
            let fid = matmul.main().unwrap();
            black_box(schedule_function(matmul.func(fid), &cfg).total_states)
        })
    });
    c.bench_function("hls/profile matmul (trace + schedule)", |b| {
        b.iter(|| black_box(profile_module(&matmul, &cfg).unwrap().cycles))
    });
    // Ablation: operator chaining off (tiny clock period forces one op per
    // state) vs. the default 5 ns budget.
    let no_chain = HlsConfig {
        clock_period_ns: 0.1,
        ..HlsConfig::default()
    };
    c.bench_function("hls/profile matmul without chaining", |b| {
        b.iter(|| black_box(profile_module(&matmul, &no_chain).unwrap().cycles))
    });
}

fn bench_features(c: &mut Criterion) {
    let aes = suite()
        .into_iter()
        .find(|b| b.name == "aes")
        .unwrap()
        .module;
    c.bench_function("features/extract aes", |b| {
        b.iter(|| black_box(extract(&aes)))
    });
}

fn bench_env(c: &mut Criterion) {
    let gsm = suite()
        .into_iter()
        .find(|b| b.name == "gsm")
        .unwrap()
        .module;
    c.bench_function("env/reset+3 steps on gsm", |b| {
        b.iter(|| {
            let mut env = PhaseOrderEnv::single(gsm.clone(), EnvConfig::default());
            env.reset();
            env.step(38);
            env.step(23);
            env.step(31);
            black_box(env.last_cycles())
        })
    });
    // Ablation: filtered observation/action spaces vs. the full ones.
    let filtered = EnvConfig {
        filtered: true,
        ..EnvConfig::default()
    };
    c.bench_function("env/reset+3 steps on gsm (filtered spaces)", |b| {
        b.iter(|| {
            let mut env = PhaseOrderEnv::single(gsm.clone(), filtered.clone());
            env.reset();
            env.step(16); // -mem2reg in the filtered list
            env.step(6);
            env.step(13);
            black_box(env.last_cycles())
        })
    });
    let hls = HlsConfig::default();
    c.bench_function("env/sequence_cycles 12-pass gsm", |b| {
        b.iter(|| {
            black_box(
                Input::new(&gsm, &hls).cycles(&[38, 29, 23, 36, 30, 31, 7, 28, 32, 33, 30, 31]),
            )
        })
    });
}

fn bench_progen(c: &mut Criterion) {
    c.bench_function("progen/generate_valid", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(autophase_progen::generate_valid(
                &autophase_progen::GenConfig::default(),
                seed,
            ))
        })
    });
}

/// The stages of one PPO minibatch update on one network, at the
/// benchmark's two update sizes and the serving layout's two shapes
/// (DESIGN.md §4k "training kernels"). `step` is a no-op without pending
/// gradients, so it is timed together with the `backward_batch` that
/// feeds it; subtract the line above. Then the backward's two 256×256
/// products side by side: the hand-off `gemm_rt` (row-major reads of the
/// k-major `Wᵀ`) against the forward's `gemm_kt` over the same slab.
fn bench_nn_update(c: &mut Criterion) {
    for (net, sizes) in [
        ("policy", [42usize, 256, 256, 18]),
        ("value", [42, 256, 256, 1]),
    ] {
        for batch in [12usize, 48] {
            let mut mlp = Mlp::new(&sizes, Activation::Tanh, 12);
            let mut ws = BatchWorkspace::new();
            let mut scratch = GradScratch::new();
            let obs: Vec<Vec<f64>> = (0..batch)
                .map(|b| {
                    (0..sizes[0])
                        .map(|i| ((b * sizes[0] + i) as f64 * 0.37).sin())
                        .collect()
                })
                .collect();
            let grads: Vec<f64> = (0..batch * sizes[3])
                .map(|i| (i as f64 * 0.11).cos() * 0.1)
                .collect();
            let stage = |mlp: &Mlp, ws: &mut BatchWorkspace| {
                ws.begin(mlp);
                for o in &obs {
                    ws.push_input(o);
                }
                mlp.forward_batch(ws);
            };
            let name = |what: &str| format!("nn_update/{what} {net} b{batch}");
            c.bench_function(&name("forward_batch"), |b| {
                b.iter(|| {
                    stage(&mlp, &mut ws);
                    black_box(ws.logits(0)[0])
                })
            });
            c.bench_function(&name("backward_batch"), |b| {
                b.iter(|| mlp.backward_batch(&ws, &grads, &mut scratch))
            });
            c.bench_function(&name("backward_batch+step"), |b| {
                b.iter(|| {
                    mlp.backward_batch(&ws, &grads, &mut scratch);
                    mlp.step(3e-4);
                })
            });
        }
    }
    let width = autophase_nn::simd::picked();
    let slab: Vec<f64> = (0..256 * 256).map(|i| (i as f64 * 0.013).sin()).collect();
    for batch in [12usize, 48] {
        let xs: Vec<f64> = (0..batch * 256).map(|i| (i as f64 * 0.07).cos()).collect();
        let mut ys = vec![0.0; batch * 256];
        let mut stage = Vec::new();
        for kernel in ["gemm_kt", "gemm_rt"] {
            c.bench_function(&format!("nn_update/{kernel} 256x256 b{batch}"), |b| {
                b.iter(|| {
                    if kernel == "gemm_kt" {
                        gemm_kt(&slab, &xs, &mut ys, batch, width);
                    } else {
                        gemm_rt(&slab, &xs, &mut ys, batch, &mut stage, width);
                    }
                    black_box(ys[0])
                })
            });
        }
    }
}

/// The three GEMMs at `v4` and `v8` over the serving policy's layers
/// (42→256→256→18, DESIGN.md §4k "V8"): each line is one product per
/// layer it runs on — the forward chain at batch 1 (`forward_one`'s
/// GEMV) and at the update's batch 12, the weight gradient
/// `gwᵀ += Xᵀ·Δ` of all three layers, and the two hand-offs `Δ·W`.
/// Then the hidden layers' `tanh` three ways.
fn bench_nn_kernels(c: &mut Criterion) {
    const SIZES: [usize; 4] = [42, 256, 256, 18];
    const BATCH: usize = 12;
    let fill = |n: usize, salt: f64| -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.013 + salt).sin()).collect()
    };
    let layers: Vec<(usize, usize)> = SIZES.windows(2).map(|p| (p[0], p[1])).collect();
    let slabs: Vec<Vec<f64>> = layers.iter().map(|&(i, o)| fill(i * o, 0.5)).collect();
    // Per layer: (slab, rows, result, batch) of each product.
    type Product = (Vec<f64>, Vec<f64>, Vec<f64>, usize);
    let forward = |batch: usize| -> Vec<Product> {
        layers
            .iter()
            .zip(&slabs)
            .map(|(&(i, o), w)| (w.clone(), fill(batch * i, 1.0), vec![0.0; batch * o], batch))
            .collect()
    };
    // The gradient's slab is `Δ[B×out]`, its rows `Xᵀ[in×B]`.
    let gradient: Vec<Product> = layers
        .iter()
        .map(|&(i, o)| {
            (
                fill(BATCH * o, 2.0),
                fill(i * BATCH, 3.0),
                fill(i * o, 4.0),
                i,
            )
        })
        .collect();
    // Hand-offs below the first layer: `Δ[B×out]` into `Δ'[B×in]`.
    let handoff: Vec<Product> = layers[1..]
        .iter()
        .zip(&slabs[1..])
        .map(|(&(i, o), w)| (w.clone(), fill(BATCH * o, 5.0), vec![0.0; BATCH * i], BATCH))
        .collect();
    let mut stage = Vec::new();
    for (kernel, mut products) in [
        ("gemm_kt_b1", forward(1)),
        ("gemm_kt_b12", forward(BATCH)),
        ("gemm_kt_acc_b12", gradient),
        ("gemm_rt_b12", handoff),
    ] {
        for width in [KernelWidth::V4, KernelWidth::V8] {
            let name = format!("nn_kernels/{kernel}/{}", width.name());
            c.bench_function(&name, |b| {
                b.iter(|| {
                    for (w, xs, ys, batch) in &mut products {
                        match kernel {
                            "gemm_kt_acc_b12" => gemm_kt_acc(w, xs, ys, *batch, width),
                            "gemm_rt_b12" => gemm_rt(w, xs, ys, *batch, &mut stage, width),
                            _ => gemm_kt(w, xs, ys, *batch, width),
                        }
                    }
                    black_box(products[0].2[0])
                })
            });
        }
    }
    // The hidden activation over one 256-wide row (`forward_one`) and a
    // 12×256 block (the update's batch): libm per element, the scalar
    // port per element (what `v4` and `v2` run), the eight-lane body.
    for n in [256, BATCH * 256] {
        let pre: Vec<f64> = fill(n, 6.0).iter().map(|v| 3.0 * v).collect();
        let mut ys = pre.clone();
        let rows = if n == 256 { "256" } else { "12x256" };
        for kernel in ["tanh_libm", "tanh_scalar", "tanh_v8"] {
            c.bench_function(&format!("nn_kernels/{kernel}/{rows}"), |b| {
                b.iter(|| {
                    ys.copy_from_slice(&pre);
                    match kernel {
                        "tanh_libm" => ys.iter_mut().for_each(|v| *v = v.tanh()),
                        "tanh_scalar" => tanh_in_place(&mut ys, KernelWidth::V2),
                        _ => tanh_in_place(&mut ys, KernelWidth::V8),
                    }
                    black_box(ys[0])
                })
            });
        }
    }
}

/// A numbers-only store hit's CPU outside the store lookup (DESIGN.md
/// §4n), piece by piece: the front memo's digest of a 6 KB request text
/// beside SipHash over the same bytes (what the memo hashed with before,
/// once per generation probed), the request's decode, the hit reply's
/// encode and decode, and one trace into a ring that has gone round.
fn bench_serve_hit(c: &mut Criterion) {
    const TEXT_LEN: usize = 6 << 10;
    let mut text = String::new();
    for b in suite() {
        text.push_str(&autophase_ir::printer::print_module(&b.module));
    }
    text.truncate(text.floor_char_boundary(TEXT_LEN));
    let seed = RandomState::new().hash_one(0u64);
    c.bench_function("serve_hit/digest 6 KB", |b| {
        b.iter(|| keyed_digest(seed, black_box(text.as_bytes())))
    });
    let sip = RandomState::new();
    c.bench_function("serve_hit/siphash 6 KB", |b| {
        b.iter(|| sip.hash_one(black_box(text.as_str())))
    });
    let mut request = Vec::new();
    write_compile(&mut request, &text, Some(60_000), false).expect("a Vec takes every write");
    c.bench_function("serve_hit/read_request 6 KB", |b| {
        b.iter(|| read_request(&mut black_box(&request[..])).expect("decodes"))
    });
    let reply = Reply::Compiled {
        source: Source::Store,
        cycles: 41_327,
        baseline_cycles: 118_004,
        passes: vec![31, 38, 30, 12, 7, 44, 2, 19, 31, 38, 5, 27],
        ir: None,
    };
    let mut wire = Vec::with_capacity(256);
    c.bench_function("serve_hit/write_reply", |b| {
        b.iter(|| {
            wire.clear();
            write_reply(&mut wire, black_box(&reply)).expect("a Vec takes every write");
            wire.len()
        })
    });
    c.bench_function("serve_hit/read_reply", |b| {
        b.iter(|| read_reply(&mut black_box(&wire[..])).expect("decodes"))
    });
    let rec = FlightRecorder::new(FlightConfig {
        capacity: 16,
        ..FlightConfig::default()
    });
    c.bench_function("serve_hit/trace", |b| {
        b.iter(|| {
            let mut t = rec.begin();
            t.mark("queue_wait");
            t.note("front", "hit");
            t.mark("parse");
            t.mark("store");
            t.mark("reply_write");
            t.set_outcome("ok:store");
            rec.complete(t.finish()).0.total_ns
        })
    });
}

criterion_group!(
    benches,
    bench_serve_hit,
    bench_nn_kernels,
    bench_nn_update,
    bench_passes,
    bench_hls,
    bench_features,
    bench_env,
    bench_progen
);
criterion_main!(benches);
