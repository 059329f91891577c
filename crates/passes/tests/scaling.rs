//! Scaling guard: the rewritten pass kernels must stay linear in the size
//! of a block.
//!
//! Each guarded pass runs on a synthetic single-block function whose N
//! repetitions all give it something to do (redundant loads and adds,
//! `x + 0`, constant arithmetic, stores to a promotable slot), at N and at
//! 4N. A linear pass takes ~4x as long on the larger input; the kernels
//! this guards against — one arena sweep per replaced use, one block scan
//! per removed instruction — took ~16x. The bound of 8 sits between the
//! two, far enough from both that the larger input's extra cache misses
//! cannot cross it (the times are best-of-5, and a pass gets three
//! attempts, so a burst of host noise cannot either).
//!
//! A timing test: release builds only, run by `make perf-smoke`.

use autophase_ir::builder::FunctionBuilder;
use autophase_ir::verify::verify_module;
use autophase_ir::{BinOp, Module, Type, Value};
use autophase_passes::registry::{apply, pass_name};
use std::time::{Duration, Instant};

const N: usize = 250;
const GUARDED: [usize; 5] = [
    26, // -early-cse
    7,  // -gvn
    30, // -instcombine
    5,  // -sccp
    38, // -mem2reg
];

/// `reps` times: reload the slot twice, add the same two values twice,
/// add zero, fold a constant expression, store back.
fn redundant_block(reps: usize) -> Module {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let slot = b.alloca(Type::I32, 1);
    b.store(slot, Value::i32(1));
    for _ in 0..reps {
        let x = b.load(Type::I32, slot);
        let y = b.load(Type::I32, slot);
        let s = b.binary(BinOp::Add, x, b.arg(0));
        let t = b.binary(BinOp::Add, y, b.arg(0));
        let u = b.binary(BinOp::Add, s, Value::i32(0));
        let k = b.binary(BinOp::Mul, Value::i32(6), Value::i32(7));
        let v = b.binary(BinOp::Xor, u, t);
        let w = b.binary(BinOp::Or, v, k);
        b.store(slot, w);
    }
    let r = b.load(Type::I32, slot);
    b.ret(Some(r));
    let mut m = Module::new("scaling");
    m.add_function(b.finish());
    m
}

/// Best of five samples; a sample applies `pass` to `runs` fresh copies of
/// `module` and reports the time per copy. (The small input is sampled
/// four copies at a time, so both sizes' samples last about as long and
/// are equally exposed to scheduler noise.)
fn best_of_5(module: &Module, pass: usize, runs: u32) -> Duration {
    (0..5)
        .map(|_| {
            let mut copies = vec![module.clone(); runs as usize];
            let t = Instant::now();
            for m in &mut copies {
                assert!(apply(m, pass), "{} found nothing to do", pass_name(pass));
            }
            let elapsed = t.elapsed();
            verify_module(&copies[0]).expect("guarded pass left valid IR");
            elapsed / runs
        })
        .min()
        .expect("five samples")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: run in release (make perf-smoke)"
)]
fn guarded_passes_scale_linearly_with_block_size() {
    let small = redundant_block(N);
    let large = redundant_block(4 * N);
    for pass in GUARDED {
        // A quadratic kernel reads ~16 every time; a linear one may be
        // pushed over the bound by a burst of host noise, but not three
        // times running.
        let ratio = (0..3)
            .map(|_| {
                let (t1, t4) = (best_of_5(&small, pass, 4), best_of_5(&large, pass, 1));
                let ratio = t4.as_secs_f64() / t1.as_secs_f64();
                println!(
                    "{:14} N={N}: {t1:?}  4N: {t4:?}  ratio {ratio:.1}",
                    pass_name(pass)
                );
                ratio
            })
            .find(|&ratio| ratio < 8.0);
        assert!(
            ratio.is_some(),
            "{} took 8x or longer on 4x the block, three times: not linear",
            pass_name(pass)
        );
    }
}
