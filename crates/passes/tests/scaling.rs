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
//! The second shape is one function with k, then 4k, independent counted
//! loops in a row, canonicalised by `-loop-simplify`. It guards the drivers
//! that transform loops or blocks one at a time: `-loop-rotate`,
//! `-loop-unroll` and `-simplifycfg`. A driver that re-analyses the whole
//! function after every rewrite does k rewrites of O(k) analysis each and
//! reads ~16x; one that transforms every candidate an analysis finds reads
//! ~4x. The same bound of 8, best of 5 and three attempts apply.
//!
//! Timing tests: release builds only, run by `make perf-smoke`.

use autophase_ir::builder::FunctionBuilder;
use autophase_ir::verify::verify_module;
use autophase_ir::{BinOp, Module, Type, Value};
use autophase_passes::registry::{apply, pass_name};
use autophase_passes::PassId;
use std::time::{Duration, Instant};

const N: usize = 250;
/// Loops in the small input of the loop-count shape.
const K: usize = 25;
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
/// are equally exposed to scheduler noise.) The copies share nothing: a
/// clone shares its functions with `module`, so an analysis of one copy's
/// function would serve the next copy's too, and the first pass of a
/// sample would not pay for it.
fn best_of_5(module: &Module, pass: PassId, runs: u32) -> Duration {
    (0..5)
        .map(|_| {
            let mut copies: Vec<Module> = (0..runs).map(|_| module.deep_clone()).collect();
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

/// `loops` counted loops in a row, each adding its induction variable
/// into one slot four times, then `-loop-simplify`.
fn loop_chain(loops: usize) -> Module {
    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let slot = b.alloca(Type::I32, 1);
    b.store(slot, b.arg(0));
    for _ in 0..loops {
        b.counted_loop(Value::i32(4), |b, i| {
            let x = b.load(Type::I32, slot);
            let y = b.binary(BinOp::Add, x, i);
            b.store(slot, y);
        });
    }
    let r = b.load(Type::I32, slot);
    b.ret(Some(r));
    let mut m = Module::new("loops");
    m.add_function(b.finish());
    apply(&mut m, 29); // -loop-simplify
    m
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: run in release (make perf-smoke)"
)]
fn loop_drivers_scale_linearly_with_loop_count() {
    // Each pass gets the chain in the form it has work on: rotation wants
    // the canonical top-tested loops, unrolling the rotated single-block
    // ones, and -simplifycfg removes the forwarding block -loop-simplify
    // leaves between two loops.
    let rotated = |m: &Module| {
        let mut m = m.deep_clone();
        assert!(apply(&mut m, 23), "-loop-rotate found nothing to do");
        m
    };
    let inputs = |loops: usize| {
        let canonical = loop_chain(loops);
        [
            (23, canonical.deep_clone()), // -loop-rotate
            (33, rotated(&canonical)),    // -loop-unroll
            (31, canonical),              // -simplifycfg
        ]
    };
    for ((pass, small), (_, large)) in inputs(K).into_iter().zip(inputs(4 * K)) {
        let ratio = (0..3)
            .map(|_| {
                let (t1, t4) = (best_of_5(&small, pass, 4), best_of_5(&large, pass, 1));
                let ratio = t4.as_secs_f64() / t1.as_secs_f64();
                println!(
                    "{:14} k={K}: {t1:?}  4k: {t4:?}  ratio {ratio:.1}",
                    pass_name(pass)
                );
                ratio
            })
            .find(|&ratio| ratio < 8.0);
        assert!(
            ratio.is_some(),
            "{} took 8x or longer on 4x the loops, three times: not linear",
            pass_name(pass)
        );
    }
}
