//! Scaling guard: scheduling a block must stay linear in its size.
//!
//! The scheduled block is N independent loads, each read by an add, at N
//! and at 4N. A linear scheduler takes ~4x as long on the larger block; one
//! that looks for the users of each multi-cycle op by rescanning the whole
//! block (every load is multi-cycle) takes ~16x. The bound of 8 sits
//! between the two, as in `passes/tests/scaling.rs`: best-of-5 times, three
//! attempts, so neither the larger input's cache misses nor a burst of
//! host noise can cross it.
//!
//! A timing test: release builds only, run by `make perf-smoke`.

use autophase_hls::{schedule_block, HlsConfig};
use autophase_ir::builder::FunctionBuilder;
use autophase_ir::{BinOp, Function, Type, Value};
use std::time::{Duration, Instant};

const N: usize = 300;

/// `loads` loads from consecutive addresses, summed.
fn load_block(loads: usize) -> Function {
    let mut b = FunctionBuilder::new("main", vec![Type::Ptr], Type::I32);
    let mut acc = Value::i32(0);
    for i in 0..loads {
        let p = b.gep(b.arg(0), Value::i32(i as i32));
        let v = b.load(Type::I32, p);
        acc = b.binary(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    b.finish()
}

/// Best of five samples, each scheduling the block `runs` times and
/// reporting the time per run.
fn best_of_5(f: &Function, runs: u32) -> Duration {
    let cfg = HlsConfig::default();
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..runs {
                std::hint::black_box(schedule_block(f, f.entry, &cfg));
            }
            t.elapsed() / runs
        })
        .min()
        .expect("five samples")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: run in release (make perf-smoke)"
)]
fn scheduling_scales_linearly_with_block_size() {
    let (small, large) = (load_block(N), load_block(4 * N));
    let ratio = (0..3)
        .map(|_| {
            let (t1, t4) = (best_of_5(&small, 4), best_of_5(&large, 1));
            let ratio = t4.as_secs_f64() / t1.as_secs_f64();
            println!("schedule_block N={N} loads: {t1:?}  4N: {t4:?}  ratio {ratio:.1}");
            ratio
        })
        .find(|&ratio| ratio < 8.0);
    assert!(
        ratio.is_some(),
        "scheduling took 8x or longer on 4x the loads, three times: not linear"
    );
}
