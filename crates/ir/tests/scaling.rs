//! Scaling guard: the text layer must stay linear in the length of a text.
//!
//! The text is one module whose `main` repeats N times a run of loads,
//! arithmetic, a comparison, a select, a call and a store, split into
//! blocks joined by phis, at N and at 4N. Parsing it and printing the
//! result takes ~4x as long on the longer text when both are linear; the
//! bound of 8 (as in `passes/tests/scaling.rs`: best-of-5 times, three
//! attempts) catches anything that grows with the square of a function's
//! lines, blocks or instructions.
//!
//! A timing test: release builds only, run by `make perf-smoke`.

use autophase_ir::builder::FunctionBuilder;
use autophase_ir::parser::parse_module;
use autophase_ir::printer::print_module;
use autophase_ir::{BinOp, CmpPred, FuncId, Module, Type, Value};
use std::time::{Duration, Instant};

const N: usize = 250;

fn long_text(reps: usize) -> String {
    let mut m = Module::new("scaling");
    let mut b = FunctionBuilder::new("helper", vec![Type::I32, Type::I32], Type::I32);
    let s = b.binary(BinOp::Mul, b.arg(0), b.arg(1));
    b.ret(Some(s));
    let helper: FuncId = m.add_function(b.finish());

    let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
    let slot = b.alloca(Type::I32, 4);
    b.store(slot, Value::i32(1));
    let mut acc = b.arg(0);
    for i in 0..reps {
        let x = b.load(Type::I32, slot);
        let y = b.binary(BinOp::Add, x, Value::i32(i as i32));
        let c = b.icmp(CmpPred::Slt, y, acc);
        let z = b.select(c, y, Value::i32(-7));
        let w = b.call(helper, Type::I32, vec![z, acc]);
        b.store(slot, w);
        let (from, next) = (b.new_block(), b.new_block());
        b.cond_br(c, from, next);
        b.switch_to(from);
        b.br(next);
        b.switch_to(next);
        acc = b.phi(Type::I32, vec![(from, w)]);
    }
    b.ret(Some(acc));
    m.add_function(b.finish());
    print_module(&m)
}

/// Best of five samples, each parsing and re-printing `text` `runs` times
/// and reporting the time per run.
fn best_of_5(text: &str, runs: u32) -> Duration {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..runs {
                let m = parse_module(text).expect("the printed text parses");
                std::hint::black_box(print_module(&m));
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
fn parse_and_print_scale_linearly_with_text_length() {
    let (short, long) = (long_text(N), long_text(4 * N));
    assert_eq!(print_module(&parse_module(&long).unwrap()), long);
    let ratio = (0..3)
        .map(|_| {
            let (t1, t4) = (best_of_5(&short, 4), best_of_5(&long, 1));
            let ratio = t4.as_secs_f64() / t1.as_secs_f64();
            println!(
                "parse+print {} bytes: {t1:?}  {} bytes: {t4:?}  ratio {ratio:.1}",
                short.len(),
                long.len()
            );
            ratio
        })
        .find(|&ratio| ratio < 8.0);
    assert!(
        ratio.is_some(),
        "parse+print took 8x or longer on a 4x longer text, three times: not linear"
    );
}
