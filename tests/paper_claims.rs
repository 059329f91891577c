//! Shape-level checks of the paper's qualitative claims, on our simulated
//! substrate (EXPERIMENTS.md records the quantitative side).

use autophase::core::compile::Input;
use autophase::hls::HlsConfig;
use autophase::ir::Module;

fn cycles(p: &Module, seq: &[usize]) -> u64 {
    Input::new(p, &HlsConfig::default()).cycles(seq)
}

/// §4.2: "-loop-rotate is very helpful and should be included if not
/// applied before" — on mem2reg'd benchmarks, adding -loop-rotate helps.
#[test]
fn loop_rotate_helps_after_mem2reg() {
    let mut helped = 0;
    let mut total = 0;
    for b in autophase::benchmarks::suite() {
        let base = cycles(&b.module, &[38]); // -mem2reg
        let rotated = cycles(&b.module, &[38, 23]); // + -loop-rotate
        total += 1;
        if rotated < base {
            helped += 1;
        }
        assert!(
            rotated <= base,
            "{}: rotate hurt ({} -> {})",
            b.name,
            base,
            rotated
        );
    }
    assert!(helped * 2 >= total, "rotate helped only {helped}/{total}");
}

/// §4.2: "applying pass 33 (-loop-unroll) after pass 23 (-loop-rotate)
/// was much more useful compared to applying these two passes in the
/// opposite order."
#[test]
fn unroll_after_rotate_beats_opposite_order() {
    let mut rotate_first_better = 0;
    let mut opposite_better = 0;
    for b in autophase::benchmarks::suite() {
        let ru = cycles(&b.module, &[38, 29, 23, 33]); // rotate then unroll
        let ur = cycles(&b.module, &[38, 29, 33, 23]); // unroll then rotate
        if ru < ur {
            rotate_first_better += 1;
        } else if ur < ru {
            opposite_better += 1;
        }
    }
    assert!(
        rotate_first_better > opposite_better,
        "rotate→unroll better on {rotate_first_better}, opposite on {opposite_better}"
    );
}

/// §2.1/§6.1: the Figure-1/2/3 interaction — inlining plus
/// -functionattrs lets LICM hoist a pure helper call out of a loop.
#[test]
fn inline_enables_licm_on_call_heavy_code() {
    use autophase::ir::builder::FunctionBuilder;
    use autophase::ir::{BinOp, Type, Value};
    // The paper's norm(): a loop calling a pure helper with loop-invariant
    // arguments.
    let mut m = Module::new("norm_example");
    let mag = {
        let mut b = FunctionBuilder::new("mag", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let sq = b.binary(BinOp::Mul, i, i);
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, sq);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        m.add_function(b.finish())
    };
    let mut b = FunctionBuilder::new("main", vec![], Type::I32);
    let out = b.alloca(Type::I32, 16);
    b.counted_loop(Value::i32(16), |b, i| {
        let denom = b.call(mag, Type::I32, vec![Value::i32(16)]); // invariant!
        let scaled = b.binary(BinOp::Mul, i, Value::i32(1000));
        let v = b.binary(BinOp::SDiv, scaled, denom);
        let p = b.gep(out, i);
        b.store(p, v);
    });
    let acc = b.alloca(Type::I32, 1);
    b.store(acc, Value::i32(0));
    b.counted_loop(Value::i32(16), |b, i| {
        let p = b.gep(out, i);
        let v = b.load(Type::I32, p);
        let c = b.load(Type::I32, acc);
        let n = b.binary(BinOp::Add, c, v);
        b.store(acc, n);
    });
    let r = b.load(Type::I32, acc);
    b.ret(Some(r));
    m.add_function(b.finish());

    let mut input = Input::new(&m, &HlsConfig::default());
    let baseline = input.cycles(&[]);
    // functionattrs (19) marks mag readnone → licm (36) hoists the call
    // (after loop-simplify 29).
    let licm_only = input.cycles(&[29, 36]);
    let attrs_then_licm = input.cycles(&[19, 29, 36]);
    assert!(
        attrs_then_licm < baseline,
        "attrs+licm must beat baseline: {attrs_then_licm} vs {baseline}"
    );
    assert!(
        attrs_then_licm < licm_only,
        "licm without functionattrs cannot hoist the call: {attrs_then_licm} vs {licm_only}"
    );
}

/// §3.2: the profiler tracks the frequency constraint — lower target
/// frequencies yield equal-or-better cycle counts (more chaining).
#[test]
fn lower_frequency_never_increases_cycles() {
    use autophase::hls::profile::profile_module;
    for b in autophase::benchmarks::suite() {
        let at200 = profile_module(&b.module, &HlsConfig::at_frequency_mhz(200.0))
            .unwrap()
            .cycles;
        let at100 = profile_module(&b.module, &HlsConfig::at_frequency_mhz(100.0))
            .unwrap()
            .cycles;
        assert!(
            at100 <= at200,
            "{}: 100 MHz ({at100}) worse than 200 MHz ({at200})",
            b.name
        );
    }
}

/// §5.1: the search space is enormous — sanity-check the arithmetic the
/// paper quotes (2^247 ≈ 45^45 orderings for 45 passes of length 45).
#[test]
fn search_space_matches_paper_math() {
    let bits = 45.0f64.log2() * 45.0;
    assert!(bits > 247.0 && bits < 248.0, "45^45 = 2^{bits:.1}");
}

/// Table 1 / Table 2 cardinalities.
#[test]
fn action_and_feature_spaces_match_paper() {
    assert_eq!(autophase::passes::registry::NUM_PASSES, 45);
    assert_eq!(autophase::passes::registry::PASS_NAMES.len(), 46); // + -terminate
    assert_eq!(autophase::features::NUM_FEATURES, 56);
}

/// `-O0` vs `-O3`: the paper's Figure 7 shows -O0 at −23%; ours must at
/// least be distinctly negative across the suite.
#[test]
fn o0_is_markedly_worse_than_o3() {
    use autophase::passes::o3::O3_SEQUENCE;
    let hls = HlsConfig::default();
    let mut total = 0.0;
    let suite = autophase::benchmarks::suite();
    let n = suite.len() as f64;
    for b in suite {
        let mut input = Input::new(&b.module, &hls);
        let o0 = input.o0_cycles() as f64;
        let o3 = input.cycles(O3_SEQUENCE) as f64;
        total += (o3 - o0) / o3;
    }
    let mean = total / n;
    assert!(mean < -0.15, "O0 only {:.1}% worse than O3", mean * 100.0);
}
