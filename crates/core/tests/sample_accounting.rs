//! One sample rule (DESIGN.md §4b): a sample is one profiler run on a
//! distinct module, for every row of Figure 7.
//!
//! `compile::Input` keeps a profile memo keyed by module content, so an
//! ordering scored twice, or an ordering padded with a pass that changes
//! nothing, costs no second sample; a module the profiler cannot run is
//! never cached and costs one on every call. `run_algorithm` reports what
//! each row's own `Input` counted, so no row can spend more samples than
//! it made objective evaluations.

use autophase_core::algorithms::{run_algorithm, Algorithm, Budget};
use autophase_core::compile::{Input, UNPROFILEABLE_CYCLES};
use autophase_hls::HlsConfig;
use autophase_ir::builder::FunctionBuilder;
use autophase_ir::{BinOp, Module, Type, Value};

fn gsm() -> Module {
    autophase_benchmarks::suite()
        .into_iter()
        .find(|b| b.name == "gsm")
        .unwrap()
        .module
}

/// `-mem2reg`, `-loop-rotate`, `-gvn`, `-instcombine`: each changes gsm.
const ORDERING: [usize; 4] = [38, 23, 31, 30];

/// Table-1 index of `-strip`, one of the passes that never change this
/// IR (DESIGN.md §4b, "No-op passes are kept").
const STRIP: usize = 3;

#[test]
fn one_ordering_scored_twice_costs_one_sample() {
    let (program, hls) = (gsm(), HlsConfig::default());
    let input = Input::new(&program, &hls);
    assert_eq!(input.samples(), 0, "profiling the input is not a sample");
    let first = input.cycles(&ORDERING);
    assert_eq!(input.samples(), 1);
    assert_eq!(input.cycles(&ORDERING), first);
    assert_eq!(input.samples(), 1, "the repeat is a memo hit");
    assert_ne!(input.cycles(&ORDERING[1..]), first, "-mem2reg matters");
    assert_eq!(input.samples(), 2, "another module is another sample");
}

#[test]
fn a_no_op_pass_builds_the_same_module_and_costs_nothing() {
    let (program, hls) = (gsm(), HlsConfig::default());
    let input = Input::new(&program, &hls);
    let plain = input.cycles(&ORDERING);
    let padded = [ORDERING[0], ORDERING[1], STRIP, ORDERING[2], ORDERING[3]];
    let (_, applied, cycles) = input.compile(&padded, &Default::default());
    assert!(!applied.contains(&STRIP), "-strip changed gsm");
    assert_eq!(cycles, plain);
    assert_eq!(input.samples(), 1);
}

#[test]
fn an_unprofileable_module_is_charged_on_every_call() {
    // `main` spins forever: the profiler runs out of fuel every time, and
    // a failed profile is never cached.
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let spin = b.new_block();
    b.br(spin);
    b.switch_to(spin);
    let _ = b.binary(BinOp::Add, Value::i32(1), Value::i32(1));
    b.br(spin);
    let mut program = Module::new("spin");
    program.add_function(b.finish());
    let hls = HlsConfig {
        profile_fuel: 10_000,
        ..HlsConfig::default()
    };
    let input = Input::new(&program, &hls);
    for calls in 1..=3 {
        assert_eq!(input.cycles(&[]), UNPROFILEABLE_CYCLES);
        assert_eq!(input.samples(), calls);
    }
}

/// 14a's gate: at `Budget::tiny()` every search row and RL-PPO3 spends
/// between one sample and its evaluation budget, and -O0 and -O3 read one
/// by the same rule.
#[test]
fn no_row_spends_more_samples_than_evaluations() {
    let (program, hls, budget) = (gsm(), HlsConfig::default(), Budget::tiny());
    // RL-PPO3 compiles 1 + iterations × 3 episodes × (1 reset + 24 steps).
    let multi = 1 + budget.multi_iterations as u64 * 3 * (1 + 24);
    for (algorithm, evaluations) in [
        (Algorithm::O0, 1),
        (Algorithm::O3, 1),
        (Algorithm::Greedy, budget.greedy_budget),
        (Algorithm::RlPpo3, multi),
        (Algorithm::OpenTuner, budget.opentuner_budget),
        (Algorithm::GeneticDeap, budget.genetic_budget),
        (Algorithm::Random, budget.random_budget),
    ] {
        let r = run_algorithm(algorithm, &program, &budget, &hls, 3);
        assert!(
            (1..=evaluations).contains(&r.samples),
            "{}: {} samples for {evaluations} evaluations",
            algorithm.name(),
            r.samples
        );
    }
}
