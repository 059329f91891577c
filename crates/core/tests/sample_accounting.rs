//! One sample rule (DESIGN.md §4b): a sample is one profiler run on a
//! distinct module, counted at one site — `compile::Input`'s miss path —
//! for every row of Figure 7.
//!
//! An `Input` keeps a profile memo keyed by module content, so an ordering
//! scored twice, or an ordering padded with a pass that changes nothing,
//! costs no second sample; a module the profiler cannot run is never
//! cached and costs one on every call. The program's own profile is the
//! input's first sample. `run_algorithm` reports what each row's own
//! `Input` counted and the curve it drew, so no row can spend more samples
//! than it made objective evaluations, and every row's result is the last
//! point of its curve.

use autophase_core::algorithms::{run_algorithm, Algorithm, Budget};
use autophase_core::compile::{Input, UNPROFILEABLE_CYCLES};
use autophase_core::env::{EnvConfig, PhaseOrderEnv};
use autophase_core::EvalCache;
use autophase_hls::HlsConfig;
use autophase_ir::builder::FunctionBuilder;
use autophase_ir::{BinOp, Module, Type, Value};
use autophase_passes::o3::O3_SEQUENCE;
use autophase_rl::env::Environment;
use std::sync::Arc;

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
    let mut input = Input::new(&program, &hls);
    assert_eq!(input.samples(), 1, "the program's own profile");
    let first = input.cycles(&ORDERING);
    assert_eq!(input.samples(), 2);
    assert_eq!(input.cycles(&ORDERING), first);
    assert_eq!(input.samples(), 2, "the repeat is a memo hit");
    assert_ne!(input.cycles(&ORDERING[1..]), first, "-mem2reg matters");
    assert_eq!(input.samples(), 3, "another module is another sample");
    assert_eq!(input.cycles(&[]), input.o0_cycles());
    assert_eq!(input.samples(), 3, "the program itself is a memo hit");
}

#[test]
fn a_no_op_pass_builds_the_same_module_and_costs_nothing() {
    let (program, hls) = (gsm(), HlsConfig::default());
    let mut input = Input::new(&program, &hls);
    let plain = input.cycles(&ORDERING);
    let padded = [ORDERING[0], ORDERING[1], STRIP, ORDERING[2], ORDERING[3]];
    let (_, applied, cycles) = input.compile(&padded, &Default::default());
    assert!(!applied.contains(&STRIP), "-strip changed gsm");
    assert_eq!(cycles, plain);
    assert_eq!(input.samples(), 2, "the program and one module");
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
    let mut input = Input::new(&program, &hls);
    assert_eq!(input.samples(), 1, "the failed profile of the program");
    for calls in 1..=3 {
        assert_eq!(input.cycles(&[]), UNPROFILEABLE_CYCLES);
        assert_eq!(input.samples(), 1 + calls);
    }
    assert!(input.curve().is_empty(), "nothing scored");
}

/// gsm's reference input and its `-O3` cycles.
fn reference() -> (Input, u64) {
    let mut input = Input::new(&gsm(), &HlsConfig::default());
    let o3 = input.cycles(O3_SEQUENCE);
    (input, o3)
}

/// 14a's gate: at `Budget::tiny()` every search row and RL-PPO3 spends
/// between one sample and its evaluation budget, and -O0 and -O3 read one
/// by the same rule. The reference's own profile is charged to no row.
#[test]
fn no_row_spends_more_samples_than_evaluations() {
    let ((reference, o3), budget) = (reference(), Budget::tiny());
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
        let r = run_algorithm(algorithm, &reference, o3, &budget, 3);
        assert!(
            (1..=evaluations).contains(&r.samples),
            "{}: {} samples for {evaluations} evaluations",
            algorithm.name(),
            r.samples
        );
    }
}

/// Every row's curve comes from the one counter: its samples strictly
/// rise, its scores strictly fall, its last score is the row's result and
/// its last sample is within the row's samples.
#[test]
fn every_row_draws_its_curve_from_the_one_counter() {
    let ((reference, o3), budget) = (reference(), Budget::tiny());
    for algorithm in Algorithm::ALL {
        let r = run_algorithm(algorithm, &reference, o3, &budget, 3);
        let name = algorithm.name();
        assert!(
            r.curve
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 > w[1].1),
            "{name}: {:?}",
            r.curve
        );
        let &(last_sample, last_score) = r.curve.last().expect("a row scores something");
        assert_eq!(last_score, r.cycles, "{name}: {:?}", r.curve);
        assert!(
            last_sample <= r.samples,
            "{name}: {:?} of {}",
            r.curve,
            r.samples
        );
    }
    assert_eq!(reference.samples(), 2, "the program and -O3, once");
}

/// An environment's samples are its input's count — every profile it
/// asks for, its resets' included, goes through that one miss path — and
/// the input's curve ends at the best state the environment reached.
#[test]
fn an_env_counts_through_its_input() {
    let cache = Arc::new(EvalCache::default());
    let cfg = EnvConfig {
        episode_len: ORDERING.len() + 1,
        ..EnvConfig::default()
    };
    let mut env = PhaseOrderEnv::with_cache(vec![gsm()], cfg, Arc::clone(&cache));
    assert!(env.input(0).is_none(), "built at the first episode");
    let mut best = u64::MAX;
    for episode in 0..3 {
        env.reset();
        best = best.min(env.last_cycles());
        // The last episode ends on a pass the others did not take.
        let last = if episode == 2 { STRIP } else { ORDERING[0] };
        for &a in ORDERING.iter().chain([&last]) {
            env.step(a);
            best = best.min(env.last_cycles());
        }
    }
    let input = env.input(0).expect("three episodes ran");
    assert_eq!(env.samples(), input.samples());
    assert_eq!(env.samples(), cache.stats().misses);
    assert_eq!(input.curve().last().map(|p| p.1), Some(best));
}
