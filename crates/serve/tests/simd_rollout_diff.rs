//! The independent oracle for the one step.
//!
//! The daemon's rollout and the trainer's environment run one
//! implementation of the step — action table, observation recipe, apply
//! → resync (`autophase_core::step`). With one product implementation
//! left, a from-scratch reference is the only thing that can still
//! disagree with it, so this file keeps one and walks every program
//! three ways:
//!
//! 1. **the engine** — `InferenceEngine::choose_sequence_report`: the shared
//!    step under the daemon's driver, SoA SIMD forwards
//!    (`SoaMlp::forward_one`), features resynced incrementally from each
//!    apply's `ChangeSet`;
//! 2. **the scalar reference** below — written against nothing but the
//!    public tables: its own `FILTERED_PASSES[action]` lookup, its own
//!    `inst_count_filtered(extract(m)) ⊕ histogram` observation rebuilt
//!    by a full extraction after every changing pass, direct
//!    `Mlp::forward` (the deliberately scalar AoS kernel), its own
//!    first-maximum loop, plain `apply_checked`;
//! 3. **the trainer's environment** — `serve_env` driven through
//!    `Environment::step` with the shared `argmax`: the same step under
//!    the other driver (fingerprints, memos and reward around it).
//!
//! All three must pick the **same pass at every step** on every corpus
//! program — greedy argmax over bit-identical logits (tolerance is
//! zero; see `crates/nn/src/simd.rs`) over identical observations. The
//! assertions are on the applied sequence *and* the final module text,
//! and for the environment on every observation bit the engine recorded
//! (`RolloutReport::steps`), so a divergence anywhere in the 12-step
//! episode fails loudly. Train/serve skew is exactly a disagreement
//! between walkers 1 and 3; a wrong shared step is one between either
//! and walker 2.

use autophase_core::env::FILTERED_PASSES;
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::Quarantine;
use autophase_features::{extract, inst_count_filtered};
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_nn::mlp::Mlp;
use autophase_passes::checked::{apply_checked, FuelBudget};
use autophase_rl::env::Environment;
use autophase_rl::rollout::argmax;
use autophase_serve::engine::{
    serve_env, serve_num_actions, serve_obs_dim, EngineConfig, InferenceEngine, SERVE_EPISODE_LEN,
};
use proptest::prelude::*;

fn test_policy(seed: u64) -> Mlp {
    Mlp::new(&[serve_obs_dim(), 24, serve_num_actions()], seed)
}

/// The pre-SIMD serving rollout, reproduced verbatim: full extraction
/// per changed module, one scalar forward per step, same quarantine
/// masking and transactional applies.
fn reference_rollout(
    policy: &Mlp,
    m: &mut Module,
    fp: u64,
    quarantine: &Quarantine,
    fuel: &FuelBudget,
) -> Vec<usize> {
    let mut histogram = vec![0.0f64; serve_num_actions()];
    let mut feats = inst_count_filtered(&extract(m));
    let mut applied = Vec::new();
    for _ in 0..SERVE_EPISODE_LEN {
        let mut obs = feats.clone();
        obs.extend_from_slice(&histogram);
        let logits = policy.forward(&obs);
        let mut best: Option<(usize, f64)> = None;
        for (a, &score) in logits.iter().enumerate() {
            if quarantine.is_quarantined(fp, FILTERED_PASSES[a]) {
                continue;
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((a, score));
            }
        }
        let Some((action, _)) = best else { break };
        let pass = FILTERED_PASSES[action];
        match apply_checked(m, pass, fuel) {
            Ok(true) => {
                applied.push(pass);
                feats = inst_count_filtered(&extract(m));
            }
            Ok(false) => {}
            Err(_) => {
                quarantine.record_fault(fp, pass);
            }
        }
        histogram[action] += 1.0;
    }
    applied
}

/// Run both rollouts on a fresh copy of `program` and assert they chose
/// the same ordering and produced the same module.
fn assert_rollouts_agree(engine: &InferenceEngine, policy: &Mlp, program: &Module, label: &str) {
    let fuel = FuelBudget::default();
    let fp = fingerprint_module(program);

    let mut simd_m = program.clone();
    let simd_seq = engine
        .choose_sequence_report(&mut simd_m, fp, &Quarantine::default(), &fuel)
        .expect("no faults injected")
        .applied;

    let mut ref_m = program.clone();
    let ref_seq = reference_rollout(policy, &mut ref_m, fp, &Quarantine::default(), &fuel);

    assert_eq!(
        simd_seq, ref_seq,
        "{label}: batched rollout chose a different ordering"
    );
    assert_eq!(
        print_module(&simd_m),
        print_module(&ref_m),
        "{label}: same ordering, different module"
    );

    // Third walker: the environment a served policy trains on, stepped
    // with the scalar forward and the shared argmax, against everything
    // the engine recorded about its own rollout.
    let report = engine
        .choose_sequence_report(&mut program.clone(), fp, &Quarantine::default(), &fuel)
        .expect("no faults injected");
    assert_eq!(
        report.applied, simd_seq,
        "{label}: the engine is deterministic"
    );
    assert_eq!(report.steps.len(), SERVE_EPISODE_LEN);
    let mut env = serve_env(vec![program.clone()]);
    let mut obs = env.reset();
    let mut env_seq = Vec::new();
    for (i, served) in report.steps.iter().enumerate() {
        let bits = |o: &[f64]| o.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&obs),
            bits(&served.obs),
            "{label}: step {i}: training and serving observe differently"
        );
        let action = argmax(&policy.forward(&obs));
        assert_eq!(action, served.action, "{label}: step {i}: different action");
        let before = fingerprint_module(env.module());
        obs = env.step(action).observation;
        if fingerprint_module(env.module()) != before {
            env_seq.push(env.action_passes()[action]);
        }
    }
    assert_eq!(
        env_seq, simd_seq,
        "{label}: the environment's effective ordering differs"
    );
    assert_eq!(
        print_module(env.module()),
        print_module(&simd_m),
        "{label}: same actions, different module"
    );
}

#[test]
fn batched_rollout_matches_scalar_reference_on_curated_suite() {
    let policy = test_policy(11);
    let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
    for b in autophase_benchmarks::suite() {
        assert_rollouts_agree(&engine, &policy, &b.module, b.name);
    }
}

#[test]
fn batched_rollout_matches_scalar_reference_on_seeded_corpus() {
    use autophase_corpus::{build_corpus, CorpusConfig};
    let corpus = build_corpus(&CorpusConfig {
        target: 16,
        workers: 2,
        ..CorpusConfig::default()
    });
    // Two distinct policies: decisions must agree under any weights, not
    // just one lucky initialization.
    for policy_seed in [7u64, 40] {
        let policy = test_policy(policy_seed);
        let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
        for (i, p) in corpus.programs.iter().enumerate() {
            assert_rollouts_agree(
                &engine,
                &policy,
                &p.module,
                &format!("seed{policy_seed}/p{i}"),
            );
        }
    }
}

/// The probe that showed the daemon's loop and `PhaseOrderEnv::step` were
/// already one function before they shared code, kept: three policies ×
/// (CHStone + 64 corpus programs) = 219 (policy, program) pairs.
#[test]
fn three_walkers_agree_on_219_policy_program_pairs() {
    use autophase_corpus::{build_corpus, CorpusConfig};
    let mut programs: Vec<(String, Module)> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.module))
        .collect();
    let corpus = build_corpus(&CorpusConfig {
        target: 64,
        workers: 2,
        ..CorpusConfig::default()
    });
    programs.extend(
        corpus
            .programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("p{i}"), p.module)),
    );
    let policy_seeds = [3u64, 17, 91];
    assert_eq!(policy_seeds.len() * programs.len(), 219);
    for policy_seed in policy_seeds {
        let policy = test_policy(policy_seed);
        let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
        for (name, module) in &programs {
            assert_rollouts_agree(
                &engine,
                &policy,
                module,
                &format!("seed{policy_seed}/{name}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// Random policy weights over a fixed mini-corpus: greedy decisions
    /// stay identical scalar vs SIMD for arbitrary networks.
    #[test]
    fn prop_decisions_identical_for_random_policies(seed in 0u64..1_000_000) {
        let policy = test_policy(seed);
        let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
        for b in autophase_benchmarks::suite().into_iter().take(3) {
            assert_rollouts_agree(&engine, &policy, &b.module, b.name);
        }
    }
}
