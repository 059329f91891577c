//! Chaos suite: full evaluations driven through deterministic injected
//! faults (`make chaos` runs it in release).
//!
//! The fault-isolation contract this suite pins down end to end:
//!
//! 1. **Rollback** — a faulted pass application (panic, IR corruption,
//!    fuel exhaustion) restores the verified pre-pass module and scores
//!    as a zero-reward no-op.
//! 2. **Survival** — a full PPO training run completes through a plan
//!    injecting faults into several distinct passes, and the
//!    `pass_fault_total` / `rollback_total` telemetry counters record
//!    every isolated fault.
//! 3. **Containment** — faults scoped to specific episodes leave every
//!    *other* episode bit-identical to a fault-free run, at any worker
//!    count, because injection is keyed to per-episode apply counters
//!    (never to thread scheduling or cache warmth).
//! 4. **Quarantine** — a chronic offender crosses the shared quarantine
//!    threshold mid-run and is masked out of the action space for that
//!    program, after which it can no longer fault.
//! 5. **Wrong results** — a pass whose module verifies but returns another
//!    result (`FaultKind::WrongResult`) is caught by the one scoring rule
//!    wherever a module is scored: the env step rolls back unpaid and
//!    counts it, `compile` scores it `UNPROFILEABLE_CYCLES`, and the
//!    daemon serves and stores the input's own answer instead.
//!
//! The fault plan is process-global, so every test here holds
//! [`telemetry::test_guard`] for its full duration.

use autophase::core::compile::{Input, UNPROFILEABLE_CYCLES};
use autophase::core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase::core::Quarantine;
use autophase::features::extract;
use autophase::hls::HlsConfig;
use autophase::ir::fingerprint::fingerprint_module;
use autophase::ir::printer::print_module;
use autophase::ir::verify::verify_module;
use autophase::ir::Module;
use autophase::passes::checked::FaultKind;
use autophase::passes::fault::{self, FaultPlan, FaultSpec};
use autophase::passes::registry::{self, NUM_PASSES};
use autophase::passes::FuelBudget;
use autophase::progen::{program_batch, GenConfig};
use autophase::rl::env::Environment;
use autophase::rl::ppo::{PpoAgent, PpoConfig};
use autophase::rl::rollout::{self, Batch};
use autophase::telemetry;
use std::sync::Arc;

const EPISODE_LEN: usize = 8;

fn programs() -> Vec<Module> {
    program_batch(&GenConfig::default(), 77, 2)
}

fn env_config() -> EnvConfig {
    EnvConfig {
        observation: ObservationKind::Combined,
        feature_norm: FeatureNorm::InstCount,
        reward: RewardKind::Log,
        episode_len: EPISODE_LEN,
        filtered: true,
        ..EnvConfig::default()
    }
}

fn assert_batches_identical(a: &Batch, b: &Batch, what: &str) {
    assert_eq!(a.episode_returns, b.episode_returns, "{what}: returns");
    assert_eq!(a.transitions.len(), b.transitions.len(), "{what}: length");
    for (i, (x, y)) in a.transitions.iter().zip(&b.transitions).enumerate() {
        assert_eq!(x.obs, y.obs, "{what}: obs of transition {i}");
        assert_eq!(x.action, y.action, "{what}: action of transition {i}");
        assert_eq!(x.reward, y.reward, "{what}: reward of transition {i}");
        assert_eq!(x.logp, y.logp, "{what}: logp of transition {i}");
        assert_eq!(x.value, y.value, "{what}: value of transition {i}");
        assert_eq!(x.done, y.done, "{what}: done of transition {i}");
    }
}

/// A seeded plan across three distinct passes and all three fault kinds:
/// every faulted apply must restore the exact verified pre-pass module.
#[test]
fn seeded_faults_roll_back_to_verified_prepass_modules() {
    let _g = telemetry::test_guard();
    telemetry::quiet_panic_hook();
    // Any-context specs (episodes = 0): nth ∈ 1..=3 per pass, kinds
    // cycling Panic / CorruptIr / ExhaustFuel — all from one seed.
    let plan = fault::PLAN.install(FaultPlan::seeded(0xC0FFEE, &[38, 25, 31], 0));
    assert_eq!(plan.specs().len(), 3);
    let program = programs().remove(0);

    for spec in plan.specs() {
        // Default config: action index == Table-1 pass id.
        let mut env = PhaseOrderEnv::single(program.clone(), EnvConfig::default());
        env.reset();
        // Shadow the env with unchecked applies up to the planned fault.
        let mut shadow = program.clone();
        for _ in 1..spec.nth {
            env.step(spec.pass);
            registry::apply(&mut shadow, spec.pass);
        }
        let before = print_module(&shadow);
        let r = env.step(spec.pass);
        assert_eq!(
            r.reward,
            0.0,
            "faulted {} apply #{} must score zero",
            registry::pass_name(spec.pass),
            spec.nth
        );
        assert_eq!(
            print_module(env.module()),
            before,
            "faulted {} apply #{} must roll back",
            registry::pass_name(spec.pass),
            spec.nth
        );
        verify_module(env.module()).unwrap();
    }
    assert_eq!(plan.fired(), 3, "every planned fault must have fired");
    fault::PLAN.clear();
}

/// A full parallel PPO run completes through always-armed faults on three
/// distinct passes, telemetry counts every isolated fault, and the shared
/// quarantine masks offenders mid-run.
#[test]
fn ppo_training_survives_injected_faults_and_quarantines_offenders() {
    let _g = telemetry::test_guard();
    telemetry::quiet_panic_hook();
    // nth=1, any episode: the first apply of each target pass faults in
    // *every* episode (until quarantined).
    const KINDS: [FaultKind; 3] = [
        FaultKind::Panic,
        FaultKind::CorruptIr,
        FaultKind::ExhaustFuel,
    ];
    let specs = [38usize, 31, 30]
        .iter()
        .zip(KINDS)
        .map(|(&pass, kind)| FaultSpec {
            pass,
            nth: 1,
            episode: None,
            kind,
        })
        .collect();
    let plan = fault::PLAN.install(FaultPlan::new(specs));

    telemetry::enable();
    telemetry::reset();
    let ps = programs();
    let quarantine = Arc::new(Quarantine::new(1));
    let mut envs: Vec<Box<dyn Environment + Send>> = (0..2)
        .map(|_| {
            let mut e = PhaseOrderEnv::new(ps.clone(), env_config());
            e.set_quarantine(Arc::clone(&quarantine));
            Box::new(e) as Box<dyn Environment + Send>
        })
        .collect();
    let ppo_cfg = PpoConfig {
        hidden: vec![16, 16],
        max_episode_len: EPISODE_LEN,
        ..PpoConfig::default()
    };
    let mut agent = PpoAgent::new(
        envs[0].observation_dim(),
        envs[0].num_actions(),
        &ppo_cfg,
        3,
    );
    let curve = agent.train_parallel(&mut envs, 6, 2);

    assert_eq!(curve.len(), 2, "both PPO iterations must complete");
    assert!(
        curve.iter().all(|r| r.is_finite()),
        "reward curve stayed finite: {curve:?}"
    );
    assert!(
        plan.fired() >= 3,
        "expected several faults across the run, got {}",
        plan.fired()
    );
    assert!(
        !quarantine.is_empty(),
        "threshold-1 quarantine must have masked at least one offender"
    );

    let snap = telemetry::snapshot();
    let total = |name: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    };
    assert!(
        total("pass_fault_total") >= plan.fired(),
        "every injected fault is counted"
    );
    assert_eq!(
        total("pass_fault_total"),
        total("rollback_total"),
        "every fault implies exactly one rollback"
    );
    telemetry::disable();
    telemetry::reset();
    fault::PLAN.clear();
}

/// Rollback restores more than the module: the feature decomposition
/// must stay in lock-step with the rolled-back state, and the module's
/// fingerprint — the content-addressed profile memo's key — must come
/// back with it, or every post-fault step would be evaluated against
/// stale caches. No fingerprint state is kept beside the module (each
/// function's hash is a fact of its version), so the fingerprint is
/// checked as a value, not slot by slot.
#[test]
fn rollback_restores_incremental_state_and_caches() {
    let _g = telemetry::test_guard();
    telemetry::quiet_panic_hook();
    let program = programs().remove(0);
    let hls = HlsConfig::default();
    // PREFIX + fault + SUFFIX fills one default-length episode head.
    const PREFIX: [usize; 4] = [38, 23, 33, 30];
    const TARGET: usize = 31;
    const SUFFIX: [usize; 3] = [44, 7, 28];

    // The full sync contract, checked after every probe point: the
    // incremental state must describe exactly the module the env holds.
    let assert_in_sync = |env: &mut PhaseOrderEnv, what: &str| {
        let m = env.module().clone();
        let inc = env.incremental_state();
        assert_eq!(inc.total(), extract(&m), "{what}: feature decomposition");
        m
    };

    for kind in [
        FaultKind::Panic,
        FaultKind::CorruptIr,
        FaultKind::ExhaustFuel,
    ] {
        let plan = fault::PLAN.install(FaultPlan::new(vec![FaultSpec {
            pass: TARGET,
            nth: 1,
            episode: None,
            kind,
        }]));
        let mut env = PhaseOrderEnv::single(program.clone(), EnvConfig::default());
        env.reset();
        for &p in &PREFIX {
            env.step(p);
        }
        let before = print_module(env.module());
        let before_fp = fingerprint_module(env.module());
        let r = env.step(TARGET);
        assert_eq!(plan.fired(), 1, "{kind:?}: the planned fault must fire");
        assert_eq!(r.reward, 0.0, "{kind:?}: faulted apply scores zero");

        let m = assert_in_sync(&mut env, "post-fault");
        assert_eq!(
            print_module(&m),
            before,
            "{kind:?}: module must roll back to the pre-pass state"
        );
        assert_eq!(
            fingerprint_module(&m),
            before_fp,
            "{kind:?}: the profile memo's key comes back with the module"
        );
        // The memoized profile of the restored state must equal a fresh,
        // cache-free profile of the very same module.
        assert_eq!(
            env.cycles(),
            Input::new(&m, &hls).o0_cycles(),
            "{kind:?}: cached cycles of the rolled-back state"
        );

        // The episode continues against the restored state exactly as if
        // the faulted apply had never been attempted.
        fault::PLAN.clear();
        for &p in &SUFFIX {
            env.step(p);
        }
        let end = assert_in_sync(&mut env, "end of faulted episode");
        let mut shadow = PhaseOrderEnv::single(program.clone(), EnvConfig::default());
        shadow.reset();
        for &p in PREFIX.iter().chain(&SUFFIX) {
            shadow.step(p);
        }
        assert_eq!(
            print_module(&end),
            print_module(shadow.module()),
            "{kind:?}: post-fault trajectory must match a fault-free walk"
        );
    }
}

/// Episode-scoped faults are contained: every non-targeted episode stays
/// bit-identical to the fault-free run, and the faulted batches themselves
/// are bit-identical across worker counts.
#[test]
fn non_faulted_episodes_are_bit_identical_at_any_worker_count() {
    let _g = telemetry::test_guard();
    telemetry::quiet_panic_hook();
    fault::PLAN.clear();
    let ps = programs();
    let n_episodes = 6usize;
    let make_env = || PhaseOrderEnv::new(ps.clone(), EnvConfig::default());
    let mut serial = make_env();
    let ppo_cfg = PpoConfig {
        hidden: vec![16, 16],
        max_episode_len: EPISODE_LEN,
        ..PpoConfig::default()
    };
    let agent = PpoAgent::new(serial.observation_dim(), serial.num_actions(), &ppo_cfg, 3);
    let clean = rollout::collect_episodes(
        &mut serial,
        &agent.policy,
        &agent.value,
        n_episodes,
        0,
        EPISODE_LEN,
        41,
    );
    assert_eq!(clean.transitions.len(), n_episodes * EPISODE_LEN);

    // Target episodes 1 and 4 at a step that provably changes the module
    // (nonzero reward in the clean run): the injected fault zeroes that
    // reward, so the targeted trajectories must demonstrably diverge.
    let target_episodes = [1u64, 4];
    let specs = target_episodes
        .iter()
        .zip([FaultKind::Panic, FaultKind::CorruptIr])
        .map(|(&ep, kind)| {
            let lo = ep as usize * EPISODE_LEN;
            let j = (lo..lo + EPISODE_LEN)
                .find(|&j| clean.transitions[j].reward != 0.0)
                .expect("clean episode has a changing step");
            let action = clean.transitions[j].action;
            let nth = (lo..=j)
                .filter(|&k| clean.transitions[k].action == action)
                .count() as u32;
            FaultSpec {
                pass: action, // default config: action index == pass id
                nth,
                episode: Some(ep),
                kind,
            }
        })
        .collect();
    let plan = fault::PLAN.install(FaultPlan::new(specs));

    let mut batches = Vec::new();
    for workers in [1usize, 2, 3] {
        let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
            .map(|_| Box::new(make_env()) as Box<dyn Environment + Send>)
            .collect();
        batches.push(rollout::collect_episodes_parallel(
            &mut envs,
            &agent.policy,
            &agent.value,
            n_episodes,
            0,
            EPISODE_LEN,
            41,
        ));
    }
    assert_eq!(plan.fired(), 2 * 3, "both faults fired in each of 3 runs");
    fault::PLAN.clear();

    for (b, workers) in batches.iter().zip([1usize, 2, 3]).skip(1) {
        assert_batches_identical(&batches[0], b, &format!("{workers} workers vs 1"));
    }
    let faulted = &batches[0];
    for ep in 0..n_episodes as u64 {
        let range = ep as usize * EPISODE_LEN..(ep as usize + 1) * EPISODE_LEN;
        if target_episodes.contains(&ep) {
            assert_ne!(
                &faulted.transitions[range.clone()],
                &clean.transitions[range],
                "episode {ep}: the injected fault must change the trajectory"
            );
        } else {
            assert_eq!(
                faulted.episode_returns[ep as usize], clean.episode_returns[ep as usize],
                "episode {ep}: return must match the fault-free run"
            );
            assert_eq!(
                &faulted.transitions[range.clone()],
                &clean.transitions[range],
                "episode {ep}: non-faulted trajectory must be bit-identical"
            );
        }
    }
}

/// The total of counter `name` across labels in the process registry.
fn counter_total(name: &str) -> u64 {
    telemetry::snapshot()
        .counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .sum()
}

/// An env step whose module no longer returns the program's result is a
/// fault: zero reward, the pre-step module and incremental state back,
/// the offense in the quarantine ledger and in `core.semantic_mismatch`.
#[test]
fn a_wrong_result_step_is_rolled_back_unpaid_and_counted() {
    let _g = telemetry::test_guard();
    telemetry::enable();
    telemetry::reset();
    let program = programs().remove(0);
    let plan = fault::PLAN.install(FaultPlan::new(vec![FaultSpec {
        pass: 38,
        nth: 1,
        episode: Some(9401),
        kind: FaultKind::WrongResult,
    }]));
    let quarantine = Arc::new(Quarantine::new(2));
    let mut env = PhaseOrderEnv::single(program.clone(), EnvConfig::default());
    env.set_quarantine(Arc::clone(&quarantine));
    env.reset_to(9401);
    let before = print_module(env.module());
    let before_fp = fingerprint_module(env.module());
    let r = env.step(38);
    assert_eq!(plan.fired(), 1, "the planned wrong result was injected");
    assert_eq!(r.reward, 0.0, "a wrong result is paid nothing");
    assert_eq!(print_module(env.module()), before, "the step rolled back");
    assert_eq!(fingerprint_module(env.module()), before_fp);
    assert_eq!(env.incremental_state().total(), extract(env.module()));
    assert_eq!(
        env.cycles(),
        Input::new(&program, &HlsConfig::default()).o0_cycles()
    );
    assert_eq!(quarantine.fault_count(fingerprint_module(&program), 38), 1);
    assert_eq!(counter_total("core.semantic_mismatch"), 1);
    // Past the planned fault the same pass applies and pays.
    assert!(env.step(38).reward > 0.0);
    fault::PLAN.clear();
    telemetry::disable();
    telemetry::reset();
}

/// `Input::compile` never scores a module that returns another result.
#[test]
fn compile_scores_a_wrong_result_unprofileable() {
    let _g = telemetry::test_guard();
    let program = programs().remove(0);
    let (fuel, hls) = (FuelBudget::default(), HlsConfig::default());
    let mut input = Input::new(&program, &hls);
    let plan = fault::PLAN.install(FaultPlan::new(vec![FaultSpec {
        pass: 38,
        nth: 1,
        episode: None,
        kind: FaultKind::WrongResult,
    }]));
    fault::set_episode(None);
    let (_, applied, cycles) = input.compile(&[38, 23], &fuel);
    assert_eq!(plan.fired(), 1);
    assert!(
        applied.contains(&38),
        "the wrong module verified: {applied:?}"
    );
    assert_eq!(cycles, UNPROFILEABLE_CYCLES);
    fault::PLAN.clear();
    let (_, _, clean) = input.compile(&[38, 23], &fuel);
    assert!(clean < input.o0_cycles());
}

/// A daemon whose every pass application returns a wrong result answers
/// with the input itself: the policy's answer and -O3's both fail the
/// check, neither is sent back or stored, and `STATS` and `TRACE` name
/// the mismatch.
#[test]
fn a_daemon_never_serves_or_stores_a_wrong_result() {
    use autophase::nn::mlp::Mlp;
    use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
    use autophase_serve::{Client, Server, ServerConfig, Source};
    let _g = telemetry::test_guard();
    telemetry::reset();
    let specs = (0..NUM_PASSES)
        .flat_map(|pass| {
            (1..=64).map(move |nth| FaultSpec {
                pass,
                nth,
                episode: None,
                kind: FaultKind::WrongResult,
            })
        })
        .collect();
    let plan = fault::PLAN.install(FaultPlan::new(specs));
    let store = std::env::temp_dir().join(format!(
        "autophase_chaos_semcheck_{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let policy = Mlp::new(&[serve_obs_dim(), 32, serve_num_actions()], 7);
    let cfg = ServerConfig {
        store_path: store.clone(),
        ..ServerConfig::default()
    };
    let server = Server::start(policy, cfg).expect("server starts");
    let text = print_module(&programs().remove(0));
    let mut client = Client::connect(server.addr()).expect("connect");

    let cold = client.compile(&text, Some(120_000), false).expect("cold");
    assert!(plan.fired() > 0, "the wrong results were injected");
    assert_eq!(cold.source, Source::Baseline);
    assert!(
        cold.passes.is_empty(),
        "the input itself: {:?}",
        cold.passes
    );
    assert_eq!(cold.cycles, cold.baseline_cycles);
    let hit = client.compile(&text, Some(120_000), false).expect("hit");
    assert_eq!(hit.source, Source::Store);
    assert_eq!(
        (hit.cycles, &hit.passes),
        (cold.baseline_cycles, &cold.passes)
    );

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.counter("serve.semcheck", "mismatch"),
        1,
        "one request"
    );
    assert_eq!(
        stats.counter("core.semantic_mismatch", ""),
        2,
        "policy, -O3"
    );
    let traces = client.traces(8).expect("traces");
    assert!(traces.contains("\"fault_stage\":\"semcheck\""), "{traces}");

    drop(client);
    server.shutdown();
    fault::PLAN.clear();
    telemetry::disable();
    telemetry::reset();
    let _ = std::fs::remove_file(&store);
}
