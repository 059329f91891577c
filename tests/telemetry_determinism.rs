//! Telemetry is observational only (tier 1 guard for the telemetry
//! layer).
//!
//! PR 1's contract is that serial and parallel rollout collection are
//! bit-identical for any worker count. The telemetry layer instruments
//! those exact code paths (pass application, HLS profiling, the eval
//! cache, the rollout engine), so this suite proves the instrumentation
//! never feeds back into behaviour: batches collected with telemetry
//! enabled are bit-identical to batches collected with it disabled, and
//! the serial == parallel property holds in both states. It also pins
//! what the rollout engine records: nothing under `rollout.*` when
//! disabled, and one `rollout.episode_ns` sample per episode when enabled.
//!
//! The whole suite is one `#[test]`: the telemetry enable flag is global
//! to the process, so the on/off phases must run in a fixed order.

use autophase::core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase::core::EvalCache;
use autophase::progen::{program_batch, GenConfig};
use autophase::rl::env::Environment;
use autophase::rl::ppo::{PpoAgent, PpoConfig};
use autophase::rl::rollout::{self, Batch};
use autophase::telemetry;
use std::sync::Arc;

const EPISODE_LEN: usize = 8;
const N_EPISODES: usize = 6;
const SEED: u64 = 41;

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

fn collect_serial(agent: &PpoAgent, programs: &[autophase::ir::Module]) -> Batch {
    let mut env = PhaseOrderEnv::new(programs.to_vec(), env_config());
    rollout::collect_episodes(
        &mut env,
        &agent.policy,
        &agent.value,
        N_EPISODES,
        0,
        EPISODE_LEN,
        SEED,
    )
}

fn collect_parallel(agent: &PpoAgent, programs: &[autophase::ir::Module], workers: usize) -> Batch {
    let cache = Arc::new(EvalCache::default());
    let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
        .map(|_| {
            Box::new(PhaseOrderEnv::with_cache(
                programs.to_vec(),
                env_config(),
                Arc::clone(&cache),
            )) as Box<dyn Environment + Send>
        })
        .collect();
    rollout::collect_episodes_parallel(
        &mut envs,
        &agent.policy,
        &agent.value,
        N_EPISODES,
        0,
        EPISODE_LEN,
        SEED,
    )
}

/// The serial collector for `workers == 0`, else the pool at `workers`.
fn collect(
    agent: &PpoAgent,
    programs: &[autophase::ir::Module],
    workers: usize,
) -> (Batch, String) {
    if workers == 0 {
        (collect_serial(agent, programs), "serial".to_string())
    } else {
        let what = format!("parallel x{workers}");
        (collect_parallel(agent, programs, workers), what)
    }
}

#[test]
fn batches_are_bit_identical_with_telemetry_on_and_off() {
    let programs = program_batch(&GenConfig::default(), 55, 2);
    let probe = PhaseOrderEnv::new(programs.clone(), env_config());
    let cfg = PpoConfig {
        hidden: vec![16, 16],
        max_episode_len: EPISODE_LEN,
        ..PpoConfig::default()
    };
    let agent = PpoAgent::new(probe.observation_dim(), probe.num_actions(), &cfg, 13);

    // Reference: telemetry off, the exact pre-telemetry code path.
    telemetry::disable();
    let reference = collect_serial(&agent, &programs);

    // Telemetry on: serial and parallel (several worker counts) all match
    // the disabled-path reference bit for bit, and each collection times
    // every episode it ran, exactly once.
    telemetry::enable();
    for workers in [0usize, 1, 2, 3] {
        telemetry::reset();
        let (batch, what) = collect(&agent, &programs, workers);
        assert_batches_identical(&reference, &batch, &format!("{what}, telemetry on"));
        let snap = telemetry::snapshot();
        let episodes = snap
            .counters
            .iter()
            .find(|c| c.name == "rollout.episodes")
            .map_or(0, |c| c.value);
        let timed = snap
            .histograms
            .iter()
            .find(|h| h.name == "rollout.episode_ns")
            .map_or(0, |h| h.count);
        assert_eq!(episodes, N_EPISODES as u64, "{what}: rollout.episodes");
        assert_eq!(
            timed, episodes,
            "{what}: one rollout.episode_ns per episode"
        );
    }
    // And the instrumentation did actually record something meanwhile —
    // this is a telemetry test, not a telemetry no-op test.
    let snap = telemetry::snapshot();
    assert!(
        snap.counters
            .iter()
            .any(|c| c.name == "rollout.steps" && c.value > 0),
        "expected rollout.steps to have recorded"
    );
    assert!(
        snap.histograms
            .iter()
            .any(|h| h.name == "pass.apply_ns" && h.count > 0),
        "expected per-pass timing to have recorded"
    );

    // Back off: still identical (toggling leaves no residue), and the
    // rollout engine records nothing at all.
    telemetry::disable();
    telemetry::reset();
    for workers in [0usize, 1, 2, 3] {
        let (batch, what) = collect(&agent, &programs, workers);
        assert_batches_identical(&reference, &batch, &format!("{what}, telemetry off"));
    }
    let snap = telemetry::snapshot();
    let rollout = |name: &str| name.starts_with("rollout.");
    let recorded: Vec<String> = snap
        .counters
        .iter()
        .filter(|c| rollout(c.name) && c.value != 0)
        .map(|c| c.name.to_string())
        .chain(
            snap.histograms
                .iter()
                .filter(|h| rollout(h.name) && h.count != 0)
                .map(|h| h.name.to_string()),
        )
        .chain(
            snap.gauges
                .iter()
                .filter(|g| rollout(g.name) && g.value != 0.0)
                .map(|g| g.name.to_string()),
        )
        .collect();
    assert!(
        recorded.is_empty(),
        "disabled runs must record nothing under rollout.*: {recorded:?}"
    );
}
