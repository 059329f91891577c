//! Determinism guarantees of the parallel rollout engine and the
//! evaluation cache (tier 1).
//!
//! The contract this suite pins down:
//!
//! 1. **Worker-count invariance** — collecting episodes on 1, 2, or 3
//!    worker environments produces bit-identical batches, because
//!    collection is episode-indexed: episode `i` always runs on a fresh
//!    reset with an RNG stream derived from `(seed, i)` alone.
//! 2. **Cache transparency** — sharing an [`EvalCache`] changes how
//!    often the profiler runs, never what any caller observes: rewards,
//!    observations and cycle counts are identical with a private cache,
//!    a cold shared one and a warm shared one.
//! 3. **Thread safety** — hammering one cache from several threads loses
//!    no updates and never yields a value that was not inserted for that
//!    exact key.

use autophase::core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase::core::EvalCache;
use autophase::hls::profile::HlsReport;
use autophase::progen::{program_batch, GenConfig};
use autophase::rl::env::Environment;
use autophase::rl::ppo::{PpoAgent, PpoConfig};
use autophase::rl::rollout::{self, Batch};
use std::sync::Arc;

const EPISODE_LEN: usize = 8;

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

fn programs() -> Vec<autophase::ir::Module> {
    program_batch(&GenConfig::default(), 77, 2)
}

fn fresh_agent(env: &PhaseOrderEnv) -> PpoAgent {
    let cfg = PpoConfig {
        hidden: vec![16, 16],
        max_episode_len: EPISODE_LEN,
        ..PpoConfig::default()
    };
    PpoAgent::new(env.observation_dim(), env.num_actions(), &cfg, 3)
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

/// Serial and parallel collection agree transition-for-transition on the
/// real phase-ordering environment, for several worker counts.
#[test]
fn parallel_rollout_matches_serial_on_phase_env() {
    let ps = programs();
    let mut serial_env = PhaseOrderEnv::new(ps.clone(), env_config());
    let agent = fresh_agent(&serial_env);
    let n_episodes = 6;
    let reference = rollout::collect_episodes(
        &mut serial_env,
        &agent.policy,
        &agent.value,
        n_episodes,
        0,
        EPISODE_LEN,
        41,
    );
    assert_eq!(reference.episode_returns.len(), n_episodes);

    for workers in [1usize, 2, 3] {
        let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
            .map(|_| {
                Box::new(PhaseOrderEnv::new(ps.clone(), env_config()))
                    as Box<dyn Environment + Send>
            })
            .collect();
        let batch = rollout::collect_episodes_parallel(
            &mut envs,
            &agent.policy,
            &agent.value,
            n_episodes,
            0,
            EPISODE_LEN,
            41,
        );
        assert_batches_identical(&reference, &batch, &format!("{workers} workers"));
    }
}

/// The cache changes profiler traffic, not results: an env with a
/// private cache, the first env on a shared one and a second env on the
/// now-warm shared one collect the same batch — the first two at the same
/// profiler cost, the third without running the profiler at all.
#[test]
fn cached_rollout_matches_uncached() {
    let ps = programs();
    let mut plain_env = PhaseOrderEnv::new(ps.clone(), env_config());
    let agent = fresh_agent(&plain_env);
    let n_episodes = 8;
    let collect = |env: &mut PhaseOrderEnv| -> Batch {
        rollout::collect_episodes(
            env,
            &agent.policy,
            &agent.value,
            n_episodes,
            0,
            EPISODE_LEN,
            99,
        )
    };
    let reference = collect(&mut plain_env);

    let cache = Arc::new(EvalCache::default());
    let mut first = PhaseOrderEnv::with_cache(ps.clone(), env_config(), Arc::clone(&cache));
    assert_batches_identical(&reference, &collect(&mut first), "first cached vs uncached");
    assert_eq!(
        first.samples(),
        plain_env.samples(),
        "being first on a shared cache costs what a private one does"
    );

    let hits_before = cache.hits();
    let mut second = PhaseOrderEnv::with_cache(ps, env_config(), Arc::clone(&cache));
    assert_batches_identical(
        &reference,
        &collect(&mut second),
        "second cached vs uncached",
    );
    assert_eq!(second.samples(), 0, "a warm cache answers every profile");
    assert!(cache.hits() > hits_before, "the second env hit nothing");
}

/// Concurrent mixed insert/get traffic: no lost updates, no cross-key
/// leakage, and the cache stays within its capacity bound.
#[test]
fn concurrent_cache_stress() {
    let cache = Arc::new(EvalCache::with_shards(256, 8));
    let threads = 4;
    let keys_per_thread = 200u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for i in 0..keys_per_thread {
                    // Half the keys are shared across threads, half private.
                    let shared = i % 2 == 0;
                    let key = if shared { i } else { t * 10_000 + i };
                    let entry = Arc::new(HlsReport {
                        cycles: key * 3 + 1,
                        total_states: key,
                        area: Default::default(),
                        insts_executed: i,
                        return_value: Some(key as i64),
                    });
                    cache.insert(key, entry);
                    // Whatever we read back (ours or a racing twin for the
                    // shared key) must carry that exact key's payload.
                    if let Some(e) = cache.get(key) {
                        assert_eq!(e.total_states, key);
                        assert_eq!(e.cycles, key * 3 + 1);
                    }
                }
            });
        }
    });
    assert!(
        cache.len() <= 256,
        "capacity bound violated: {}",
        cache.len()
    );
    let stats = cache.stats();
    assert_eq!(stats.len, cache.len());
    assert!(stats.hits + stats.misses > 0);
}
