//! Determinism guarantees of the parallel rollout engine and the
//! evaluation cache (tier 1).
//!
//! The contract this suite pins down:
//!
//! 1. **Worker-count invariance** — collecting episodes on 1, 2, or 3
//!    worker environments produces bit-identical batches, because
//!    collection is episode-indexed: episode `i` always runs on a fresh
//!    reset with an RNG stream derived from `(seed, i)` alone.
//! 2. **Cache transparency** — attaching an [`EvalCache`] changes how
//!    often the profiler runs, never what any caller observes: rewards,
//!    observations, cycle counts, and trained agents are identical with
//!    and without it.
//! 3. **Thread safety** — hammering one cache from several threads loses
//!    no updates and never yields a value that was not inserted for that
//!    exact key.

use autophase::core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase::core::multi::{MultiActionAgent, MultiConfig};
use autophase::core::{CacheEntry, CacheKey, EvalCache};
use autophase::hls::HlsConfig;
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
        filtered_features: true,
        filtered_passes: true,
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

/// The cache changes profiler traffic, not results: cached workers
/// produce the same batch as uncached ones, while provably skipping
/// compilations.
#[test]
fn cached_rollout_matches_uncached() {
    let ps = programs();
    // Full-recompute configuration on both sides: the incremental layer
    // (DESIGN.md §4f) skips profiler runs on its own, which would blur
    // the books this test keeps on the *shared* cache. Its equivalence
    // gates live in `incremental_diff.rs` and `core/src/env.rs`'s
    // `incremental_env_bit_identical_to_full_recompute`.
    let cfg = EnvConfig {
        incremental: false,
        ..env_config()
    };
    let mut plain_env = PhaseOrderEnv::new(ps.clone(), cfg.clone());
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
    let mut cached_env = PhaseOrderEnv::with_cache(ps, cfg, Arc::clone(&cache));
    let batch = collect(&mut cached_env);

    assert_batches_identical(&reference, &batch, "cached vs uncached");
    assert!(
        cached_env.samples() < plain_env.samples(),
        "cache saved no profiler runs ({} vs {})",
        cached_env.samples(),
        plain_env.samples()
    );
    assert_eq!(
        cached_env.samples() + cache.hits(),
        plain_env.samples(),
        "every skipped profile must be a cache hit"
    );
}

/// Same-seed environments replayed step-for-step report identical cycle
/// counts with and without a cache, and training the §5.2 multi-action
/// agent through the cache reproduces the uncached result exactly.
#[test]
fn cached_cycles_and_training_are_identical() {
    let program = programs().remove(0);
    let hls = HlsConfig::default();
    let seq = [23usize, 33, 10, 0, 15, 38];

    let plain = autophase::core::env::sequence_cycles(&program, &seq, &hls);
    let cache = EvalCache::default();
    let fp = autophase::core::eval_cache::fingerprint_module(&program);
    for _ in 0..3 {
        let cached = autophase::core::env::sequence_cycles_cached(&program, fp, &seq, &hls, &cache);
        assert_eq!(plain, cached);
    }
    assert!(cache.hits() >= 2, "repeat evaluations should hit");

    let cfg = MultiConfig {
        seq_len: 5,
        episode_len: 2,
        episodes_per_iter: 2,
        ..MultiConfig::default()
    };
    let mut a = MultiActionAgent::new(&cfg, 5);
    let uncached = a.train(&program, &hls, 2);
    let cache = EvalCache::default();
    let mut b = MultiActionAgent::new(&cfg, 5);
    let cached = b.train_cached(&program, &hls, 2, &cache);
    assert_eq!(uncached, cached, "train_cached diverged from train");
    assert!(b.samples() < a.samples(), "cache saved no compilations");
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
                    let program = if shared { i } else { t * 10_000 + i };
                    let key = CacheKey { program, seq: i };
                    let entry = CacheEntry {
                        module_fingerprint: program,
                        features: [program as i64; autophase::features::NUM_FEATURES],
                        cycles: program * 3 + 1,
                        area: Default::default(),
                        total_states: i,
                        insts_executed: i,
                        return_value: Some(program as i64),
                    };
                    cache.insert(key, entry);
                    // Whatever we read back (ours or a racing twin for the
                    // shared key) must carry that exact key's payload.
                    if let Some(e) = cache.get(&key) {
                        assert_eq!(e.cycles, e.module_fingerprint * 3 + 1);
                        if shared {
                            assert_eq!(e.module_fingerprint, program);
                        }
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
