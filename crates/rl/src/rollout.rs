//! Trajectory collection and generalized advantage estimation.
//!
//! An episode is one loop, `Actor::run_episode`, and one categorical
//! sampler, [`sample_action`] (ES's fitness rollouts and RL-PPO3's
//! per-slot heads draw from it too). What starts an episode and whose RNG
//! samples it is the collector's choice:
//!
//! * [`collect`] — what `train` calls: one environment, the agent's own
//!   RNG stream, "at least `horizon` transitions".
//! * [`collect_episodes_parallel`] — what `PpoAgent::train_parallel` and
//!   the benchmark's lanes call: exactly `n_episodes` episodes on a pool
//!   of scoped threads, where episode `i` always starts from
//!   [`Environment::reset_to`]`(i)` and samples from an RNG derived from
//!   `(seed, i)`. Nothing about an episode depends on which worker runs
//!   it or in what order, so the batch is bit-identical for any worker
//!   count. [`collect_episodes`] is the same scheme on one thread — the
//!   reference the determinism and chaos suites hold the pool to.
//!
//! A panic in an episode is contained where it runs: the pool runs each
//! attempt under `catch_unwind` on its own thread and retries a panicked
//! one in place, a bounded number of times, before it skips the episode
//! (`rollout.episode_panics`, `rollout.failed_episodes`). Nothing an
//! episode leaves on its thread outlives the retry: `reset_to` rebuilds
//! the environment and the pass layer's per-episode fault context, the
//! RNG is re-derived from the index, the networks' workspaces are
//! restaged by every forward, and the IR facts store holds only what an
//! immutable function version determines (a fact whose computation
//! panicked is left unset).

use crate::env::Environment;
use autophase_nn::{softmax, BatchWorkspace, Mlp};
use autophase_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ScopedJoinHandle;

/// One collected episode: its transitions and total reward.
type EpisodeResult = (Vec<Transition>, f64);

/// One transition of a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Observation before the action.
    pub obs: Vec<f64>,
    /// Chosen action.
    pub action: usize,
    /// Immediate reward.
    pub reward: f64,
    /// Log-probability of the action under the behaviour policy.
    pub logp: f64,
    /// Critic's value estimate of `obs`.
    pub value: f64,
    /// Episode ended at this transition.
    pub done: bool,
}

/// A batch of transitions with per-episode returns.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Transitions in collection order.
    pub transitions: Vec<Transition>,
    /// Total (undiscounted) reward of each completed episode.
    pub episode_returns: Vec<f64>,
}

impl Batch {
    /// Mean return of completed episodes (0 when none completed).
    pub fn episode_reward_mean(&self) -> f64 {
        if self.episode_returns.is_empty() {
            0.0
        } else {
            self.episode_returns.iter().sum::<f64>() / self.episode_returns.len() as f64
        }
    }
}

/// Sample an action from a categorical distribution given logits.
/// Returns `(action, log_prob)`.
pub fn sample_action(logits: &[f64], rng: &mut StdRng) -> (usize, f64) {
    let probs = softmax(logits);
    let r: f64 = rng.gen();
    let mut cum = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        cum += p;
        if r <= cum {
            return (i, p.max(1e-12).ln());
        }
    }
    let last = probs.len() - 1;
    (last, probs[last].max(1e-12).ln())
}

/// Greedy action: the first strict maximum, so a tie goes to the lowest
/// index, and a NaN logit (every comparison with it is false) cannot
/// panic. The one greedy rule — evaluation
/// ([`crate::ppo::PpoAgent::act_greedy`] and friends) and the serving
/// daemon must break ties alike, or a policy is scored on an ordering it
/// would not serve.
///
/// # Panics
///
/// Panics on empty logits.
pub fn argmax(logits: &[f64]) -> usize {
    argmax_masked(logits, |_| true).expect("nonempty logits")
}

/// [`argmax`] over the actions `allowed` accepts; `None` when it accepts
/// none (every action masked).
pub fn argmax_masked(logits: &[f64], allowed: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (a, &score) in logits.iter().enumerate() {
        if allowed(a) && best.is_none_or(|(_, s)| score > s) {
            best = Some((a, score));
        }
    }
    best.map(|(a, _)| a)
}

/// Collect at least `horizon` transitions (finishing the final episode).
pub fn collect(
    env: &mut dyn Environment,
    policy: &Mlp,
    value: &Mlp,
    horizon: usize,
    max_episode_len: usize,
    rng: &mut StdRng,
) -> Batch {
    let mut actor = Actor::new(policy, value);
    let mut batch = Batch::default();
    while batch.transitions.len() < horizon {
        let obs = env.reset();
        let (transitions, ep_return) = actor.run_episode(env, obs, rng, max_episode_len);
        batch.transitions.extend(transitions);
        batch.episode_returns.push(ep_return);
    }
    batch
}

/// Derive the RNG seed of episode `episode` from a batch seed. Distinct
/// episodes get well-separated streams (the SplitMix64 finalizer of
/// [`telemetry::splitmix64`] over `seed ^ episode·φ`), and the derivation
/// is what makes episodes relocatable across workers.
pub fn episode_seed(seed: u64, episode: u64) -> u64 {
    const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
    // The step adds φ before it mixes; start one φ back.
    telemetry::splitmix64(&mut (seed ^ episode.wrapping_mul(PHI)).wrapping_sub(PHI))
}

/// The two networks as one collecting thread sees them. Weights are
/// fixed for a whole collection, so every thread shares the networks
/// read-only; the activation workspaces are this thread's own — per-step
/// forwards then run allocation-free and bit-identical to `Mlp::forward`.
struct Actor<'a> {
    policy: &'a Mlp,
    value: &'a Mlp,
    pws: BatchWorkspace,
    vws: BatchWorkspace,
}

impl<'a> Actor<'a> {
    fn new(policy: &'a Mlp, value: &'a Mlp) -> Actor<'a> {
        Actor {
            policy,
            value,
            pws: BatchWorkspace::new(),
            vws: BatchWorkspace::new(),
        }
    }

    /// Run one episode from `obs` — what the caller's `reset` / `reset_to`
    /// returned — sampling from `rng`: its transitions and total reward.
    /// The one episode loop; collectors differ only in how they start it,
    /// and the one place an episode's wall time (`rollout.episode_ns`)
    /// is recorded.
    fn run_episode(
        &mut self,
        env: &mut dyn Environment,
        mut obs: Vec<f64>,
        rng: &mut StdRng,
        max_episode_len: usize,
    ) -> EpisodeResult {
        let start = telemetry::maybe_now();
        let mut transitions = Vec::new();
        let mut ep_return = 0.0;
        for t in 0..max_episode_len {
            let logits = self.policy.forward_one(&obs, &mut self.pws);
            let (action, logp) = sample_action(logits, rng);
            let v = self.value.forward_one(&obs, &mut self.vws)[0];
            let step = env.step(action);
            ep_return += step.reward;
            let done = step.done || t + 1 == max_episode_len;
            transitions.push(Transition {
                // Hand the pre-step observation to the transition and
                // slide the new one into `obs` — no per-step Vec clone.
                obs: std::mem::replace(&mut obs, step.observation),
                action,
                reward: step.reward,
                logp,
                value: v,
                done,
            });
            if done {
                break;
            }
        }
        telemetry::incr("rollout.steps", "", transitions.len() as u64);
        telemetry::incr("rollout.episodes", "", 1);
        telemetry::observe_since("rollout.episode_ns", "", start);
        (transitions, ep_return)
    }
}

/// Collect episodes `base_episode .. base_episode + n_episodes` serially.
///
/// The reference implementation of the episode-indexed scheme: the
/// parallel collector must (and is tested to) produce exactly this batch.
pub fn collect_episodes(
    env: &mut dyn Environment,
    policy: &Mlp,
    value: &Mlp,
    n_episodes: usize,
    base_episode: u64,
    max_episode_len: usize,
    seed: u64,
) -> Batch {
    let mut actor = Actor::new(policy, value);
    let mut batch = Batch::default();
    for episode in base_episode..base_episode + n_episodes as u64 {
        let mut rng = StdRng::seed_from_u64(episode_seed(seed, episode));
        let obs = env.reset_to(episode);
        let (transitions, ep_return) = actor.run_episode(env, obs, &mut rng, max_episode_len);
        batch.transitions.extend(transitions);
        batch.episode_returns.push(ep_return);
    }
    batch
}

/// How many times a panicked episode attempt is retried before the
/// episode is skipped (total attempts = retries + 1).
const MAX_EPISODE_RETRIES: u32 = 2;

/// Collect episodes `base_episode .. base_episode + n_episodes` on a pool
/// of scoped threads — one per environment in `envs`.
///
/// Threads claim episode indices from one counter; each episode is seeded
/// by [`episode_seed`], started with [`Environment::reset_to`], and merged
/// in episode-index order, so the batch is bit-identical to
/// [`collect_episodes`] for *any* worker count. A panic is contained in
/// the attempt that raised it (see the module docs): a panicked attempt
/// is retried in place up to `MAX_EPISODE_RETRIES` (2) times, after which
/// the episode is skipped, so one pathological episode cannot abort a
/// training run and episodes it didn't touch are unaffected. A panic
/// outside any attempt propagates, as it would from [`collect_episodes`].
///
/// Telemetry (observational only — timings are recorded, never consulted):
/// the batch's wall time lands in the `rollout.batch_ns` histogram, each
/// episode's in `rollout.episode_ns`, per-worker busy time in
/// `rollout.worker_busy_ns{w<i>}` counters and utilization (busy / batch
/// wall) in `rollout.worker_util{w<i>}` gauges. Panicked attempts are
/// counted in `rollout.episode_panics` and skipped episodes in
/// `rollout.failed_episodes`.
pub fn collect_episodes_parallel(
    envs: &mut [Box<dyn Environment + Send>],
    policy: &Mlp,
    value: &Mlp,
    n_episodes: usize,
    base_episode: u64,
    max_episode_len: usize,
    seed: u64,
) -> Batch {
    assert!(!envs.is_empty(), "need at least one worker environment");
    let batch_start = telemetry::maybe_now();
    let next = AtomicUsize::new(0);
    // One thread's share: claim episodes until none is left, then hand
    // back its busy time and every episode it claimed — `None` for one
    // that panicked on every attempt.
    let worker = |env: &mut Box<dyn Environment + Send>| {
        let start = telemetry::maybe_now();
        let mut actor = Actor::new(policy, value);
        // One attempt at episode `e`, `None` if it panicked.
        let mut attempt = |e: usize| {
            let episode = base_episode + e as u64;
            catch_unwind(AssertUnwindSafe(|| {
                let mut rng = StdRng::seed_from_u64(episode_seed(seed, episode));
                let obs = env.reset_to(episode);
                actor.run_episode(env.as_mut(), obs, &mut rng, max_episode_len)
            }))
            .map_err(|_| telemetry::incr("rollout.episode_panics", "", 1))
            .ok()
        };
        let done: Vec<_> = std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
            .take_while(|&e| e < n_episodes)
            .map(|e| (e, (0..=MAX_EPISODE_RETRIES).find_map(|_| attempt(e))))
            .collect();
        (start.map_or(0, |t| t.elapsed().as_nanos() as u64), done)
    };
    let workers: Vec<_> = std::thread::scope(|scope| {
        let spawn = |env| scope.spawn(move || worker(env));
        let handles: Vec<_> = envs.iter_mut().map(spawn).collect();
        // A panic outside every attempt ends the call with its payload.
        let join = |h: ScopedJoinHandle<_>| h.join().unwrap_or_else(|p| resume_unwind(p));
        handles.into_iter().map(join).collect()
    });

    if let Some(t) = batch_start {
        let wall = t.elapsed().as_nanos() as u64;
        telemetry::observe("rollout.batch_ns", "", wall);
        for (w, &(busy, _)) in workers.iter().enumerate() {
            let label = format!("w{w}");
            telemetry::counter("rollout.worker_busy_ns", &label).add(busy);
            // A zero-length batch has no busy time either: 0 / 1.
            let util = busy as f64 / wall.max(1) as f64;
            telemetry::gauge("rollout.worker_util", &label).set(util);
        }
    }

    let mut episodes: Vec<_> = workers.into_iter().flat_map(|(_, done)| done).collect();
    episodes.sort_unstable_by_key(|&(e, _)| e);
    let mut batch = Batch::default();
    for (transitions, ep_return) in episodes.into_iter().filter_map(|(_, result)| result) {
        batch.transitions.extend(transitions);
        batch.episode_returns.push(ep_return);
    }
    let failed = n_episodes - batch.episode_returns.len();
    telemetry::incr("rollout.failed_episodes", "", failed as u64);
    batch
}

/// Compute GAE(λ) advantages and discounted returns for a batch.
/// Returns `(advantages, returns)` aligned with `batch.transitions`.
pub fn gae(batch: &Batch, gamma: f64, lam: f64) -> (Vec<f64>, Vec<f64>) {
    let n = batch.transitions.len();
    let mut adv = vec![0.0; n];
    let mut ret = vec![0.0; n];
    let mut running_adv = 0.0;
    for i in (0..n).rev() {
        let t = &batch.transitions[i];
        let next_value = if t.done || i + 1 == n {
            0.0
        } else {
            batch.transitions[i + 1].value
        };
        let delta = t.reward + gamma * next_value - t.value;
        running_adv = if t.done {
            delta
        } else {
            delta + gamma * lam * running_adv
        };
        adv[i] = running_adv;
        ret[i] = adv[i] + t.value;
    }
    (adv, ret)
}

/// Normalize advantages to zero mean / unit variance (PPO detail).
pub fn normalize(adv: &mut [f64]) {
    if adv.len() < 2 {
        return;
    }
    let mean = adv.iter().sum::<f64>() / adv.len() as f64;
    let var = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / adv.len() as f64;
    let std = var.sqrt().max(1e-8);
    for a in adv {
        *a = (*a - mean) / std;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ChainEnv;
    use autophase_telemetry::lock_recover;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    #[test]
    fn collect_fills_horizon() {
        let mut env = ChainEnv::new(vec![0, 1], 2);
        let policy = Mlp::new(&[3, 8, 2], 1);
        let value = Mlp::new(&[3, 8, 1], 2);
        let mut rng = StdRng::seed_from_u64(3);
        let b = collect(&mut env, &policy, &value, 10, 50, &mut rng);
        assert!(b.transitions.len() >= 10);
        assert!(!b.episode_returns.is_empty());
        // Every episode in the chain has length 2.
        assert_eq!(b.transitions.len() % 2, 0);
    }

    #[test]
    fn gae_on_known_sequence() {
        // Single episode, two steps, value = 0 everywhere, gamma=1, lam=1:
        // advantages are reward-to-go.
        let batch = Batch {
            transitions: vec![
                Transition {
                    obs: vec![],
                    action: 0,
                    reward: 1.0,
                    logp: 0.0,
                    value: 0.0,
                    done: false,
                },
                Transition {
                    obs: vec![],
                    action: 0,
                    reward: 2.0,
                    logp: 0.0,
                    value: 0.0,
                    done: true,
                },
            ],
            episode_returns: vec![3.0],
        };
        let (adv, ret) = gae(&batch, 1.0, 1.0);
        assert_eq!(adv, vec![3.0, 2.0]);
        assert_eq!(ret, vec![3.0, 2.0]);
    }

    #[test]
    fn gae_resets_at_episode_boundary() {
        let t = |r: f64, done: bool| Transition {
            obs: vec![],
            action: 0,
            reward: r,
            logp: 0.0,
            value: 0.0,
            done,
        };
        let batch = Batch {
            transitions: vec![t(5.0, true), t(1.0, true)],
            episode_returns: vec![5.0, 1.0],
        };
        let (adv, _) = gae(&batch, 0.99, 0.95);
        assert_eq!(adv, vec![5.0, 1.0]); // no bleed across the boundary
    }

    #[test]
    fn normalize_standardizes() {
        let mut a = vec![1.0, 2.0, 3.0, 4.0];
        normalize(&mut a);
        let mean: f64 = a.iter().sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        let var: f64 = a.iter().map(|x| x * x).sum::<f64>() / 4.0;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serial_and_parallel_collection_agree() {
        let policy = Mlp::new(&[3, 8, 2], 1);
        let value = Mlp::new(&[3, 8, 1], 2);
        let mut env = ChainEnv::new(vec![0, 1], 2);
        let serial = collect_episodes(&mut env, &policy, &value, 9, 4, 50, 77);
        for workers in [1usize, 2, 3, 5] {
            let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
                .map(|_| Box::new(ChainEnv::new(vec![0, 1], 2)) as Box<dyn Environment + Send>)
                .collect();
            let parallel = collect_episodes_parallel(&mut envs, &policy, &value, 9, 4, 50, 77);
            assert_eq!(serial.episode_returns, parallel.episode_returns);
            assert_eq!(serial.transitions.len(), parallel.transitions.len());
            for (s, p) in serial.transitions.iter().zip(&parallel.transitions) {
                assert_eq!(s.action, p.action);
                assert_eq!(s.obs, p.obs);
                assert_eq!(s.reward, p.reward);
                assert_eq!(s.logp, p.logp);
                assert_eq!(s.value, p.value);
                assert_eq!(s.done, p.done);
            }
        }
    }

    /// Where an injected panic strikes in an episode: in `reset_to`, or
    /// right after the environment took the episode's `k`-th step
    /// (0-based), before the transition is recorded.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum At {
        Reset,
        Step(usize),
    }

    /// Per episode: where it panics and how many attempts panic before
    /// one succeeds. Shared by a pool's environments, so an attempt sees
    /// what earlier attempts of its episode used up wherever they ran.
    type PanicPlan = Arc<Mutex<HashMap<u64, (At, u32)>>>;

    /// A deterministic-but-flaky env: panics where its plan says, until
    /// the episode's panic budget is spent.
    struct FlakyEnv {
        inner: ChainEnv,
        plan: PanicPlan,
        episode: u64,
        steps: usize,
    }

    impl FlakyEnv {
        fn pool(workers: usize, plan: &[(u64, At, u32)]) -> Vec<Box<dyn Environment + Send>> {
            let plan: PanicPlan = Arc::new(Mutex::new(
                plan.iter().map(|&(e, at, n)| (e, (at, n))).collect(),
            ));
            (0..workers)
                .map(|_| {
                    Box::new(FlakyEnv {
                        inner: ChainEnv::new(vec![0, 1], 2),
                        plan: Arc::clone(&plan),
                        episode: 0,
                        steps: 0,
                    }) as Box<dyn Environment + Send>
                })
                .collect()
        }

        fn strike(&self, at: At) {
            let mut plan = lock_recover(&self.plan);
            if let Some((planned, left)) = plan.get_mut(&self.episode) {
                if *planned == at && *left > 0 {
                    *left -= 1;
                    std::panic::panic_any("flaky env: injected episode panic");
                }
            }
        }
    }

    impl Environment for FlakyEnv {
        fn observation_dim(&self) -> usize {
            self.inner.observation_dim()
        }
        fn num_actions(&self) -> usize {
            self.inner.num_actions()
        }
        fn reset(&mut self) -> Vec<f64> {
            self.inner.reset()
        }
        fn reset_to(&mut self, episode: u64) -> Vec<f64> {
            (self.episode, self.steps) = (episode, 0);
            self.strike(At::Reset);
            self.inner.reset_to(episode)
        }
        fn step(&mut self, action: usize) -> crate::env::StepResult {
            let out = self.inner.step(action);
            self.strike(At::Step(self.steps));
            self.steps += 1;
            out
        }
    }

    /// Swallow the intentional FlakyEnv panics so test output stays
    /// readable; anything else still reaches the default hook.
    fn quiet_flaky_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("flaky env"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn panicked_attempts_are_retried_in_place() {
        let _g = telemetry::test_guard();
        quiet_flaky_panics();
        let policy = Mlp::new(&[3, 8, 2], 1);
        let value = Mlp::new(&[3, 8, 1], 2);
        let mut env = ChainEnv::new(vec![0, 1], 2);
        let reference = collect_episodes(&mut env, &policy, &value, 9, 0, 50, 41);
        for workers in [1usize, 2, 3] {
            // Episodes 2 and 6 panic once in `reset_to`; episode 4 panics
            // twice after its second step, with one transition already
            // collected and the environment stepped past it. Every one
            // succeeds on a retry.
            let plan = [(2, At::Reset, 1), (6, At::Reset, 1), (4, At::Step(1), 2)];
            let mut envs = FlakyEnv::pool(workers, &plan);
            telemetry::enable();
            telemetry::reset();
            let batch = collect_episodes_parallel(&mut envs, &policy, &value, 9, 0, 50, 41);
            let panics = telemetry::counter("rollout.episode_panics", "").value();
            let skipped = telemetry::counter("rollout.failed_episodes", "").value();
            telemetry::disable();
            assert_eq!(panics, 4, "every planned panic, at {workers} workers");
            assert_eq!(skipped, 0);
            // Retried episodes are deterministic, so the recovered batch is
            // bit-identical to the fault-free serial reference.
            assert_eq!(reference.episode_returns, batch.episode_returns);
            assert_eq!(reference.transitions, batch.transitions);
        }
    }

    #[test]
    fn episodes_that_exhaust_retries_are_skipped() {
        let _g = telemetry::test_guard();
        quiet_flaky_panics();
        telemetry::enable();
        telemetry::reset();
        let policy = Mlp::new(&[3, 8, 2], 1);
        let value = Mlp::new(&[3, 8, 1], 2);
        let mut env = ChainEnv::new(vec![0, 1], 2);
        let reference = collect_episodes(&mut env, &policy, &value, 6, 0, 50, 13);
        // Episode 3 panics on every attempt (budget far above retry cap).
        let mut envs = FlakyEnv::pool(2, &[(3, At::Reset, u32::MAX)]);
        let batch = collect_episodes_parallel(&mut envs, &policy, &value, 6, 0, 50, 13);
        let skipped = telemetry::counter("rollout.failed_episodes", "").value();
        let panics = telemetry::counter("rollout.episode_panics", "").value();
        telemetry::disable();
        assert_eq!(skipped, 1, "each skipped episode is counted once");
        assert_eq!(panics, 3, "the first attempt and both retries");
        // The other five episodes match the reference exactly.
        assert_eq!(batch.episode_returns.len(), 5);
        let expected: Vec<f64> = reference
            .episode_returns
            .iter()
            .enumerate()
            .filter(|(e, _)| *e != 3)
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(batch.episode_returns, expected);
    }

    #[test]
    fn argmax_is_the_first_strict_maximum() {
        let tied = [1.0, 3.0, 3.0, 2.0];
        assert_eq!(argmax(&tied), 1); // a tie goes to the lowest index
        assert_eq!(argmax(&[0.5, f64::NAN, 2.0, f64::NAN]), 2);
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), 0); // a NaN cannot panic
        assert_eq!(argmax_masked(&tied, |a| a != 1), Some(2));
        assert_eq!(argmax_masked(&tied, |a| a == 0), Some(0));
        assert_eq!(argmax_masked(&tied, |_| false), None); // all masked
    }

    #[test]
    fn episode_seeds_are_distinct_and_stable() {
        assert_eq!(episode_seed(5, 0), episode_seed(5, 0));
        assert_ne!(episode_seed(5, 0), episode_seed(5, 1));
        assert_ne!(episode_seed(5, 0), episode_seed(6, 0));
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(9);
        let logits = vec![0.0, 3.0];
        let mut count1 = 0;
        for _ in 0..500 {
            let (a, logp) = sample_action(&logits, &mut rng);
            assert!(logp <= 0.0);
            count1 += (a == 1) as usize;
        }
        assert!(count1 > 400, "action 1 should dominate: {count1}");
        assert_eq!(argmax(&logits), 1);
    }
}
