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
//!   the benchmark's lanes call: exactly `n_episodes` episodes on a
//!   supervised worker pool, where episode `i` always starts from
//!   [`Environment::reset_to`]`(i)` and samples from an RNG derived from
//!   `(seed, i)`. Nothing about an episode depends on which worker runs
//!   it or in what order, so the batch is bit-identical for any worker
//!   count. [`collect_episodes`] is the same scheme on one thread — the
//!   reference the determinism and chaos suites hold the pool to.

use crate::env::Environment;
use autophase_nn::{softmax, BatchWorkspace, Mlp};
use autophase_telemetry::{self as telemetry, lock_recover};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

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

/// How many times a panicked episode is re-queued before being marked
/// failed-and-skipped (total attempts = retries + 1).
const MAX_EPISODE_RETRIES: u32 = 2;

/// The outcome of a supervised collection: the batch plus fault metadata.
#[derive(Debug, Clone, Default)]
struct SupervisedBatch {
    /// Every completed episode's transitions/returns, merged in
    /// episode-index order. Failed episodes are absent.
    batch: Batch,
    /// Absolute indices of episodes that panicked on every attempt and
    /// were skipped.
    failed_episodes: Vec<u64>,
    /// Worker threads respawned after a panic.
    worker_respawns: u64,
}

/// Collect episodes `base_episode .. base_episode + n_episodes` on a
/// supervised pool of worker threads — one slot per environment in `envs`.
///
/// Workers pull episodes from a shared queue; each episode is seeded by
/// [`episode_seed`], started with [`Environment::reset_to`], and merged in
/// episode-index order, so the batch is bit-identical to
/// [`collect_episodes`] for *any* worker count (episodes are relocatable
/// across workers by construction). A worker that panics is **respawned**
/// on the same environment slot (recovering the slot's poisoned lock) and
/// its in-flight episode is retried up to `MAX_EPISODE_RETRIES` (2)
/// times, then marked
/// failed-and-skipped — one pathological episode can no longer abort a
/// training run, and episodes it didn't touch are unaffected.
///
/// Telemetry (observational only — timings are recorded, never consulted):
/// the batch's wall time lands in the `rollout.batch_ns` histogram, each
/// episode's in `rollout.episode_ns`, per-worker busy time in
/// `rollout.worker_busy_ns{w<i>}` counters and utilization (busy / batch
/// wall) in `rollout.worker_util{w<i>}` gauges. The batch's respawns
/// are added to the `rollout.worker_respawns` counter and its skipped
/// episodes to `rollout.failed_episodes`.
fn collect_episodes_supervised(
    envs: &mut [Box<dyn Environment + Send>],
    policy: &Mlp,
    value: &Mlp,
    n_episodes: usize,
    base_episode: u64,
    max_episode_len: usize,
    seed: u64,
) -> SupervisedBatch {
    assert!(!envs.is_empty(), "need at least one worker environment");
    let batch_start = telemetry::maybe_now();
    let workers = envs.len();

    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n_episodes).collect());
    let results: Vec<Mutex<Option<EpisodeResult>>> =
        (0..n_episodes).map(|_| Mutex::new(None)).collect();
    let attempts: Vec<AtomicU32> = (0..n_episodes).map(|_| AtomicU32::new(0)).collect();
    let in_flight: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let busy_ns: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    let env_slots: Vec<Mutex<&mut Box<dyn Environment + Send>>> =
        envs.iter_mut().map(Mutex::new).collect();

    let mut respawns = 0u64;
    let mut failed: Vec<u64> = Vec::new();

    std::thread::scope(|scope| {
        // One supervised worker: drain the shared episode queue on slot
        // `w`'s environment, publishing each result as soon as it
        // completes. A panic anywhere in here kills only this thread; the
        // supervisor reads `in_flight[w]` to learn which episode died. The
        // locks it leaves poisoned are taken with `lock_recover`: every
        // value they guard (the queue, result slots, worker environments)
        // is re-initialized on reuse or episode-scoped, so the stale state
        // is harmless.
        let worker = |w: usize| {
            let wstart = telemetry::maybe_now();
            let mut actor = Actor::new(policy, value);
            loop {
                // Claim an episode and mark it in-flight under the queue
                // lock, so a panic can never lose an episode between the
                // two updates (in_flight stores index+1; 0 means idle).
                let e = {
                    let mut q = lock_recover(&queue);
                    match q.pop_front() {
                        Some(e) => {
                            in_flight[w].store(e as u64 + 1, Ordering::SeqCst);
                            e
                        }
                        None => break,
                    }
                };
                let mut env = lock_recover(&env_slots[w]);
                let episode = base_episode + e as u64;
                let mut rng = StdRng::seed_from_u64(episode_seed(seed, episode));
                let obs = env.reset_to(episode);
                let out = actor.run_episode(env.as_mut(), obs, &mut rng, max_episode_len);
                drop(env);
                *lock_recover(&results[e]) = Some(out);
                in_flight[w].store(0, Ordering::SeqCst);
            }
            if let Some(t) = wstart {
                busy_ns[w].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        };
        let spawn = |w: usize| scope.spawn(move || worker(w));
        let mut handles: Vec<_> = (0..workers).map(|w| (w, spawn(w))).collect();
        // Round-based supervision: join everything, respawn what panicked,
        // repeat until a round ends with no casualties.
        while !handles.is_empty() {
            let mut next = Vec::new();
            for (w, h) in handles {
                if h.join().is_ok() {
                    continue;
                }
                respawns += 1;
                let dying = in_flight[w].swap(0, Ordering::SeqCst);
                if dying != 0 {
                    let e = (dying - 1) as usize;
                    let tries = attempts[e].fetch_add(1, Ordering::SeqCst) + 1;
                    if tries > MAX_EPISODE_RETRIES {
                        failed.push(base_episode + e as u64);
                    } else {
                        lock_recover(&queue).push_front(e);
                    }
                }
                next.push((w, spawn(w)));
            }
            handles = next;
        }
    });

    if let Some(t) = batch_start {
        let wall = t.elapsed().as_nanos() as u64;
        telemetry::observe("rollout.batch_ns", "", wall);
        for (w, busy) in busy_ns.iter().enumerate() {
            let busy = busy.load(Ordering::Relaxed);
            let label = format!("w{w}");
            telemetry::counter("rollout.worker_busy_ns", &label).add(busy);
            let util = if wall > 0 {
                busy as f64 / wall as f64
            } else {
                0.0
            };
            telemetry::gauge("rollout.worker_util", &label).set(util);
        }
    }

    failed.sort_unstable();
    failed.dedup();
    let mut out = SupervisedBatch {
        failed_episodes: failed,
        worker_respawns: respawns,
        ..SupervisedBatch::default()
    };
    telemetry::incr("rollout.worker_respawns", "", out.worker_respawns);
    let skipped = out.failed_episodes.len() as u64;
    telemetry::incr("rollout.failed_episodes", "", skipped);
    for (e, slot) in results.iter().enumerate() {
        if out.failed_episodes.contains(&(base_episode + e as u64)) {
            continue;
        }
        if let Some((transitions, ep_return)) = lock_recover(slot).take() {
            out.batch.transitions.extend(transitions);
            out.batch.episode_returns.push(ep_return);
        }
    }
    out
}

/// Collect episodes `base_episode .. base_episode + n_episodes` on a pool
/// of worker threads — one per environment in `envs`.
///
/// The supervised pool (`collect_episodes_supervised`), keeping only the
/// batch: with no faults it is
/// bit-identical to [`collect_episodes`] for any worker count, and under
/// faults it degrades gracefully (panicking episodes are retried, then
/// skipped) instead of aborting the run.
pub fn collect_episodes_parallel(
    envs: &mut [Box<dyn Environment + Send>],
    policy: &Mlp,
    value: &Mlp,
    n_episodes: usize,
    base_episode: u64,
    max_episode_len: usize,
    seed: u64,
) -> Batch {
    collect_episodes_supervised(
        envs,
        policy,
        value,
        n_episodes,
        base_episode,
        max_episode_len,
        seed,
    )
    .batch
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
    use autophase_nn::Activation;
    use rand::SeedableRng;

    #[test]
    fn collect_fills_horizon() {
        let mut env = ChainEnv::new(vec![0, 1], 2);
        let policy = Mlp::new(&[3, 8, 2], Activation::Tanh, 1);
        let value = Mlp::new(&[3, 8, 1], Activation::Tanh, 2);
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
        let policy = Mlp::new(&[3, 8, 2], Activation::Tanh, 1);
        let value = Mlp::new(&[3, 8, 1], Activation::Tanh, 2);
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

    /// A deterministic-but-flaky env: panics when asked to reset to an
    /// episode in `panic_episodes` whose per-episode attempt budget is not
    /// yet exhausted. Attempt counts live in shared state so retries (on a
    /// respawned worker) observe earlier attempts.
    type PanicPlan = std::sync::Arc<Mutex<std::collections::HashMap<u64, u32>>>;

    struct FlakyEnv {
        inner: ChainEnv,
        /// (episode, attempts that panic before one succeeds)
        panic_episodes: PanicPlan,
    }

    impl FlakyEnv {
        fn pool(
            workers: usize,
            plan: &[(u64, u32)],
        ) -> (Vec<Box<dyn Environment + Send>>, PanicPlan) {
            let shared = std::sync::Arc::new(Mutex::new(
                plan.iter()
                    .copied()
                    .collect::<std::collections::HashMap<_, _>>(),
            ));
            let envs = (0..workers)
                .map(|_| {
                    Box::new(FlakyEnv {
                        inner: ChainEnv::new(vec![0, 1], 2),
                        panic_episodes: std::sync::Arc::clone(&shared),
                    }) as Box<dyn Environment + Send>
                })
                .collect();
            (envs, shared)
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
            {
                let mut plan = lock_recover(&self.panic_episodes);
                if let Some(left) = plan.get_mut(&episode) {
                    if *left > 0 {
                        *left -= 1;
                        std::panic::panic_any("flaky env: injected worker panic");
                    }
                }
            }
            self.inner.reset_to(episode)
        }
        fn step(&mut self, action: usize) -> crate::env::StepResult {
            self.inner.step(action)
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
    fn supervisor_respawns_workers_and_retries_episodes() {
        quiet_flaky_panics();
        let policy = Mlp::new(&[3, 8, 2], Activation::Tanh, 1);
        let value = Mlp::new(&[3, 8, 1], Activation::Tanh, 2);
        let mut env = ChainEnv::new(vec![0, 1], 2);
        let reference = collect_episodes(&mut env, &policy, &value, 9, 0, 50, 41);
        for workers in [1usize, 2, 3] {
            // Episodes 2 and 6 each panic once, then succeed on retry.
            let (mut envs, _) = FlakyEnv::pool(workers, &[(2, 1), (6, 1)]);
            let sup = collect_episodes_supervised(&mut envs, &policy, &value, 9, 0, 50, 41);
            assert!(
                sup.worker_respawns >= 2,
                "expected ≥2 respawns with {workers} workers, got {}",
                sup.worker_respawns
            );
            assert!(sup.failed_episodes.is_empty());
            // Retried episodes are deterministic, so the recovered batch is
            // bit-identical to the fault-free serial reference.
            assert_eq!(reference.episode_returns, sup.batch.episode_returns);
            assert_eq!(reference.transitions.len(), sup.batch.transitions.len());
            for (s, p) in reference.transitions.iter().zip(&sup.batch.transitions) {
                assert_eq!(
                    (s.action, s.reward, s.logp, s.value, s.done, &s.obs),
                    (p.action, p.reward, p.logp, p.value, p.done, &p.obs)
                );
            }
        }
    }

    #[test]
    fn supervisor_skips_episodes_that_exhaust_retries() {
        let _g = telemetry::test_guard();
        quiet_flaky_panics();
        telemetry::enable();
        telemetry::reset();
        let policy = Mlp::new(&[3, 8, 2], Activation::Tanh, 1);
        let value = Mlp::new(&[3, 8, 1], Activation::Tanh, 2);
        let mut env = ChainEnv::new(vec![0, 1], 2);
        let reference = collect_episodes(&mut env, &policy, &value, 6, 0, 50, 13);
        // Episode 3 panics on every attempt (budget far above retry cap).
        let (mut envs, _) = FlakyEnv::pool(2, &[(3, u32::MAX)]);
        let sup = collect_episodes_supervised(&mut envs, &policy, &value, 6, 0, 50, 13);
        let skipped = telemetry::counter("rollout.failed_episodes", "").value();
        let respawns = telemetry::counter("rollout.worker_respawns", "").value();
        telemetry::disable();
        assert_eq!(sup.failed_episodes, vec![3]);
        assert_eq!(skipped, 1, "each skipped episode is counted once");
        assert_eq!(sup.worker_respawns, 3); // initial attempt + 2 retries
        assert_eq!(respawns, sup.worker_respawns, "the batch's respawns");
        // The other five episodes match the reference exactly.
        assert_eq!(sup.batch.episode_returns.len(), 5);
        let expected: Vec<f64> = reference
            .episode_returns
            .iter()
            .enumerate()
            .filter(|(e, _)| *e != 3)
            .map(|(_, r)| *r)
            .collect();
        assert_eq!(sup.batch.episode_returns, expected);
    }

    #[test]
    fn supervisor_matches_parallel_wrapper_without_faults() {
        let policy = Mlp::new(&[3, 8, 2], Activation::Tanh, 1);
        let value = Mlp::new(&[3, 8, 1], Activation::Tanh, 2);
        let mut envs: Vec<Box<dyn Environment + Send>> = (0..3)
            .map(|_| Box::new(ChainEnv::new(vec![0, 1], 2)) as Box<dyn Environment + Send>)
            .collect();
        let sup = collect_episodes_supervised(&mut envs, &policy, &value, 7, 2, 50, 99);
        assert_eq!(sup.worker_respawns, 0);
        assert!(sup.failed_episodes.is_empty());
        let wrapped = collect_episodes_parallel(&mut envs, &policy, &value, 7, 2, 50, 99);
        assert_eq!(sup.batch.episode_returns, wrapped.episode_returns);
        assert_eq!(sup.batch.transitions.len(), wrapped.transitions.len());
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
