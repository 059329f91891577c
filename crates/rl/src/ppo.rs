//! Proximal Policy Optimization (Schulman et al., 2017) with the clipped
//! surrogate objective of the paper's Equation 4.

use crate::actor_critic::{with_forward, ActorCritic, Update};
use crate::env::Environment;
use crate::rollout::{self, Batch};
use rand::seq::SliceRandom;
use rand::Rng;

/// PPO hyperparameters.
#[derive(Debug, Clone)]
pub struct PpoConfig {
    /// Hidden layer sizes (the paper's generalization runs use 256×256).
    pub hidden: Vec<usize>,
    /// Learning rate (Adam).
    pub lr: f64,
    /// Discount factor.
    pub gamma: f64,
    /// GAE λ.
    pub lam: f64,
    /// Clip parameter ε of Equation 4.
    pub clip: f64,
    /// Optimization epochs per batch (PPO's sample-reuse advantage over
    /// vanilla PG, §2.2).
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Transitions collected per iteration.
    pub horizon: usize,
    /// Hard cap on episode length.
    pub max_episode_len: usize,
    /// Entropy bonus coefficient (exploration).
    pub entropy_coef: f64,
    /// Value-loss learning rate.
    pub vf_lr: f64,
}

impl Default for PpoConfig {
    fn default() -> PpoConfig {
        PpoConfig {
            hidden: vec![256, 256],
            lr: 3e-4,
            gamma: 0.99,
            lam: 0.95,
            clip: 0.2,
            epochs: 4,
            minibatch: 64,
            horizon: 256,
            max_episode_len: 64,
            entropy_coef: 0.01,
            vf_lr: 1e-3,
        }
    }
}

impl PpoConfig {
    /// A light configuration for tests and quick searches.
    pub fn small() -> PpoConfig {
        PpoConfig {
            hidden: vec![32, 32],
            horizon: 128,
            minibatch: 32,
            ..PpoConfig::default()
        }
    }
}

/// The PPO agent: a policy network and a value network.
pub type PpoAgent = ActorCritic<PpoConfig>;

impl ActorCritic<PpoConfig> {
    /// Create an agent for the given observation/action dimensions.
    pub fn new(obs_dim: usize, n_actions: usize, cfg: &PpoConfig, seed: u64) -> PpoAgent {
        let seeds = [seed, seed ^ 0xABCD, seed ^ 0x5EED];
        Self::build(obs_dim, n_actions, &cfg.hidden, cfg.clone(), seeds)
    }

    /// Sampled action (exploration).
    pub fn act_sample(&mut self, obs: &[f64]) -> usize {
        let rng = &mut self.rng;
        with_forward(&self.policy, obs, |logits| {
            rollout::sample_action(logits, rng).0
        })
    }

    /// Run `iterations` of collect-then-optimize. Returns the episode
    /// reward mean of each iteration's batch (the curve of Figure 8).
    pub fn train(&mut self, env: &mut dyn Environment, iterations: usize) -> Vec<f64> {
        let collect = |a: &mut Self, _| {
            let (horizon, len) = (a.cfg.horizon, a.cfg.max_episode_len);
            rollout::collect(env, &a.policy, &a.value, horizon, len, &mut a.rng)
        };
        self.train_loop("ppo", iterations, collect, Self::update)
    }

    /// Like [`PpoAgent::train`], but each iteration collects
    /// `episodes_per_iter` episodes across the worker environments in
    /// `envs` (one thread per environment).
    ///
    /// Collection is episode-indexed (see
    /// [`rollout::collect_episodes_parallel`]): the batch — and therefore
    /// the whole training run — is bit-identical for any worker count,
    /// including one. Iteration `i` collects global episodes
    /// `i·episodes_per_iter ..` so multi-program environments keep
    /// rotating programs across iterations.
    pub fn train_parallel(
        &mut self,
        envs: &mut [Box<dyn Environment + Send>],
        episodes_per_iter: usize,
        iterations: usize,
    ) -> Vec<f64> {
        let collect = |a: &mut Self, i: usize| {
            let seed: u64 = a.rng.gen();
            rollout::collect_episodes_parallel(
                envs,
                &a.policy,
                &a.value,
                episodes_per_iter,
                (i * episodes_per_iter) as u64,
                a.cfg.max_episode_len,
                seed,
            )
        };
        self.train_loop("ppo", iterations, collect, Self::update)
    }

    /// One PPO optimization phase on a collected batch: `epochs` shuffled
    /// passes, one Adam step per minibatch.
    pub fn update(&mut self, batch: &Batch) {
        let cfg = &self.cfg;
        let (policy, value) = (&mut self.policy, &mut self.value);
        let mut order: Vec<usize> = (0..batch.transitions.len()).collect();
        let mut pass = Update::new(batch, cfg.gamma, cfg.lam, cfg.entropy_coef);
        for _ in 0..cfg.epochs {
            order.shuffle(&mut self.rng);
            for chunk in order.chunks(cfg.minibatch.max(1)) {
                // Clipped surrogate: gradient flows only through the
                // unclipped branch when it is the active minimum, where
                // L = -ratio * A.
                pass.accumulate(policy, value, chunk, |t, probs, a| {
                    let logp_new = probs[t.action].max(1e-12).ln();
                    let ratio = (logp_new - t.logp).exp();
                    let unclipped = ratio * a;
                    let clipped = ratio.clamp(1.0 - cfg.clip, 1.0 + cfg.clip) * a;
                    (unclipped <= clipped + 1e-12).then_some(a * ratio)
                });
                policy.step(cfg.lr);
                value.step(cfg.vf_lr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ChainEnv;

    #[test]
    fn solves_two_step_chain() {
        let mut env = ChainEnv::new(vec![2, 0], 3);
        let mut agent = PpoAgent::new(3, 3, &PpoConfig::small(), 11);
        let curve = agent.train(&mut env, 30);
        let early: f64 = curve[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = curve[curve.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late > early, "no learning: early={early} late={late}");
        assert!(late > 1.6, "should approach 2.0, got {late}");
        // Greedy policy is correct at both positions.
        assert_eq!(agent.act_greedy(&[1.0, 0.0, 0.0]), 2);
        assert_eq!(agent.act_greedy(&[0.0, 1.0, 0.0]), 0);
    }

    #[test]
    fn entropy_keeps_probabilities_soft_early() {
        let agent = PpoAgent::new(3, 4, &PpoConfig::small(), 3);
        let p = agent.action_probabilities(&[1.0, 0.0, 0.0]);
        // Fresh network ≈ uniform.
        assert!(p.iter().all(|&x| x > 0.1 && x < 0.5), "{p:?}");
    }

    #[test]
    fn deterministic_training() {
        let mk = || {
            let mut env = ChainEnv::new(vec![1], 2);
            let mut agent = PpoAgent::new(2, 2, &PpoConfig::small(), 5);
            agent.train(&mut env, 5)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn parallel_training_is_worker_count_invariant() {
        let run = |workers: usize| {
            let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
                .map(|_| Box::new(ChainEnv::new(vec![2, 0], 3)) as Box<dyn Environment + Send>)
                .collect();
            let mut agent = PpoAgent::new(3, 3, &PpoConfig::small(), 11);
            let curve = agent.train_parallel(&mut envs, 12, 6);
            (curve, agent.policy.parameters(), agent.value.parameters())
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn parallel_training_learns_chain() {
        let mut envs: Vec<Box<dyn Environment + Send>> = (0..2)
            .map(|_| Box::new(ChainEnv::new(vec![2, 0], 3)) as Box<dyn Environment + Send>)
            .collect();
        let mut agent = PpoAgent::new(3, 3, &PpoConfig::small(), 11);
        let curve = agent.train_parallel(&mut envs, 48, 30);
        let late: f64 = curve[curve.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late > 1.6, "should approach 2.0, got {late}");
        assert_eq!(agent.act_greedy(&[1.0, 0.0, 0.0]), 2);
        assert_eq!(agent.act_greedy(&[0.0, 1.0, 0.0]), 0);
    }

    #[test]
    fn zero_reward_env_stays_near_uniform() {
        // RL-PPO1 in the paper: all rewards zeroed → no preference learned.
        struct Zero;
        impl Environment for Zero {
            fn observation_dim(&self) -> usize {
                1
            }
            fn num_actions(&self) -> usize {
                2
            }
            fn reset(&mut self) -> Vec<f64> {
                vec![0.0]
            }
            fn step(&mut self, _: usize) -> crate::env::StepResult {
                crate::env::StepResult {
                    observation: vec![0.0],
                    reward: 0.0,
                    done: true,
                }
            }
        }
        let mut agent = PpoAgent::new(1, 2, &PpoConfig::small(), 17);
        agent.train(&mut Zero, 20);
        let p = agent.action_probabilities(&[0.0]);
        assert!((p[0] - 0.5).abs() < 0.2, "{p:?}");
    }
}
