//! Synchronous advantage actor-critic (the paper's A3C, §2.2, without the
//! asynchrony — the update `∇θ log πθ(a|s) Â` is identical).

use crate::actor_critic::{ActorCritic, Update};
use crate::env::Environment;
use crate::rollout::{self, Batch};

/// A2C hyperparameters.
#[derive(Debug, Clone)]
pub struct A2cConfig {
    /// Hidden layer sizes.
    pub hidden: Vec<usize>,
    /// Actor learning rate.
    pub lr: f64,
    /// Critic learning rate.
    pub vf_lr: f64,
    /// Discount factor.
    pub gamma: f64,
    /// GAE λ.
    pub lam: f64,
    /// Transitions per update.
    pub horizon: usize,
    /// Hard cap on episode length.
    pub max_episode_len: usize,
    /// Entropy bonus.
    pub entropy_coef: f64,
}

impl Default for A2cConfig {
    fn default() -> A2cConfig {
        A2cConfig {
            hidden: vec![256, 256],
            lr: 3e-4,
            vf_lr: 1e-3,
            gamma: 0.99,
            lam: 1.0,
            horizon: 256,
            max_episode_len: 64,
            entropy_coef: 0.01,
        }
    }
}

impl A2cConfig {
    /// A light configuration for tests and quick searches.
    pub fn small() -> A2cConfig {
        A2cConfig {
            hidden: vec![32, 32],
            horizon: 128,
            lr: 1e-3,
            vf_lr: 3e-3,
            ..A2cConfig::default()
        }
    }
}

/// The actor-critic agent.
pub type A2cAgent = ActorCritic<A2cConfig>;

impl ActorCritic<A2cConfig> {
    /// Create an agent.
    pub fn new(obs_dim: usize, n_actions: usize, cfg: &A2cConfig, seed: u64) -> A2cAgent {
        let seeds = [seed, seed ^ 0x77, seed ^ 0xA3C];
        Self::build(obs_dim, n_actions, &cfg.hidden, cfg.clone(), seeds)
    }

    /// Train for `iterations` batches, returning per-iteration episode
    /// reward means.
    pub fn train(&mut self, env: &mut dyn Environment, iterations: usize) -> Vec<f64> {
        let collect = |a: &mut Self, _| {
            let (horizon, len) = (a.cfg.horizon, a.cfg.max_episode_len);
            rollout::collect(env, &a.policy, &a.value, horizon, len, &mut a.rng)
        };
        self.train_loop("a2c", iterations, collect, Self::update)
    }

    /// Single on-policy gradient update (one pass over the batch, unlike
    /// PPO's multiple epochs — the sample-efficiency gap §2.2 describes).
    ///
    /// Weights stay fixed until the single step at the end; the batch is
    /// chunked only to bound workspace size.
    pub fn update(&mut self, batch: &Batch) {
        let cfg = &self.cfg;
        let (policy, value) = (&mut self.policy, &mut self.value);
        let mut pass = Update::new(batch, cfg.gamma, cfg.lam, cfg.entropy_coef);
        let order: Vec<usize> = (0..batch.transitions.len()).collect();
        for chunk in order.chunks(64) {
            // L = -A log π(a|s)
            pass.accumulate(policy, value, chunk, |_, _, a| Some(a));
        }
        policy.step(cfg.lr);
        value.step(cfg.vf_lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ChainEnv;

    #[test]
    fn solves_simple_chain() {
        let mut env = ChainEnv::new(vec![1, 2], 3);
        let mut agent = A2cAgent::new(3, 3, &A2cConfig::small(), 21);
        let curve = agent.train(&mut env, 120);
        let late: f64 = curve[curve.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late > 1.5, "late reward {late}");
        assert_eq!(agent.act_greedy(&[1.0, 0.0, 0.0]), 1);
        assert_eq!(agent.act_greedy(&[0.0, 1.0, 0.0]), 2);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            let mut env = ChainEnv::new(vec![0], 2);
            let mut agent = A2cAgent::new(2, 2, &A2cConfig::small(), 4);
            agent.train(&mut env, 4)
        };
        assert_eq!(mk(), mk());
    }
}
