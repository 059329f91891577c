//! Synchronous advantage actor-critic (the paper's A3C, §2.2, without the
//! asynchrony — the update `∇θ log πθ(a|s) Â` is identical).

use crate::env::Environment;
use crate::rollout::{self, record_steps_per_sec, Batch};
use autophase_nn::{softmax, softmax_into, Activation, BatchWorkspace, GradScratch, Mlp, SoaMlp};
use autophase_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
#[derive(Debug, Clone)]
pub struct A2cAgent {
    /// Actor network (logits).
    pub policy: Mlp,
    /// Critic network (state values).
    pub value: Mlp,
    cfg: A2cConfig,
    rng: StdRng,
}

impl A2cAgent {
    /// Create an agent.
    pub fn new(obs_dim: usize, n_actions: usize, cfg: &A2cConfig, seed: u64) -> A2cAgent {
        let mut psizes = vec![obs_dim];
        psizes.extend(&cfg.hidden);
        psizes.push(n_actions);
        let mut vsizes = vec![obs_dim];
        vsizes.extend(&cfg.hidden);
        vsizes.push(1);
        A2cAgent {
            policy: Mlp::new(&psizes, Activation::Tanh, seed),
            value: Mlp::new(&vsizes, Activation::Tanh, seed ^ 0x77),
            cfg: cfg.clone(),
            rng: StdRng::seed_from_u64(seed ^ 0xA3C),
        }
    }

    /// Greedy action.
    pub fn act_greedy(&self, obs: &[f64]) -> usize {
        rollout::argmax(&self.policy.forward(obs))
    }

    /// Action probabilities.
    pub fn action_probabilities(&self, obs: &[f64]) -> Vec<f64> {
        softmax(&self.policy.forward(obs))
    }

    /// Train for `iterations` batches, returning per-iteration episode
    /// reward means.
    pub fn train(&mut self, env: &mut dyn Environment, iterations: usize) -> Vec<f64> {
        let train_start = telemetry::maybe_now();
        let mut total_steps = 0u64;
        let mut curve = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let t = telemetry::maybe_now();
            let batch = rollout::collect(
                env,
                &self.policy,
                &self.value,
                self.cfg.horizon,
                self.cfg.max_episode_len,
                &mut self.rng,
            );
            telemetry::observe_since("rl.collect_ns", "a2c", t);
            total_steps += batch.transitions.len() as u64;
            curve.push(batch.episode_reward_mean());
            telemetry::set_gauge("rl.episode_reward_mean", "a2c", batch.episode_reward_mean());
            let t = telemetry::maybe_now();
            self.update(&batch);
            telemetry::observe_since("rl.update_ns", "a2c", t);
            telemetry::incr("rl.iterations", "a2c", 1);
            telemetry::incr("rl.steps", "a2c", batch.transitions.len() as u64);
        }
        record_steps_per_sec("a2c", total_steps, train_start);
        curve
    }

    /// Like [`A2cAgent::train`], but each iteration collects
    /// `episodes_per_iter` episodes across the worker environments in
    /// `envs`. Episode-indexed collection makes the run bit-identical
    /// for any worker count (see [`rollout::collect_episodes_parallel`]).
    pub fn train_parallel(
        &mut self,
        envs: &mut [Box<dyn Environment + Send>],
        episodes_per_iter: usize,
        iterations: usize,
    ) -> Vec<f64> {
        let train_start = telemetry::maybe_now();
        let mut total_steps = 0u64;
        let mut curve = Vec::with_capacity(iterations);
        for i in 0..iterations {
            let seed: u64 = self.rng.gen();
            let t = telemetry::maybe_now();
            let batch = rollout::collect_episodes_parallel(
                envs,
                &self.policy,
                &self.value,
                episodes_per_iter,
                (i * episodes_per_iter) as u64,
                self.cfg.max_episode_len,
                seed,
            );
            telemetry::observe_since("rl.collect_ns", "a2c", t);
            total_steps += batch.transitions.len() as u64;
            curve.push(batch.episode_reward_mean());
            telemetry::set_gauge("rl.episode_reward_mean", "a2c", batch.episode_reward_mean());
            let t = telemetry::maybe_now();
            self.update(&batch);
            telemetry::observe_since("rl.update_ns", "a2c", t);
            telemetry::incr("rl.iterations", "a2c", 1);
            telemetry::incr("rl.steps", "a2c", batch.transitions.len() as u64);
        }
        record_steps_per_sec("a2c", total_steps, train_start);
        curve
    }

    /// Single on-policy gradient update (one pass over the batch, unlike
    /// PPO's multiple epochs — the sample-efficiency gap §2.2 describes).
    ///
    /// Weights stay fixed until the single step at the end, so the batch
    /// runs through chunked SoA forwards + [`Mlp::backward_batch`]
    /// (chunked only to bound workspace size) with bit-identical
    /// gradients to the per-sample path.
    pub fn update(&mut self, batch: &Batch) {
        let (mut adv, ret) = rollout::gae(batch, self.cfg.gamma, self.cfg.lam);
        rollout::normalize(&mut adv);

        let psoa = SoaMlp::from_mlp(&self.policy);
        let vsoa = SoaMlp::from_mlp(&self.value);
        let mut pws = BatchWorkspace::new();
        let mut vws = BatchWorkspace::new();
        let mut pscratch = GradScratch::new();
        let mut vscratch = GradScratch::new();
        let n_actions = self.policy.output_dim();
        let mut pgrad: Vec<f64> = Vec::new();
        let mut vgrad: Vec<f64> = Vec::new();
        let mut probs: Vec<f64> = Vec::new();

        let order: Vec<usize> = (0..batch.transitions.len()).collect();
        for chunk in order.chunks(64) {
            pws.begin(&psoa);
            vws.begin(&vsoa);
            for &i in chunk {
                let obs = &batch.transitions[i].obs;
                pws.push_input(obs);
                vws.push_input(obs);
            }
            psoa.forward_batch(&mut pws);
            vsoa.forward_batch(&mut vws);

            pgrad.clear();
            pgrad.resize(chunk.len() * n_actions, 0.0);
            vgrad.clear();
            vgrad.resize(chunk.len(), 0.0);
            for (bi, &i) in chunk.iter().enumerate() {
                let t = &batch.transitions[i];
                softmax_into(pws.logits(bi), &mut probs);
                let a = adv[i];
                let grad = &mut pgrad[bi * n_actions..(bi + 1) * n_actions];
                for (j, g) in grad.iter_mut().enumerate() {
                    let ind = if j == t.action { 1.0 } else { 0.0 };
                    // L = -A log π(a|s): dL/dlogit_j = -A (1{j=a} - p_j)
                    *g = -a * (ind - probs[j]);
                }
                if self.cfg.entropy_coef > 0.0 {
                    let h: f64 = -probs
                        .iter()
                        .map(|&p| p.max(1e-12) * p.max(1e-12).ln())
                        .sum::<f64>();
                    for (j, g) in grad.iter_mut().enumerate() {
                        let dh = -probs[j] * (probs[j].max(1e-12).ln() + h);
                        *g -= self.cfg.entropy_coef * dh;
                    }
                }
                vgrad[bi] = vws.logits(bi)[0] - ret[i];
            }
            self.policy.backward_batch(&pws, &pgrad, &mut pscratch);
            self.value.backward_batch(&vws, &vgrad, &mut vscratch);
        }
        self.policy.step(self.cfg.lr);
        self.value.step(self.cfg.vf_lr);
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

    #[test]
    fn parallel_training_is_worker_count_invariant() {
        let run = |workers: usize| {
            let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
                .map(|_| Box::new(ChainEnv::new(vec![1, 2], 3)) as Box<dyn Environment + Send>)
                .collect();
            let mut agent = A2cAgent::new(3, 3, &A2cConfig::small(), 21);
            let curve = agent.train_parallel(&mut envs, 16, 5);
            (curve, agent.policy.parameters(), agent.value.parameters())
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(3));
    }
}
