//! Proximal Policy Optimization (Schulman et al., 2017) with the clipped
//! surrogate objective of the paper's Equation 4.

use crate::env::Environment;
use crate::rollout::{self, record_steps_per_sec, Batch};
use autophase_nn::{softmax, softmax_into, Activation, BatchWorkspace, GradScratch, Mlp, SoaMlp};
use autophase_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

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
#[derive(Debug, Clone)]
pub struct PpoAgent {
    /// Policy network producing action logits.
    pub policy: Mlp,
    /// Value network producing state-value estimates.
    pub value: Mlp,
    cfg: PpoConfig,
    rng: StdRng,
}

impl PpoAgent {
    /// Create an agent for the given observation/action dimensions.
    pub fn new(obs_dim: usize, n_actions: usize, cfg: &PpoConfig, seed: u64) -> PpoAgent {
        let mut psizes = vec![obs_dim];
        psizes.extend(&cfg.hidden);
        psizes.push(n_actions);
        let mut vsizes = vec![obs_dim];
        vsizes.extend(&cfg.hidden);
        vsizes.push(1);
        PpoAgent {
            policy: Mlp::new(&psizes, Activation::Tanh, seed),
            value: Mlp::new(&vsizes, Activation::Tanh, seed ^ 0xABCD),
            cfg: cfg.clone(),
            rng: StdRng::seed_from_u64(seed ^ 0x5EED),
        }
    }

    /// Action probabilities for an observation.
    pub fn action_probabilities(&self, obs: &[f64]) -> Vec<f64> {
        softmax(&self.policy.forward(obs))
    }

    /// Greedy action.
    pub fn act_greedy(&self, obs: &[f64]) -> usize {
        rollout::argmax(&self.policy.forward(obs))
    }

    /// Sampled action (exploration).
    pub fn act_sample(&mut self, obs: &[f64]) -> usize {
        let logits = self.policy.forward(obs);
        rollout::sample_action(&logits, &mut self.rng).0
    }

    /// Run `iterations` of collect-then-optimize. Returns the episode
    /// reward mean of each iteration's batch (the curve of Figure 8).
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
            telemetry::observe_since("rl.collect_ns", "ppo", t);
            total_steps += batch.transitions.len() as u64;
            curve.push(batch.episode_reward_mean());
            telemetry::set_gauge("rl.episode_reward_mean", "ppo", batch.episode_reward_mean());
            let t = telemetry::maybe_now();
            self.update(&batch);
            telemetry::observe_since("rl.update_ns", "ppo", t);
            telemetry::incr("rl.iterations", "ppo", 1);
            telemetry::incr("rl.steps", "ppo", batch.transitions.len() as u64);
        }
        record_steps_per_sec("ppo", total_steps, train_start);
        curve
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
            telemetry::observe_since("rl.collect_ns", "ppo", t);
            total_steps += batch.transitions.len() as u64;
            curve.push(batch.episode_reward_mean());
            telemetry::set_gauge("rl.episode_reward_mean", "ppo", batch.episode_reward_mean());
            let t = telemetry::maybe_now();
            self.update(&batch);
            telemetry::observe_since("rl.update_ns", "ppo", t);
            telemetry::incr("rl.iterations", "ppo", 1);
            telemetry::incr("rl.steps", "ppo", batch.transitions.len() as u64);
        }
        record_steps_per_sec("ppo", total_steps, train_start);
        curve
    }

    /// One PPO optimization phase on a collected batch.
    ///
    /// Each minibatch runs one batched SoA forward per network; the
    /// cached activations feed [`Mlp::backward_batch`], so the per-sample
    /// path's *two* scalar forwards (one for the loss, one hidden inside
    /// `backward`) collapse into one batched GEMM — with bit-identical
    /// gradients and Adam trajectories (pinned by `simd_diff` tests).
    pub fn update(&mut self, batch: &Batch) {
        let (mut adv, ret) = rollout::gae(batch, self.cfg.gamma, self.cfg.lam);
        rollout::normalize(&mut adv);
        let n = batch.transitions.len();
        let mut order: Vec<usize> = (0..n).collect();

        let mut psoa = SoaMlp::from_mlp(&self.policy);
        let mut vsoa = SoaMlp::from_mlp(&self.value);
        let mut pws = BatchWorkspace::new();
        let mut vws = BatchWorkspace::new();
        let mut pscratch = GradScratch::new();
        let mut vscratch = GradScratch::new();
        let n_actions = self.policy.output_dim();
        let mut pgrad: Vec<f64> = Vec::new();
        let mut vgrad: Vec<f64> = Vec::new();
        let mut probs: Vec<f64> = Vec::new();

        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut self.rng);
            for chunk in order.chunks(self.cfg.minibatch.max(1)) {
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
                    let logp_new = probs[t.action].max(1e-12).ln();
                    let ratio = (logp_new - t.logp).exp();
                    let a = adv[i];
                    // Clipped surrogate: gradient flows only through the
                    // unclipped branch when it is the active minimum.
                    let unclipped = ratio * a;
                    let clipped = ratio.clamp(1.0 - self.cfg.clip, 1.0 + self.cfg.clip) * a;
                    let use_unclipped = unclipped <= clipped + 1e-12;
                    // dL/dlogits.
                    let grad = &mut pgrad[bi * n_actions..(bi + 1) * n_actions];
                    if use_unclipped {
                        // L = -ratio * A; dlogp/dlogit_j = 1{j=a} - p_j;
                        // dL/dlogit_j = -A * ratio * (1{j=a} - p_j)
                        for (j, g) in grad.iter_mut().enumerate() {
                            let ind = if j == t.action { 1.0 } else { 0.0 };
                            *g = -a * ratio * (ind - probs[j]);
                        }
                    }
                    // Entropy bonus: L -= β H; dH/dlogit_j = -p_j (log p_j + H)
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
                    // Value regression: L = 0.5 (v - ret)^2.
                    vgrad[bi] = vws.logits(bi)[0] - ret[i];
                }
                self.policy.backward_batch(&pws, &pgrad, &mut pscratch);
                self.value.backward_batch(&vws, &vgrad, &mut vscratch);
                self.policy.step(self.cfg.lr);
                self.value.step(self.cfg.vf_lr);
                psoa.refresh(&self.policy);
                vsoa.refresh(&self.value);
            }
        }
    }

    /// Access the configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
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
