//! The multiple-passes-per-action formulation (§5.2, RL-PPO3).
//!
//! The agent maintains a whole candidate sequence `p ∈ Z^N`, initialized
//! to `K/2` everywhere. Each RL step predicts an update vector
//! `a ∈ {-1, 0, +1}^N`; the sequence becomes `p + a`, is compiled in one
//! shot, and the reward is the cycle improvement over the previous
//! sequence. A factored-categorical PPO (N independent 3-way heads over a
//! shared trunk) trains the policy; the joint log-probability is the sum
//! of the per-slot log-probabilities.

use crate::compile::Input;
use autophase_features::{extract, normalize_to_inst_count, NUM_FEATURES};
use autophase_ir::Module;
use autophase_nn::{softmax, BatchWorkspace, GradScratch, Mlp};
use autophase_passes::checked::FuelBudget;
use autophase_passes::registry::NUM_PASSES;
use autophase_rl::rollout::sample_action;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration for the multi-action agent.
#[derive(Debug, Clone)]
pub struct MultiConfig {
    /// Sequence length N.
    pub seq_len: usize,
    /// Hidden layers of the shared trunk.
    pub hidden: Vec<usize>,
    /// PPO clip ε.
    pub clip: f64,
    /// Learning rate.
    pub lr: f64,
    /// Steps per episode.
    pub episode_len: usize,
    /// Episodes per training iteration.
    pub episodes_per_iter: usize,
    /// Optimization epochs per batch.
    pub epochs: usize,
}

impl Default for MultiConfig {
    fn default() -> MultiConfig {
        MultiConfig {
            seq_len: 24,
            hidden: vec![64, 64],
            clip: 0.2,
            lr: 3e-4,
            episode_len: 10,
            episodes_per_iter: 4,
            epochs: 3,
        }
    }
}

/// The RL-PPO3 agent.
pub struct MultiActionAgent {
    policy: Mlp,
    value: Mlp,
    cfg: MultiConfig,
    rng: StdRng,
}

struct MultiTransition {
    obs: Vec<f64>,
    subactions: Vec<usize>, // each in 0..3 (−1, 0, +1)
    logp: f64,
    reward: f64,
    value: f64,
}

impl MultiActionAgent {
    /// Create an agent for sequences of `cfg.seq_len` passes.
    pub fn new(cfg: &MultiConfig, seed: u64) -> MultiActionAgent {
        // Observation (Table 3 for RL-PPO3: "Action History + Program
        // Features"): the normalized current sequence — the multi-action
        // analogue of the action history — concatenated with the Table-2
        // features of the program compiled under it.
        let obs_dim = cfg.seq_len + NUM_FEATURES;
        let mut psizes = vec![obs_dim];
        psizes.extend(&cfg.hidden);
        psizes.push(cfg.seq_len * 3);
        let mut vsizes = vec![obs_dim];
        vsizes.extend(&cfg.hidden);
        vsizes.push(1);
        MultiActionAgent {
            policy: Mlp::new(&psizes, seed),
            value: Mlp::new(&vsizes, seed ^ 0xFACE),
            cfg: cfg.clone(),
            rng: StdRng::seed_from_u64(seed ^ 0x3333),
        }
    }

    fn observe(seq: &[usize], compiled: &Module) -> Vec<f64> {
        let mut obs: Vec<f64> = seq
            .iter()
            .map(|&p| p as f64 / NUM_PASSES as f64 - 0.5)
            .collect();
        obs.extend(normalize_to_inst_count(&extract(compiled)));
        obs
    }

    fn sample_subactions(&mut self, logits: &[f64]) -> (Vec<usize>, f64) {
        let mut logp = 0.0;
        let actions = logits
            .chunks(3)
            .map(|slot| {
                let (chosen, slot_logp) = sample_action(slot, &mut self.rng);
                logp += slot_logp;
                chosen
            })
            .collect();
        (actions, logp)
    }

    fn apply_subactions(seq: &[usize], sub: &[usize]) -> Vec<usize> {
        seq.iter()
            .zip(sub)
            .map(|(&p, &a)| {
                let delta: i64 = a as i64 - 1; // 0,1,2 → −1,0,+1
                (p as i64 + delta).rem_euclid(NUM_PASSES as i64) as usize
            })
            .collect()
    }

    /// Train on one program; returns `(best sequence, best cycles)`. Every
    /// sequence compiles through `input`, which counts the samples.
    pub fn train(&mut self, input: &mut Input, iterations: usize) -> (Vec<usize>, u64) {
        let mut best_seq: Vec<usize> = vec![NUM_PASSES / 2; self.cfg.seq_len];
        let mut best_cycles = input.cycles(&best_seq);
        let fuel = FuelBudget::default();
        let (mut pws, mut vws) = (BatchWorkspace::new(), BatchWorkspace::new());
        for _ in 0..iterations {
            let mut batch: Vec<MultiTransition> = Vec::new();
            for _ in 0..self.cfg.episodes_per_iter {
                // Episode: start from the canonical K/2 sequence (§5.2).
                let mut seq: Vec<usize> = vec![NUM_PASSES / 2; self.cfg.seq_len];
                let (mut compiled, _, mut prev) = input.compile(&seq, &fuel);
                for _ in 0..self.cfg.episode_len {
                    let obs = Self::observe(&seq, &compiled);
                    let logits = self.policy.forward_one(&obs, &mut pws);
                    let (sub, logp) = self.sample_subactions(logits);
                    let v = self.value.forward_one(&obs, &mut vws)[0];
                    let next = Self::apply_subactions(&seq, &sub);
                    let (next_compiled, _, cycles) = input.compile(&next, &fuel);
                    let reward = prev as f64 - cycles as f64;
                    if cycles < best_cycles {
                        best_cycles = cycles;
                        best_seq = next.clone();
                    }
                    batch.push(MultiTransition {
                        obs,
                        subactions: sub,
                        logp,
                        reward,
                        value: v,
                    });
                    seq = next;
                    compiled = next_compiled;
                    prev = cycles;
                }
            }
            self.update(&batch);
        }
        (best_seq, best_cycles)
    }

    /// One PPO update: per epoch, one batched forward and one batched
    /// backward per network over the whole batch, then one step each.
    fn update(&mut self, batch: &[MultiTransition]) {
        // Monte-Carlo advantage per step (episodes are short).
        let mut adv: Vec<f64> = batch.iter().map(|t| t.reward - t.value).collect();
        autophase_rl::rollout::normalize(&mut adv);
        let (mut pws, mut vws) = (BatchWorkspace::new(), BatchWorkspace::new());
        let mut scratch = GradScratch::new();
        let heads = self.cfg.seq_len * 3;
        let mut pgrad = vec![0.0; batch.len() * heads];
        let mut vgrad = vec![0.0; batch.len()];
        for _ in 0..self.cfg.epochs {
            pws.begin(&self.policy);
            vws.begin(&self.value);
            for t in batch {
                pws.push_input(&t.obs);
                vws.push_input(&t.obs);
            }
            self.policy.forward_batch(&mut pws);
            self.value.forward_batch(&mut vws);
            for (i, t) in batch.iter().enumerate() {
                // Joint new log-prob.
                let probs: Vec<Vec<f64>> = pws.logits(i).chunks(3).map(softmax).collect();
                let logp_new: f64 = probs
                    .iter()
                    .zip(&t.subactions)
                    .fold(0.0, |acc, (p, &s)| acc + p[s].max(1e-12).ln());
                let ratio = (logp_new - t.logp).exp();
                let a = adv[i];
                let unclipped = ratio * a;
                let clipped = ratio.clamp(1.0 - self.cfg.clip, 1.0 + self.cfg.clip) * a;
                let grad = &mut pgrad[i * heads..(i + 1) * heads];
                grad.fill(0.0);
                if unclipped <= clipped + 1e-12 {
                    for ((g, p), &s) in grad.chunks_mut(3).zip(&probs).zip(&t.subactions) {
                        for (j, (gj, pj)) in g.iter_mut().zip(p).enumerate() {
                            let ind = if j == s { 1.0 } else { 0.0 };
                            *gj = -a * ratio * (ind - pj);
                        }
                    }
                }
                vgrad[i] = vws.logits(i)[0] - t.reward;
            }
            self.policy.backward_batch(&pws, &pgrad, &mut scratch);
            self.value.backward_batch(&vws, &vgrad, &mut scratch);
            self.policy.step(self.cfg.lr);
            self.value.step(self.cfg.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_benchmarks::suite;
    use autophase_hls::HlsConfig;

    #[test]
    fn subaction_arithmetic() {
        let seq = vec![0, 22, 44];
        let next = MultiActionAgent::apply_subactions(&seq, &[0, 1, 2]);
        assert_eq!(next, vec![44, 22, 0]); // −1 wraps, 0 holds, +1 wraps
    }

    #[test]
    fn observation_is_sequence_plus_features() {
        let program = suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module;
        let obs = MultiActionAgent::observe(&[0, 22, 44], &program);
        assert_eq!(obs.len(), 3 + NUM_FEATURES);
        assert!(obs[0] < obs[1] && obs[1] < obs[2]);
        assert!(obs[..3].iter().all(|v| (-0.6..=0.6).contains(v)));
    }

    #[test]
    fn samples_counted_per_distinct_module() {
        let program = suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module;
        let hls = HlsConfig::default();
        let mut input = Input::new(&program, &hls);
        let cfg = MultiConfig {
            seq_len: 6,
            episode_len: 3,
            episodes_per_iter: 1,
            ..MultiConfig::default()
        };
        MultiActionAgent::new(&cfg, 1).train(&mut input, 2);
        // 1 (global init) + per iteration 1 episode × (1 reset + 3 steps):
        // 9 compilations, every slot within 3 steps of K/2 = 22. On gsm,
        // -lowerswitch (21) and -constmerge (22) change nothing and
        // -loop-rotate (23) is idempotent, so they build two modules: the
        // program, and the program with its loops rotated.
        assert_eq!(input.samples(), 2);
    }

    #[test]
    fn deterministic_training() {
        let program = suite()
            .into_iter()
            .find(|b| b.name == "matmul")
            .unwrap()
            .module;
        let hls = HlsConfig::default();
        let cfg = MultiConfig {
            seq_len: 6,
            episode_len: 3,
            episodes_per_iter: 1,
            ..MultiConfig::default()
        };
        let a = MultiActionAgent::new(&cfg, 9).train(&mut Input::new(&program, &hls), 2);
        let b = MultiActionAgent::new(&cfg, 9).train(&mut Input::new(&program, &hls), 2);
        assert_eq!(a, b);
    }

    /// The weights `train_update_golden`'s `multi-matmul` configuration
    /// leaves behind, as FNV-1a hashes of their bits (that golden line
    /// pins only the best sequence, its cycles and the samples).
    #[test]
    fn matmul_weights_are_pinned() {
        let program = suite()
            .into_iter()
            .find(|b| b.name == "matmul")
            .unwrap()
            .module;
        let hls = HlsConfig::default();
        let cfg = MultiConfig {
            seq_len: 6,
            episode_len: 3,
            episodes_per_iter: 2,
            ..MultiConfig::default()
        };
        let mut agent = MultiActionAgent::new(&cfg, 9);
        agent.train(&mut Input::new(&program, &hls), 2);
        let hash = |net: &Mlp| {
            let bytes: Vec<u8> = net
                .parameters()
                .iter()
                .flat_map(|p| p.to_bits().to_le_bytes())
                .collect();
            autophase_telemetry::faultfs::fnv1a(&bytes)
        };
        assert_eq!(hash(&agent.policy), 0xaba2_0834_babb_a79a);
        assert_eq!(hash(&agent.value), 0xeb86_62cb_a4a7_d360);
    }

    #[test]
    fn improves_over_initial_sequence() {
        let program = suite()
            .into_iter()
            .find(|b| b.name == "gsm")
            .unwrap()
            .module;
        let hls = HlsConfig::default();
        let cfg = MultiConfig {
            seq_len: 12,
            episode_len: 6,
            episodes_per_iter: 2,
            ..MultiConfig::default()
        };
        let mut input = Input::new(&program, &hls);
        let init_cycles = input.cycles(&[NUM_PASSES / 2; 12]);
        let (best_seq, best_cycles) = MultiActionAgent::new(&cfg, 5).train(&mut input, 4);
        assert!(best_cycles <= init_cycles);
        assert_eq!(best_seq.len(), 12);
        // 1 + (1 + 4 × 2 × (1 + 6)) = 58 compilations, ten of them of the
        // all-K/2 ordering (the check above, the global init, eight
        // resets); on gsm all 58 build four distinct modules.
        assert_eq!(input.samples(), 4);
    }
}
