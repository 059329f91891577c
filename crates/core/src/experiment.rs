//! Experiment runners for every figure in the paper's evaluation.
//!
//! Each runner is parameterized by a scale so unit tests can run miniature
//! versions while the `autophase-bench` binaries run paper-scale ones.

use crate::algorithms::{run_algorithm, search, AlgoResult, Algorithm, Budget};
use crate::compile::Input;
use crate::dataset::{analyze, collect_tuples, ImportanceAnalysis};
use crate::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use crate::eval_cache::EvalCache;
use crate::step::{Step, Walk};
use autophase_forest::ForestConfig;
use autophase_hls::HlsConfig;
use autophase_ir::Module;
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::registry::TERMINATE;
use autophase_progen::{program_batch, GenConfig};
use autophase_rl::env::Environment;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_search::Objective;
use std::sync::Arc;

// ---------------------------------------------------------------- Fig 5/6

/// Run the §4 importance analysis on `n_programs` random programs
/// (Figures 5 and 6).
pub fn fig5_fig6(n_programs: usize, seed: u64) -> ImportanceAnalysis {
    let programs = program_batch(&GenConfig::default(), seed, n_programs);
    let tuples = collect_tuples(&programs, seed);
    analyze(&tuples, &ForestConfig::default(), seed)
}

// ------------------------------------------------------------------ Fig 7

/// Figure 7: all algorithms on all nine benchmarks.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// `(benchmark name, per-algorithm results in Algorithm::ALL order)`.
    pub per_benchmark: Vec<(String, Vec<AlgoResult>)>,
}

impl Fig7Result {
    /// Mean improvement over `-O3` per algorithm (the bar heights).
    pub fn mean_improvement(&self) -> Vec<(Algorithm, f64)> {
        self.mean_per_algorithm(|r| r.improvement_over_o3)
    }

    /// Mean samples per program per algorithm (the blue line).
    pub fn mean_samples(&self) -> Vec<(Algorithm, f64)> {
        self.mean_per_algorithm(|r| r.samples as f64)
    }

    fn mean_per_algorithm(&self, value: impl Fn(&AlgoResult) -> f64) -> Vec<(Algorithm, f64)> {
        let n = self.per_benchmark.len() as f64;
        let mean = |i: usize| {
            self.per_benchmark
                .iter()
                .map(|(_, rs)| value(&rs[i]))
                .sum::<f64>()
                / n
        };
        Algorithm::ALL
            .iter()
            .enumerate()
            .map(|(i, &alg)| (alg, mean(i)))
            .collect()
    }
}

/// Run Figure 7 over the given benchmarks (pass `autophase_benchmarks::
/// suite()` programs for the paper's nine).
pub fn fig7(benchmarks: &[(String, Module)], budget: &Budget, seed: u64) -> Fig7Result {
    let hls = HlsConfig::default();
    let mut per_benchmark = Vec::new();
    for (name, program) in benchmarks {
        let mut reference = Input::new(program, &hls);
        let o3 = reference.cycles(O3_SEQUENCE);
        let results: Vec<AlgoResult> = Algorithm::ALL
            .iter()
            .map(|&alg| run_algorithm(alg, &reference, o3, budget, seed))
            .collect();
        per_benchmark.push((name.clone(), results));
    }
    Fig7Result { per_benchmark }
}

// ------------------------------------------------------------------ Fig 8

/// One learning curve of Figure 8.
#[derive(Debug, Clone)]
pub struct LearningCurve {
    /// Configuration label (`filtered-norm1`, `filtered-norm2`,
    /// `original-norm2`).
    pub label: &'static str,
    /// Environment steps at each point.
    pub steps: Vec<u64>,
    /// Episode reward mean at each point.
    pub reward_mean: Vec<f64>,
}

impl LearningCurve {
    /// Mean reward over the last quarter of training (convergence level).
    pub fn final_level(&self) -> f64 {
        let n = self.reward_mean.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.reward_mean[n - (n / 4).max(1)..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// First step index at which the curve reaches `frac` of its final
    /// level (convergence speed).
    pub fn steps_to_reach(&self, frac: f64) -> Option<u64> {
        let target = self.final_level() * frac;
        self.reward_mean
            .iter()
            .position(|&r| r >= target)
            .map(|i| self.steps[i])
    }
}

/// The three Figure-8 configurations.
fn fig8_configs() -> Vec<(&'static str, EnvConfig)> {
    let base = EnvConfig {
        observation: ObservationKind::Combined,
        reward: RewardKind::Log,
        episode_len: 12,
        ..EnvConfig::default()
    };
    vec![
        (
            "filtered-norm1",
            EnvConfig {
                feature_norm: FeatureNorm::Log,
                filtered: true,
                ..base.clone()
            },
        ),
        (
            "filtered-norm2",
            EnvConfig {
                feature_norm: FeatureNorm::InstCount,
                filtered: true,
                ..base.clone()
            },
        ),
        (
            "original-norm2",
            EnvConfig {
                feature_norm: FeatureNorm::InstCount,
                filtered: false,
                ..base
            },
        ),
    ]
}

/// Figure 8: episode-reward-mean curves for the three normalization /
/// filtering configurations, trained on `n_programs` random programs.
///
/// The three environments share one [`EvalCache`], so a module profiled
/// while training one curve is a hit for the others. Cache entries are
/// configuration-independent — the key is the module's content
/// fingerprint and the value the raw profiler report, while the action
/// table, normalization and filtering live in the environment — so
/// sharing changes no curve.
pub fn fig8(n_programs: usize, iterations: usize, seed: u64) -> Vec<LearningCurve> {
    let programs = program_batch(&GenConfig::default(), seed, n_programs);
    let cache = Arc::new(EvalCache::default());
    let ppo = PpoConfig {
        hidden: vec![256, 256],
        horizon: 96,
        minibatch: 32,
        max_episode_len: 12,
        ..PpoConfig::default()
    };
    fig8_configs()
        .into_iter()
        .map(|(label, env_cfg)| {
            let mut env = PhaseOrderEnv::with_cache(programs.clone(), env_cfg, Arc::clone(&cache));
            let mut agent = PpoAgent::new(env.observation_dim(), env.num_actions(), &ppo, seed);
            let rewards = agent.train(&mut env, iterations);
            let steps: Vec<u64> = (1..=rewards.len() as u64)
                .map(|i| i * ppo.horizon as u64)
                .collect();
            LearningCurve {
                label,
                steps,
                reward_mean: rewards,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Fig 9

/// A generalization result: one algorithm applied to unseen programs with
/// a single compilation each.
#[derive(Debug, Clone)]
pub struct GeneralizationResult {
    /// Algorithm label (Figure 9's bar names).
    pub label: String,
    /// Mean fractional improvement over `-O3` across the test programs.
    pub mean_improvement: f64,
    /// Samples per program at inference (1 for everything in Figure 9).
    pub samples_per_program: u64,
}

/// Episode / sequence length used throughout the generalization
/// experiments (both the RL episodes and the fixed sequences the black-box
/// searches optimize, so the comparison stays fair).
pub const GENERALIZATION_EPISODE_LEN: usize = 24;

/// Train a PPO agent for generalization (the §6.2 setup: combined
/// observation, 256×256 network, log reward) and return it with its env
/// config.
pub fn train_generalist(
    programs: &[Module],
    norm: FeatureNorm,
    filtered: bool,
    iterations: usize,
    seed: u64,
) -> (PpoAgent, EnvConfig) {
    let env_cfg = EnvConfig {
        observation: ObservationKind::Combined,
        feature_norm: norm,
        reward: RewardKind::Log,
        episode_len: GENERALIZATION_EPISODE_LEN,
        filtered,
        ..EnvConfig::default()
    };
    let ppo = PpoConfig {
        hidden: vec![256, 256],
        horizon: 96,
        minibatch: 32,
        max_episode_len: GENERALIZATION_EPISODE_LEN,
        entropy_coef: 0.02,
        ..PpoConfig::default()
    };
    let mut env = PhaseOrderEnv::new(programs.to_vec(), env_cfg.clone());
    let mut agent = PpoAgent::new(env.observation_dim(), env.num_actions(), &ppo, seed);
    agent.train(&mut env, iterations);
    (agent, env_cfg)
}

/// One-shot inference: roll the trained policy greedily over a copy of
/// `program` and return the ordering it chose (a `-terminate` it chose
/// included) and the final cycle count. The rollout is the daemon's:
/// [`Walk`] over the [`Step`] `env_cfg` describes, each pass checked
/// under `env_cfg.fuel`, no intermediate profile, so exactly one sample
/// — the final compilation — is charged, as in Figure 9. The final module
/// is scored against `program`'s own run ([`crate::compile::score`]).
pub fn infer_sequence(
    agent: &PpoAgent,
    env_cfg: &EnvConfig,
    program: &Module,
) -> (Vec<usize>, u64) {
    infer_with(agent, env_cfg, &mut Input::new(program, &env_cfg.hls))
}

/// [`infer_sequence`] over `input`'s program, scored through `input`: a
/// caller that already profiled the program pays only for the final
/// compilation.
fn infer_with(agent: &PpoAgent, env_cfg: &EnvConfig, input: &mut Input) -> (Vec<usize>, u64) {
    let step = Step::new(env_cfg);
    let mut m = input.program().clone();
    let mut walk = Walk::start(&step, &mut m);
    let mut seq = Vec::new();
    for _ in 0..step.episode_len() {
        let action = agent.act_greedy(&walk.observe());
        seq.push(step.actions()[action]);
        if step.actions()[action] == TERMINATE {
            break;
        }
        // A faulted pass was rolled back: a no-op step, as in the env.
        let _ = walk.step(action, &env_cfg.fuel);
    }
    (seq, input.score(&m))
}

/// Figure 9: train deep-RL generalists on random programs; search fixed
/// sequences with the black-box baselines on the same training set; apply
/// everything to the unseen test programs with one compilation each.
pub fn fig9(
    train: &[Module],
    test: &[(String, Module)],
    train_iterations: usize,
    search_budget: u64,
    seed: u64,
) -> Vec<GeneralizationResult> {
    let hls = HlsConfig::default();
    let seq_len = GENERALIZATION_EPISODE_LEN;

    // Aggregate objective on the training set: total cycles normalized per
    // program (so no single program dominates).
    let mut inputs: Vec<Input> = train.iter().map(|p| Input::new(p, &hls)).collect();
    let baselines: Vec<f64> = inputs
        .iter_mut()
        .map(|input| input.cycles(O3_SEQUENCE).max(1) as f64)
        .collect();
    let mut aggregate = |seq: &[usize]| -> f64 {
        inputs
            .iter_mut()
            .zip(&baselines)
            .map(|(input, b)| input.cycles(seq) as f64 / b)
            .sum()
    };

    let mut results = Vec::new();
    let mut evaluate = |label: &str, cycles: &dyn Fn(&mut Input) -> u64| {
        results.push(GeneralizationResult {
            label: label.to_string(),
            mean_improvement: mean_improvement_over_o3(test.iter().map(|(_, p)| p), &hls, cycles),
            samples_per_program: 1,
        });
    };

    // Black-box baselines: overfit a fixed sequence to the training set.
    for algorithm in [
        Algorithm::GeneticDeap,
        Algorithm::OpenTuner,
        Algorithm::Greedy,
    ] {
        let r = search(
            algorithm,
            &mut Objective::new(&mut aggregate),
            seq_len,
            search_budget,
            seed,
        );
        evaluate(algorithm.name(), &|input| input.cycles(&r.best_sequence));
    }

    // Deep RL: per-program adaptive inference.
    for (label, norm) in [
        ("RL-filtered-norm1", FeatureNorm::Log),
        ("RL-filtered-norm2", FeatureNorm::InstCount),
    ] {
        let (agent, env_cfg) = train_generalist(train, norm, true, train_iterations, seed);
        evaluate(label, &|input| infer_with(&agent, &env_cfg, input).1);
    }
    results
}

/// The mean over `programs` of `(o3 − c)/o3`, where `c` is what `cycles`
/// scores a program at (given its [`Input`]) and `o3` what `-O3` does.
fn mean_improvement_over_o3<'a>(
    programs: impl ExactSizeIterator<Item = &'a Module>,
    hls: &HlsConfig,
    cycles: impl Fn(&mut Input) -> u64,
) -> f64 {
    let n = programs.len() as f64;
    let sum: f64 = programs
        .map(|p| {
            let mut input = Input::new(p, hls);
            let (o3, c) = (input.cycles(O3_SEQUENCE), cycles(&mut input));
            (o3 as f64 - c as f64) / o3 as f64
        })
        .sum();
    sum / n
}

/// §6.2's closing experiment: the trained `filtered-norm2` generalist
/// applied to `n_test` *random* unseen programs; returns the mean
/// improvement over `-O3` (the paper reports 6% on 12,874 programs).
pub fn generalize_random(
    train: &[Module],
    n_test: usize,
    train_iterations: usize,
    seed: u64,
) -> f64 {
    let hls = HlsConfig::default();
    let (agent, env_cfg) =
        train_generalist(train, FeatureNorm::InstCount, true, train_iterations, seed);
    let test = program_batch(&GenConfig::default(), seed ^ 0xBEEF, n_test);
    mean_improvement_over_o3(test.iter(), &hls, |input| {
        infer_with(&agent, &env_cfg, input).1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_benchmarks::suite;

    fn two_benchmarks() -> Vec<(String, Module)> {
        suite()
            .into_iter()
            .filter(|b| b.name == "gsm" || b.name == "matmul")
            .map(|b| (b.name.to_string(), b.module))
            .collect()
    }

    #[test]
    fn fig7_miniature_has_expected_shape() {
        let r = fig7(&two_benchmarks(), &Budget::tiny(), 3);
        assert_eq!(r.per_benchmark.len(), 2);
        let means = r.mean_improvement();
        assert_eq!(means.len(), Algorithm::ALL.len());
        // O0 strictly worse than O3; O3 exactly zero.
        let get = |a: Algorithm| means.iter().find(|(x, _)| *x == a).unwrap().1;
        assert!(get(Algorithm::O0) < 0.0);
        assert_eq!(get(Algorithm::O3), 0.0);
        // Searches find something better than doing nothing (O0).
        assert!(get(Algorithm::Greedy) > get(Algorithm::O0));
        let samples = r.mean_samples();
        assert!(samples.iter().all(|(_, s)| *s >= 1.0));
    }

    #[test]
    fn fig8_miniature_curves() {
        let curves = fig8(3, 3, 7);
        assert_eq!(curves.len(), 3);
        for c in &curves {
            assert_eq!(c.steps.len(), 3);
            assert_eq!(c.reward_mean.len(), 3);
            assert!(c.steps[1] > c.steps[0]);
        }
        let labels: Vec<&str> = curves.iter().map(|c| c.label).collect();
        assert_eq!(
            labels,
            vec!["filtered-norm1", "filtered-norm2", "original-norm2"]
        );
    }

    #[test]
    fn infer_sequence_returns_passes() {
        let train = program_batch(&GenConfig::default(), 50, 2);
        let (agent, cfg) = train_generalist(&train, FeatureNorm::InstCount, true, 1, 2);
        let p = two_benchmarks().remove(0).1;
        let (seq, cycles) = infer_sequence(&agent, &cfg, &p);
        assert!(!seq.is_empty());
        assert!(seq
            .iter()
            .all(|&s| s < autophase_passes::registry::NUM_PASSES));
        assert!(cycles > 0);
    }
}
