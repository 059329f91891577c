//! Feature–action–reward tuple collection and the §4 random-forest
//! importance analysis (Figures 5 and 6).
//!
//! Following §4: "To gather the training data for the forests, we run PPO
//! with high exploration parameter on 100 randomly generated programs to
//! generate feature–action–reward tuples." For each pass, two forests are
//! trained to predict *whether applying it improves the circuit*: one from
//! Table-2 program features, one from the applied-pass histogram.
//!
//! The exploring policy here is an untrained (freshly initialized) PPO
//! policy network: with exploration at 0.75 most actions are uniform
//! draws anyway, and the collector never updates the network.

use crate::env::{EnvConfig, PhaseOrderEnv};
use autophase_features::NUM_FEATURES;
use autophase_forest::{Dataset, ForestConfig, RandomForest};
use autophase_ir::Module;
use autophase_nn::{BatchWorkspace, Mlp};
use autophase_passes::registry::NUM_PASSES;
use autophase_rl::env::Environment;
use autophase_rl::rollout::sample_action;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One collected sample.
#[derive(Debug, Clone)]
pub struct Tuple {
    /// Table-2 features before the pass.
    pub features: Vec<f64>,
    /// Applied-pass histogram before the pass.
    pub histogram: Vec<f64>,
    /// The pass applied (Table-1 index).
    pub action: usize,
    /// Cycle improvement it produced.
    pub reward: f64,
}

/// Episode length while collecting.
const EPISODE_LEN: usize = 16;
/// Episodes per program.
const EPISODES_PER_PROGRAM: usize = 4;
/// Probability of acting uniformly at random instead of by policy (the
/// "high exploration parameter").
const EXPLORATION: f64 = 0.75;
/// Width of the exploring policy's two tanh hidden layers.
const HIDDEN: usize = 32;

/// Run a high-exploration policy over `programs`, recording a tuple per
/// step. The policy network is seeded `seed` and samples from a stream
/// seeded `seed ^ 0x5EED` — the streams a fresh `PpoAgent` seeded `seed`
/// would draw from.
pub fn collect_tuples(programs: &[Module], seed: u64) -> Vec<Tuple> {
    let env_cfg = EnvConfig {
        episode_len: EPISODE_LEN,
        ..EnvConfig::default()
    };
    let mut env = PhaseOrderEnv::new(programs.to_vec(), env_cfg);
    let sizes = [env.observation_dim(), HIDDEN, HIDDEN, env.num_actions()];
    let policy = Mlp::new(&sizes, seed);
    let mut ws = BatchWorkspace::new();
    let mut policy_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    let mut tuples = Vec::new();

    let episodes = programs.len() * EPISODES_PER_PROGRAM;
    for _ in 0..episodes {
        let mut obs = env.reset();
        let mut histogram = vec![0.0; env.num_actions()];
        for _ in 0..EPISODE_LEN {
            let action = if rng.gen_bool(EXPLORATION) {
                rng.gen_range(0..env.num_actions())
            } else {
                sample_action(policy.forward_one(&obs, &mut ws), &mut policy_rng).0
            };
            let step = env.step(action);
            tuples.push(Tuple {
                features: obs.clone(),
                histogram: histogram.clone(),
                action,
                reward: step.reward,
            });
            histogram[action] += 1.0;
            obs = step.observation;
            if step.done {
                break;
            }
        }
    }
    tuples
}

/// Importance matrices for the Figure 5/6 heat maps.
#[derive(Debug, Clone)]
pub struct ImportanceAnalysis {
    /// `feature_importance[pass][feature]` — Figure 5 rows (pass) ×
    /// columns (Table-2 feature). Rows sum to 1 (or are all zero when a
    /// pass never fired).
    pub feature_importance: Vec<Vec<f64>>,
    /// `history_importance[pass][prev_pass]` — Figure 6.
    pub history_importance: Vec<Vec<f64>>,
    /// Per-pass forest accuracy on its training set (diagnostic).
    pub accuracy: Vec<f64>,
}

impl ImportanceAnalysis {
    /// Passes ranked by how much total importance any feature assigns
    /// them (used to justify the §6.2 filtered pass set).
    pub fn impactful_passes(&self, top_k: usize) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = self
            .feature_importance
            .iter()
            .enumerate()
            .map(|(p, row)| (p, row.iter().sum()))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        scored.into_iter().take(top_k).map(|(p, _)| p).collect()
    }

    /// Features ranked by total importance across all passes (the basis of
    /// the filtered feature subset).
    pub fn impactful_features(&self, top_k: usize) -> Vec<usize> {
        let nf = self
            .feature_importance
            .first()
            .map(Vec::len)
            .unwrap_or(NUM_FEATURES);
        let mut total = vec![0.0; nf];
        for row in &self.feature_importance {
            for (i, v) in row.iter().enumerate() {
                total[i] += v;
            }
        }
        let mut idx: Vec<usize> = (0..nf).collect();
        idx.sort_by(|&a, &b| total[b].partial_cmp(&total[a]).expect("finite"));
        idx.truncate(top_k);
        idx
    }
}

/// Train per-pass forests and extract the heat-map matrices.
pub fn analyze(tuples: &[Tuple], forest_cfg: &ForestConfig, seed: u64) -> ImportanceAnalysis {
    let mut feature_importance = vec![vec![0.0; NUM_FEATURES]; NUM_PASSES];
    let mut history_importance = vec![vec![0.0; NUM_PASSES]; NUM_PASSES];
    let mut accuracy = vec![0.0; NUM_PASSES];

    for pass in 0..NUM_PASSES {
        let rows: Vec<&Tuple> = tuples.iter().filter(|t| t.action == pass).collect();
        if rows.len() < 10 {
            continue;
        }
        let labels: Vec<bool> = rows.iter().map(|t| t.reward > 0.0).collect();
        // Degenerate labels leave the forests importance-less; skip.
        let pos = labels.iter().filter(|&&l| l).count();
        if pos == 0 || pos == labels.len() {
            continue;
        }
        let fx: Vec<Vec<f64>> = rows.iter().map(|t| t.features.clone()).collect();
        if let Ok(data) = Dataset::new(fx, labels.clone()) {
            let forest = RandomForest::fit(&data, forest_cfg, seed ^ pass as u64);
            feature_importance[pass] = forest.feature_importance();
            accuracy[pass] = forest.accuracy(&data);
        }
        let hx: Vec<Vec<f64>> = rows.iter().map(|t| t.histogram.clone()).collect();
        if let Ok(data) = Dataset::new(hx, labels) {
            let forest = RandomForest::fit(&data, forest_cfg, seed ^ (pass as u64) << 8);
            history_importance[pass] = forest.feature_importance();
        }
    }

    ImportanceAnalysis {
        feature_importance,
        history_importance,
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_progen::{program_batch, GenConfig};

    fn small_collect() -> Vec<Tuple> {
        let programs = program_batch(&GenConfig::default(), 500, 10);
        collect_tuples(&programs, 1)
    }

    #[test]
    fn tuples_have_consistent_shapes() {
        let tuples = small_collect();
        assert!(tuples.len() >= 100);
        for t in &tuples {
            assert_eq!(t.features.len(), NUM_FEATURES);
            assert_eq!(t.histogram.len(), NUM_PASSES);
            assert!(t.action < NUM_PASSES);
        }
        // Exploration covers a healthy slice of the action space.
        let mut seen: Vec<usize> = tuples.iter().map(|t| t.action).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 20, "only {} distinct actions", seen.len());
    }

    #[test]
    fn some_rewards_are_positive() {
        let tuples = small_collect();
        let pos = tuples.iter().filter(|t| t.reward > 0.0).count();
        assert!(pos > 5, "only {pos} improving steps observed");
    }

    #[test]
    fn analysis_rows_normalized() {
        let tuples = small_collect();
        let analysis = analyze(&tuples, &ForestConfig::default(), 3);
        let mut nonzero_rows = 0;
        for row in &analysis.feature_importance {
            let s: f64 = row.iter().sum();
            assert!(s < 1.0 + 1e-6);
            if s > 0.5 {
                nonzero_rows += 1;
            }
        }
        assert!(
            nonzero_rows >= 3,
            "too few informative passes: {nonzero_rows}"
        );
        let top = analysis.impactful_passes(10);
        assert_eq!(top.len(), 10);
        let feats = analysis.impactful_features(12);
        assert_eq!(feats.len(), 12);
    }
}
