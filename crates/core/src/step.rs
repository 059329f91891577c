//! The one step of the phase-ordering environment (§5.1).
//!
//! Training ([`PhaseOrderEnv`](crate::env::PhaseOrderEnv)) and serving
//! (the daemon's greedy rollout) must agree on three decisions, or a
//! policy trained on one does not transfer to the other (§6.2, Fig. 9):
//!
//! * the **action table** — which Table-1 pass an action index means;
//! * the **observation recipe** — program features (normalised and
//!   optionally filtered) ⊕ the action histogram;
//! * the **transition** — look the pass up, apply it transactionally
//!   under a fuel budget, hand back what changed.
//!
//! [`Step`] is the only statement of all three, built from an
//! [`EnvConfig`]. The environment wraps it in what a trainer needs
//! (program rotation, the profile memo, reward); [`Walk`] is the thin
//! driver for callers that need none of that — it keeps the feature total
//! in sync through each change set and counts the histogram, nothing
//! else. Both resync their features by one rule (`resync_features`). An
//! action-space change is an edit to [`Step::new`]'s table.

use crate::env::{EnvConfig, FeatureNorm, ObservationKind};
use autophase_features::{FeatureVector, IncrementalFeatures, FILTERED_FEATURES, NUM_FEATURES};
use autophase_ir::Module;
use autophase_passes::changeset::ChangeSet;
use autophase_passes::checked::{apply_checked_traced, FaultKind, FuelBudget, PassFault};
use autophase_passes::fault;
use autophase_passes::registry::{self, NUM_PASSES};
use std::time::Instant;

/// The pass subset §4.2 finds impactful ("-scalarrepl, -gvn,
/// -scalarrepl-ssa, -loop-reduce, -loop-deletion, -reassociate,
/// -loop-rotate, -partial-inliner, -early-cse, -adce, -instcombine,
/// -simplifycfg, -dse, -loop-unroll, -mem2reg, -sroa"), plus the loop
/// canonicalizers they depend on.
pub const FILTERED_PASSES: [usize; 18] = [
    1,  // -scalarrepl
    7,  // -gvn
    11, // -scalarrepl-ssa
    12, // -loop-reduce
    14, // -loop-deletion
    15, // -reassociate
    23, // -loop-rotate
    24, // -partial-inliner
    25, // -inline
    26, // -early-cse
    28, // -adce
    29, // -loop-simplify
    30, // -instcombine
    31, // -simplifycfg
    32, // -dse
    33, // -loop-unroll
    38, // -mem2reg
    43, // -sroa
];

/// Action table, observation recipe and transition of one configuration.
#[derive(Debug, Clone)]
pub struct Step {
    /// Table-1 pass id of each action index.
    actions: Vec<usize>,
    /// Table-2 feature index of each slot of the feature block: all 56,
    /// or the §4 subset.
    columns: Vec<usize>,
    observation: ObservationKind,
    feature_norm: FeatureNorm,
    episode_len: usize,
}

impl Step {
    /// The step `cfg` describes. The §4 filter selects the action table
    /// and the feature columns together.
    pub fn new(cfg: &EnvConfig) -> Step {
        let (mut actions, columns): (Vec<usize>, Vec<usize>) = if cfg.filtered {
            (FILTERED_PASSES.to_vec(), FILTERED_FEATURES.to_vec())
        } else {
            ((0..NUM_PASSES).collect(), (0..NUM_FEATURES).collect())
        };
        if cfg.include_terminate {
            actions.push(registry::TERMINATE);
        }
        Step {
            actions,
            columns,
            observation: cfg.observation,
            feature_norm: cfg.feature_norm,
            episode_len: cfg.episode_len,
        }
    }

    /// Table-1 pass id of every action, by action index. With
    /// `include_terminate` the last one is `registry::TERMINATE`.
    pub fn actions(&self) -> &[usize] {
        &self.actions
    }

    /// Size of the action space (and of the histogram).
    pub fn num_actions(&self) -> usize {
        self.actions.len()
    }

    /// Steps per episode.
    pub fn episode_len(&self) -> usize {
        self.episode_len
    }

    /// Width of the feature block: the (possibly filtered) Table-2
    /// features.
    pub fn feature_dim(&self) -> usize {
        self.columns.len()
    }

    /// Width of an observation.
    pub fn obs_dim(&self) -> usize {
        match self.observation {
            ObservationKind::ProgramFeatures => self.feature_dim(),
            ObservationKind::ActionHistory => self.num_actions(),
            ObservationKind::Combined => self.feature_dim() + self.num_actions(),
        }
    }

    /// The observation of a module whose features are `synced` after
    /// `histogram`, in one allocation.
    ///
    /// `synced` is `extract` of the module, which both drivers maintain
    /// incrementally. Technique ② divides by the instruction count
    /// (feature 51) before the §4 filter drops columns.
    pub fn observe(&self, synced: FeatureVector, histogram: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.obs_dim());
        if self.observation != ObservationKind::ActionHistory {
            let total = synced[51].max(1) as f64;
            let norm = |x: i64| match self.feature_norm {
                FeatureNorm::Raw => x as f64,
                FeatureNorm::Log => (1.0 + x.max(0) as f64).ln(),
                FeatureNorm::InstCount => x as f64 / total,
            };
            out.extend(self.columns.iter().map(|&i| norm(synced[i])));
        }
        if self.observation != ObservationKind::ProgramFeatures {
            out.extend_from_slice(histogram);
        }
        out
    }

    /// Apply `action`'s pass to `m` transactionally: `(changed, what
    /// changed)`, or the fault with `m` rolled back to its verified
    /// pre-pass state (telemetry counted by the checked layer).
    /// `injected` forces a fault the caller polled from an injection
    /// plan; `None` is the plain checked path. `-terminate` is a no-op.
    ///
    /// # Errors
    ///
    /// The [`PassFault`] that was isolated.
    pub fn apply(
        &self,
        m: &mut Module,
        action: usize,
        fuel: &FuelBudget,
        injected: Option<FaultKind>,
    ) -> Result<(bool, ChangeSet), PassFault> {
        apply_checked_traced(m, self.actions[action], fuel, injected)
    }
}

/// The resync rule for a feature decomposition after a changing pass:
/// re-extract the dirty functions, or everything when function slots or
/// signatures moved (feature 16 reads callee return types, so even clean
/// callers may shift). `m` must be the post-pass module and `feats` synced
/// with the pre-pass one. The environment's step and [`Walk::step`] both
/// resync through here.
pub(crate) fn resync_features(feats: &mut IncrementalFeatures, m: &Module, cs: &ChangeSet) {
    if cs.needs_full_rebuild() {
        feats.rebuild(m);
    } else {
        feats.update(m, &cs.dirty_funcs);
    }
}

/// One rollout over a module by a driver that keeps no memos or reward:
/// only what an observation reads. The daemon serves through this;
/// driving a whole `PhaseOrderEnv` per request would pay for a reset
/// profile and cycle lookups it never reads (measured at 2× the rollout,
/// DESIGN.md §4g).
pub struct Walk<'a> {
    step: &'a Step,
    module: &'a mut Module,
    /// `extract(module)`, resynced from each change set.
    feats: IncrementalFeatures,
    histogram: Vec<f64>,
    /// Nanoseconds in checked pass applications (verification included).
    pass_ns: u64,
    /// Nanoseconds resyncing the features after them.
    features_ns: u64,
}

impl<'a> Walk<'a> {
    /// Start at `module` as it is (one full extraction).
    pub fn start(step: &'a Step, module: &'a mut Module) -> Walk<'a> {
        Walk {
            feats: IncrementalFeatures::new(module),
            histogram: vec![0.0; step.num_actions()],
            step,
            module,
            pass_ns: 0,
            features_ns: 0,
        }
    }

    /// Nanoseconds this walk's steps spent applying passes, each checked
    /// apply's verification included.
    pub fn pass_ns(&self) -> u64 {
        self.pass_ns
    }

    /// Nanoseconds this walk's steps spent resyncing the features.
    pub fn features_ns(&self) -> u64 {
        self.features_ns
    }

    /// The observation of the current state.
    pub fn observe(&self) -> Vec<f64> {
        self.step.observe(self.feats.total(), &self.histogram)
    }

    /// Take `action`: whether its pass changed the module. A faulted
    /// apply leaves the module where it was; either way the action
    /// counts in the histogram. Like every checked apply, it polls the
    /// armed fault plan ([`autophase_passes::fault::PLAN`]).
    ///
    /// # Errors
    ///
    /// The [`PassFault`] that was isolated.
    pub fn step(&mut self, action: usize, fuel: &FuelBudget) -> Result<bool, PassFault> {
        self.histogram[action] += 1.0;
        let injected = fault::poll(self.step.actions[action]);
        let start = Instant::now();
        let applied = self.step.apply(self.module, action, fuel, injected);
        let applied_at = Instant::now();
        self.pass_ns += (applied_at - start).as_nanos() as u64;
        let (changed, cs) = applied?;
        if changed {
            resync_features(&mut self.feats, self.module, &cs);
            self.features_ns += applied_at.elapsed().as_nanos() as u64;
        }
        Ok(changed)
    }
}
