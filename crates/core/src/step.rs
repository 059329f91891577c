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
//!   under a fuel budget, resync the features from what changed.
//!
//! [`Step`] states the table and the recipe, built from an [`EnvConfig`];
//! [`Walk`] is one episode of it — the module, its features and the
//! histogram — and [`Walk::step`] is the transition. There is one driver:
//! the environment keeps its episode in a `Walk` and adds what a trainer
//! needs on top (program rotation, the masked no-op, the profile memo,
//! reward, the rollback of a wrong result); the daemon's rollout and
//! Figure 9's inference walk one directly. An action-space change is an
//! edit to [`Step::new`]'s table.

use crate::env::{EnvConfig, FeatureNorm, ObservationKind};
use autophase_features::{IncrementalFeatures, FILTERED_FEATURES, NUM_FEATURES};
use autophase_ir::Module;
use autophase_passes::checked::{apply_checked_traced, FuelBudget, PassFault};
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

/// Action table and observation recipe of one configuration; [`Walk`]
/// takes its steps.
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
}

/// One episode of the step: the module, its features kept in sync through
/// each change set, the action histogram, and the time spent in passes and
/// resyncs. The environment keeps its episode in one (cloned from each
/// program's pristine walk at reset); the daemon's rollout and Figure 9's
/// inference start one per program. [`Walk::step`] is the only statement
/// of a step's transition.
#[derive(Debug, Clone)]
pub struct Walk {
    module: Module,
    /// `extract(module)`, resynced from each change set.
    feats: IncrementalFeatures,
    histogram: Vec<f64>,
    /// Nanoseconds in checked pass applications (verification included).
    pass_ns: u64,
    /// Nanoseconds resyncing the features after them.
    features_ns: u64,
}

impl Walk {
    /// Start at `module` as it is (one full extraction).
    pub fn start(step: &Step, module: Module) -> Walk {
        Walk {
            feats: IncrementalFeatures::new(&module),
            histogram: vec![0.0; step.num_actions()],
            module,
            pass_ns: 0,
            features_ns: 0,
        }
    }

    /// The module in its current state.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The module in its current state, ending the walk.
    pub fn into_module(self) -> Module {
        self.module
    }

    /// The per-function feature decomposition of [`Walk::module`].
    pub fn features(&self) -> &IncrementalFeatures {
        &self.feats
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

    /// The observation of the current state by `step`'s recipe, in one
    /// allocation. Technique ② divides by the instruction count (feature
    /// 51) before the §4 filter drops columns.
    pub fn observe(&self, step: &Step) -> Vec<f64> {
        let mut out = Vec::with_capacity(step.obs_dim());
        if step.observation != ObservationKind::ActionHistory {
            let synced = self.feats.total();
            let total = synced[51].max(1) as f64;
            let norm = |x: i64| match step.feature_norm {
                FeatureNorm::Raw => x as f64,
                FeatureNorm::Log => (1.0 + x.max(0) as f64).ln(),
                FeatureNorm::InstCount => x as f64 / total,
            };
            out.extend(step.columns.iter().map(|&i| norm(synced[i])));
        }
        if step.observation != ObservationKind::ProgramFeatures {
            out.extend_from_slice(&self.histogram);
        }
        out
    }

    /// Take `action` of `step`'s table: whether its pass changed the
    /// module. The pass is applied transactionally under `fuel`; a faulted
    /// apply leaves the module where it was. A changing one resyncs the
    /// features: the dirty functions are re-extracted, or everything when
    /// function slots or signatures moved (feature 16 reads callee return
    /// types, so even clean callers may shift). Either way the action
    /// counts in the histogram. Like every checked apply, it polls the
    /// armed fault plan ([`autophase_passes::fault::PLAN`]).
    ///
    /// # Errors
    ///
    /// The [`PassFault`] that was isolated.
    pub fn step(
        &mut self,
        step: &Step,
        action: usize,
        fuel: &FuelBudget,
    ) -> Result<bool, PassFault> {
        self.histogram[action] += 1.0;
        let pass = step.actions[action];
        let injected = fault::poll(pass);
        let start = Instant::now();
        let applied = apply_checked_traced(&mut self.module, pass, fuel, injected);
        let applied_at = Instant::now();
        self.pass_ns += (applied_at - start).as_nanos() as u64;
        let (changed, cs) = applied?;
        if changed {
            if cs.needs_full_rebuild() {
                self.feats.rebuild(&self.module);
            } else {
                self.feats.update(&self.module, &cs.dirty_funcs);
            }
            self.features_ns += applied_at.elapsed().as_nanos() as u64;
        }
        Ok(changed)
    }

    /// Count `action` without applying it: the no-op a masked action is.
    pub(crate) fn skip(&mut self, action: usize) {
        self.histogram[action] += 1.0;
    }

    /// Return the module and features to `before`, a clone of this walk
    /// from just before a step whose result the caller refuses. The step
    /// stays counted.
    pub(crate) fn undo(&mut self, before: Walk) {
        (self.module, self.feats) = (before.module, before.feats);
    }
}
