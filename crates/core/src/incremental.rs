//! Incremental evaluation state for the phase-ordering environment.
//!
//! The environment applies one pass per step, and a pass typically touches
//! one function out of many. This module keeps every derived quantity the
//! step needs short of the profile itself — per-function content
//! fingerprints and the per-function feature decomposition — maintained so
//! that a step's cost is proportional to what the pass actually changed:
//! [`IncrementalEval`] pairs the fingerprint memo ([`ModuleFingerprints`])
//! with the feature decomposition ([`IncrementalFeatures`]) and routes a
//! pass's `ChangeSet` — the checked transaction's diff against its own
//! rollback snapshot — to both, re-hashing/re-extracting only dirty
//! functions (falling back to a full rebuild on structural or signature
//! changes).
//!
//! What the profiler said about a module is a different question, asked
//! of [`EvalCache`](crate::eval_cache::EvalCache) by the fingerprint
//! maintained here. Neither changes *what* the results are, only when work
//! happens: the differential suites assert bit-identical features and
//! cycle counts against the from-scratch paths.

use crate::eval_cache::ModuleFingerprints;
use autophase_features::IncrementalFeatures;
use autophase_ir::Module;
use autophase_passes::changeset::ChangeSet;

/// Fingerprints + feature decomposition synced to one module state.
///
/// Invariant: after [`IncrementalEval::new`] or any sequence of
/// [`IncrementalEval::apply`] calls (one per *successful, changing* pass
/// application, with the change set that application reported),
/// `module_fp()` equals `fingerprint_module(m)` and `features()` equals
/// `extract(m)` for the synced module `m`. Rolled-back (faulted) passes
/// must not call `apply` — the rollback restores the module the state is
/// already synced with.
#[derive(Debug, Clone)]
pub struct IncrementalEval {
    fps: ModuleFingerprints,
    feats: IncrementalFeatures,
}

impl IncrementalEval {
    /// Build both memos from scratch (one full hash + one full extract).
    pub fn new(m: &Module) -> IncrementalEval {
        IncrementalEval {
            fps: ModuleFingerprints::new(m),
            feats: IncrementalFeatures::new(m),
        }
    }

    /// Absorb one applied pass's change set. Dirty-only updates when the
    /// change was non-structural; full rebuilds otherwise. `m` must be the
    /// post-pass module.
    pub fn apply(&mut self, m: &Module, cs: &ChangeSet) {
        // With function slots intact the globals fingerprint may still
        // have moved; features don't read globals, so only the hash side
        // has this second reason to rebuild.
        if cs.needs_full_rebuild() || cs.globals_changed() {
            self.fps.rebuild(m);
        } else {
            self.fps.update(m, &cs.dirty_funcs);
        }
        resync_features(&mut self.feats, m, cs);
    }

    /// The combined module fingerprint (equals
    /// [`crate::eval_cache::fingerprint_module`] of the synced module).
    pub fn module_fp(&self) -> u64 {
        self.fps.value()
    }

    /// The per-function fingerprints the module value combines.
    pub fn fingerprints(&self) -> &ModuleFingerprints {
        &self.fps
    }

    /// The module feature vector (equals `extract` of the synced module).
    pub fn features(&self) -> autophase_features::FeatureVector {
        self.feats.total()
    }
}

/// The resync rule for a feature decomposition after a changing pass:
/// re-extract the dirty functions, or everything when function slots or
/// signatures moved (feature 16 reads callee return types, so even clean
/// callers may shift). `m` must be the post-pass module and `feats` synced
/// with the pre-pass one. The one statement of the rule — both
/// [`IncrementalEval::apply`] and the fingerprint-free serving walk
/// ([`crate::step::Walk`]) resync through here.
pub fn resync_features(feats: &mut IncrementalFeatures, m: &Module, cs: &ChangeSet) {
    if cs.needs_full_rebuild() {
        feats.rebuild(m);
    } else {
        feats.update(m, &cs.dirty_funcs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_cache::fingerprint_module;
    use autophase_features::extract;
    use autophase_passes::changeset::apply_traced;

    fn program() -> Module {
        autophase_benchmarks::suite()
            .into_iter()
            .find(|b| b.name == "dhrystone")
            .unwrap()
            .module
    }

    #[test]
    fn eval_tracks_pass_stream() {
        let mut m = program();
        let mut inc = IncrementalEval::new(&m);
        for pass in [38usize, 23, 33, 30, 31, 25, 9, 28, 7, 43] {
            let (changed, cs) = apply_traced(&mut m, pass);
            if changed {
                inc.apply(&m, &cs);
            }
            assert_eq!(inc.module_fp(), fingerprint_module(&m), "pass {pass}");
            assert_eq!(inc.features(), extract(&m), "pass {pass}");
        }
    }
}
