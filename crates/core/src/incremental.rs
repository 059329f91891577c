//! Incremental evaluation state for the phase-ordering environment.
//!
//! The environment applies one pass per step, and a pass typically touches
//! one function out of many. This module keeps every derived quantity the
//! step needs short of the profile itself — per-function content
//! fingerprints, the per-function feature decomposition, and the module a
//! transition produces — keyed or maintained so that a step's cost is
//! proportional to what the pass actually changed:
//!
//! * [`IncrementalEval`] pairs the fingerprint memo
//!   ([`ModuleFingerprints`]) with the feature decomposition
//!   ([`IncrementalFeatures`]) and routes a pass's `ChangeSet` to both,
//!   re-hashing/re-extracting only dirty functions (falling back to a
//!   full rebuild on structural or signature changes);
//! * [`SnapshotMemo`] memoizes whole *step transitions* — `(program,
//!   changing-pass sequence, pass) → post-pass module snapshot` — so
//!   re-walking a previously explored sequence (the steady state of a
//!   sharpened policy) skips pass execution itself, restoring the
//!   recorded copy-on-write snapshot instead of re-running analyses and
//!   rewrites.
//!
//! What the profiler said about a module is a different question, asked
//! of [`EvalCache`](crate::eval_cache::EvalCache) by the fingerprint
//! maintained here. The memo is the workspace's one [`BoundedMap`] (two
//! generations, no promotion on a hit) and only ever changes *when* work
//! happens, never *what* the results are: the differential suites assert
//! bit-identical features and cycle counts against the from-scratch paths.

use crate::eval_cache::ModuleFingerprints;
use autophase_features::IncrementalFeatures;
use autophase_ir::Module;
use autophase_passes::changeset::ChangeSet;
use autophase_telemetry::{BoundedMap, MapCounters};
use std::sync::Arc;

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

/// One memoized step transition: for a changing pass, the post-pass
/// module and incremental state; nothing for a pass that changed nothing.
///
/// The module snapshot is a copy-on-write clone: it shares every
/// function body `Arc` with the state it was taken from, so an entry
/// costs O(#functions) pointers, not a deep copy, and restoring it is
/// just as cheap.
#[derive(Debug)]
pub struct SnapEntry {
    state: Option<(Module, IncrementalEval)>,
}

impl SnapEntry {
    /// Entry for a pass that left the module untouched.
    pub fn noop() -> SnapEntry {
        SnapEntry { state: None }
    }

    /// Entry for a changing pass: the post-pass module (COW clone) and
    /// the incremental state synced to it.
    pub fn change(module: Module, eval: IncrementalEval) -> SnapEntry {
        SnapEntry {
            state: Some((module, eval)),
        }
    }

    /// Whether the memoized application changed the module.
    pub fn changed(&self) -> bool {
        self.state.is_some()
    }

    /// COW clones of the post-pass module and incremental state
    /// (`None` for no-op entries — there is nothing to restore).
    pub fn state_clone(&self) -> Option<(Module, IncrementalEval)> {
        self.state.as_ref().map(|(m, e)| (m.clone(), e.clone()))
    }
}

/// Memo of step transitions keyed by the *exact* identity of a state and
/// the pass applied to it: `(program index, changing-pass sequence so
/// far + the pass)`.
///
/// Passes are deterministic, and a state is fully determined by its
/// pristine program and the ordered changing passes applied to it — so a
/// hit can replace the entire pass execution (analysis, rewriting,
/// verification) with a copy-on-write restore of the recorded result,
/// bit-identical by construction. Keys are compared exactly (no
/// hashing-to-u64), so a hit can never be a collision. Faulted applies
/// are never recorded.
pub type SnapshotMemo = BoundedMap<SnapKey, Arc<SnapEntry>>;

/// A [`SnapshotMemo`] key: the program's index, and the changing passes
/// applied to it so far followed by the pass being applied.
pub type SnapKey = (usize, Vec<u16>);

/// Default capacity. Entries share function-body `Arc`s with each other
/// and with the live module, so memory scales with *distinct* function
/// versions, not entries.
pub const DEFAULT_SNAPSHOT_MEMO_CAPACITY: usize = 32_768;

/// An empty [`SnapshotMemo`] of `capacity` transitions, reporting as
/// `core.snap_memo{hit|miss|evict}`.
pub fn snapshot_memo(capacity: usize) -> SnapshotMemo {
    BoundedMap::new(capacity, MapCounters::family("core.snap_memo"))
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

    #[test]
    fn snapshot_memo_restores_exact_state() {
        let m0 = program();
        let mut memo = snapshot_memo(16);
        // Record the transition for pass 38 on the pristine state.
        let mut m = m0.clone();
        let (changed, cs) = apply_traced(&mut m, 38);
        assert!(changed);
        let mut eval = IncrementalEval::new(&m0);
        eval.apply(&m, &cs);
        memo.insert((0, vec![38]), Arc::new(SnapEntry::change(m.clone(), eval)));
        memo.insert((0, vec![38, 24]), Arc::new(SnapEntry::noop()));
        // A hit restores a bit-identical module and synced eval.
        let entry = memo.lookup(&(0, vec![38])).expect("recorded");
        assert!(entry.changed());
        let (rm, re) = entry.state_clone().expect("changing entry has state");
        assert_eq!(
            autophase_ir::printer::print_module(&rm),
            autophase_ir::printer::print_module(&m)
        );
        assert_eq!(re.module_fp(), fingerprint_module(&m));
        assert_eq!(re.features(), extract(&m));
        // No-op entries carry no state.
        let noop = memo.lookup(&(0, vec![38, 24])).expect("recorded");
        assert!(!noop.changed());
        assert!(noop.state_clone().is_none());
        // Different program index or sequence: miss.
        assert!(memo.lookup(&(1, vec![38])).is_none());
        assert!(memo.lookup(&(0, vec![38, 23])).is_none());
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }
}
