//! Incremental feature extraction: re-extract only dirty functions.
//!
//! [`extract`](crate::extract::extract) is the element-wise sum of
//! [`extract_function`] over all live
//! functions, so a per-function decomposition can be maintained under
//! pass application: subtract the old vector of each dirty function, re-
//! extract it, add the new vector back. Clean functions cost nothing —
//! the `feature_extract_skipped_total` telemetry counter tracks how many.
//!
//! The decomposition is only stable while function ids and signatures are
//! stable (feature 16 reads callee return types), so callers must route
//! structural or signature changes through [`IncrementalFeatures::rebuild`].
//! The caller (the phase-ordering environment) derives that distinction
//! from the pass layer's `ChangeSet`.

use crate::extract::{accumulate, extract_function, subtract, FeatureVector, NUM_FEATURES};
use autophase_ir::{FuncId, Module};
use autophase_telemetry as telemetry;

/// Per-function feature decomposition summed into a module total.
///
/// Invariant (checked by `debug_assert` in tests and the differential
/// suite): `total == extract(m)` for the module it was last synced with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncrementalFeatures {
    /// Slot-indexed per-function vectors (`None` for empty slots).
    per_func: Vec<Option<FeatureVector>>,
    total: FeatureVector,
}

impl IncrementalFeatures {
    /// Build the decomposition from scratch (one full extraction).
    pub fn new(m: &Module) -> IncrementalFeatures {
        let mut inc = IncrementalFeatures {
            per_func: Vec::new(),
            total: [0i64; NUM_FEATURES],
        };
        inc.rebuild(m);
        inc
    }

    /// The module feature vector (bit-identical to `extract(m)` for the
    /// module this state is synced with).
    pub fn total(&self) -> FeatureVector {
        self.total
    }

    /// Re-extract everything. Required after structural changes (function
    /// slots added/removed) or signature changes (feature 16 depends on
    /// callee return types, so even clean callers may shift).
    pub fn rebuild(&mut self, m: &Module) {
        self.per_func.clear();
        self.per_func.resize(m.func_capacity(), None);
        self.total = [0i64; NUM_FEATURES];
        for fid in m.func_ids() {
            let f = extract_function(m, fid);
            accumulate(&mut self.total, &f);
            self.per_func[fid.index()] = Some(f);
        }
    }

    /// Re-extract only `dirty` functions; everything else is reused.
    ///
    /// Sound only when the change was non-structural with unchanged
    /// signatures — the caller is responsible for falling back to
    /// [`IncrementalFeatures::rebuild`] otherwise (see
    /// `ChangeSet::needs_full_rebuild` in the passes crate).
    pub fn update(&mut self, m: &Module, dirty: &[FuncId]) {
        for &fid in dirty {
            let slot = &mut self.per_func[fid.index()];
            if let Some(old) = slot.as_ref() {
                subtract(&mut self.total, old);
            }
            let f = extract_function(m, fid);
            accumulate(&mut self.total, &f);
            *slot = Some(f);
        }
        if telemetry::enabled() {
            let live = self.per_func.iter().filter(|s| s.is_some()).count();
            let skipped = live.saturating_sub(dirty.len()) as u64;
            telemetry::incr("feature_extract_skipped_total", "", skipped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{BinOp, Type, Value};

    fn two_function_module() -> Module {
        let mut m = Module::new("t");
        let mut h = FunctionBuilder::new("helper", vec![Type::I32], Type::I32);
        let d = h.binary(BinOp::Mul, h.arg(0), Value::i32(2));
        h.ret(Some(d));
        let helper = m.add_function(h.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(3));
        let v = b.load(Type::I32, acc);
        let r = b.call(helper, Type::I32, vec![v]);
        b.ret(Some(r));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn new_matches_full_extract() {
        let m = two_function_module();
        let inc = IncrementalFeatures::new(&m);
        assert_eq!(inc.total(), extract(&m));
    }

    #[test]
    fn dirty_update_matches_full_extract() {
        let mut m = two_function_module();
        let mut inc = IncrementalFeatures::new(&m);
        let main = m.main().unwrap();
        // Mutate main only (mem2reg removes its alloca/load/store).
        assert!(autophase_passes::mem2reg::run(&mut m));
        inc.update(&m, &[main]);
        assert_eq!(inc.total(), extract(&m));
    }

    #[test]
    fn rebuild_after_structural_change_matches() {
        let mut m = two_function_module();
        let mut inc = IncrementalFeatures::new(&m);
        let helper = m.func_by_name("helper").unwrap();
        // Remove the call, then the callee (structural).
        assert!(autophase_passes::inline::run(&mut m));
        if m.func_exists(helper) {
            m.remove_function(helper);
        }
        inc.rebuild(&m);
        assert_eq!(inc.total(), extract(&m));
    }

    #[test]
    fn update_with_empty_dirty_set_is_identity() {
        let m = two_function_module();
        let mut inc = IncrementalFeatures::new(&m);
        let before = inc.clone();
        inc.update(&m, &[]);
        assert_eq!(inc, before);
    }
}
