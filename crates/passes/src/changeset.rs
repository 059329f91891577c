//! Function-granular change tracking for incremental evaluation.
//!
//! Every pass application can report a [`ChangeSet`]: which function slots
//! it actually rewrote, whether it added/removed functions or globals, and
//! whether any signature changed. Its readers — the dirty-only verifier
//! of the checked layer and the per-function feature resync — use this to
//! touch only what changed. Content-addressed caches need no change set:
//! a function's fingerprint is a fact of its version
//! (`autophase_ir::facts`), and a version a pass left alone keeps it.
//!
//! Correctness never depends on pass honesty: [`ChangeSet::between`]
//! derives the change set from the modules themselves. A clone taken
//! before the pass — the checked transaction's rollback snapshot — shares
//! every COW arena slot, so each `func_mut`/`global_mut` the pass makes
//! lands in a fresh allocation. The diff finds touched slots with
//! `Arc::ptr_eq` and refines pointer-moved-but-content-identical slots
//! (a pass that wrote and then reverted) by structural comparison, which
//! is equivalent to comparing per-function content fingerprints but skips
//! printing. The result is an exact dirty set at O(#slots) pointer
//! compares plus O(|touched|) content compares.

use crate::registry::{self, PassId};
use autophase_ir::module::{FuncId, GlobalId};
use autophase_ir::{Function, Module};
use std::sync::Arc;

/// What one pass application changed, at function granularity, and
/// whether global slots moved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChangeSet {
    /// Live functions whose bodies (or signatures) differ from the
    /// pre-pass module. Sorted by slot index.
    pub dirty_funcs: Vec<FuncId>,
    /// A function slot was added or removed (`-inline` dropping a callee,
    /// `-partial-inliner` outlining a new function, `-globaldce`).
    pub structural_funcs: bool,
    /// A global slot was added or removed.
    pub structural_globals: bool,
    /// Some dirty function's externally visible signature (name, params,
    /// return type) changed — callers of it may now be stale even though
    /// their own slots are clean (`-deadargelim`).
    pub sig_changed: bool,
}

impl ChangeSet {
    /// A change set that touches nothing.
    pub fn empty() -> ChangeSet {
        ChangeSet::default()
    }

    /// True if per-function incrementality is unsound and consumers must
    /// fall back to whole-module work: slots appeared/disappeared or a
    /// signature changed, so *clean* functions may reference stale ids or
    /// types (a clean caller of a removed or re-signatured callee).
    pub fn needs_full_rebuild(&self) -> bool {
        self.structural_funcs || self.structural_globals || self.sig_changed
    }

    /// What changed from `before` to `after`, where `after` is `before`
    /// with a pass applied while `before` was held (the checked
    /// transaction's snapshot): every slot the pass wrote has moved off
    /// `before`'s allocation, and of those only a slot whose content
    /// differs is dirty. Arenas of different lengths, or a global slot
    /// added or removed, are a structural change; a global whose contents
    /// changed is not tracked (no reader needs it).
    pub fn between(before: &Module, after: &Module) -> ChangeSet {
        let mut cs = ChangeSet::empty();
        let cap = after.func_capacity();
        if cap != before.func_capacity() {
            cs.structural_funcs = true;
        }
        for i in 0..cap {
            let id = FuncId::from_index(i);
            match (before.func_arc(id), after.func_arc(id)) {
                (None, None) => {}
                (Some(_), None) => cs.structural_funcs = true,
                (None, Some(_)) => {
                    cs.structural_funcs = true;
                    cs.dirty_funcs.push(id);
                }
                (Some(was), Some(now)) => {
                    if Arc::ptr_eq(was, now) {
                        continue;
                    }
                    if sig_of(was) != sig_of(now) {
                        cs.sig_changed = true;
                        cs.dirty_funcs.push(id);
                    } else if **was != **now {
                        cs.dirty_funcs.push(id);
                    }
                    // Pointer moved but content identical: the pass wrote
                    // and reverted — the slot is clean.
                }
            }
        }
        let gcap = after.global_capacity();
        cs.structural_globals = gcap != before.global_capacity()
            || (0..gcap).any(|i| {
                let id = GlobalId::from_index(i);
                before.global_arc(id).is_some() != after.global_arc(id).is_some()
            });
        cs
    }
}

/// Externally visible signature of a function: what *callers* and the
/// `main` lookup depend on.
fn sig_of(f: &Function) -> (&str, &[autophase_ir::Type], autophase_ir::Type) {
    (&f.name, &f.params, f.ret_ty)
}

/// Apply pass `id` like [`registry::apply`], additionally deriving the
/// exact [`ChangeSet`]. When the pass reports no change the set is empty
/// by the change-flag honesty contract (enforced by the PR 1 differential
/// suite: `changed == false` ⇒ printed IR is byte-identical).
pub fn apply_traced(m: &mut Module, id: PassId) -> (bool, ChangeSet) {
    let before = m.clone();
    let changed = registry::apply(m, id);
    if !changed {
        return (false, ChangeSet::empty());
    }
    (true, ChangeSet::between(&before, m))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(10), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        let r2 = b.call(helper, Type::I32, vec![r]);
        b.ret(Some(r2));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn untouched_module_diffs_empty() {
        let m = two_function_module();
        assert_eq!(ChangeSet::between(&m, &m), ChangeSet::empty());
    }

    #[test]
    fn mem2reg_dirties_only_main() {
        let mut m = two_function_module();
        let main = m.main().unwrap();
        let (changed, cs) = apply_traced(&mut m, 38);
        assert!(changed);
        assert_eq!(cs.dirty_funcs, vec![main], "helper has no allocas");
        assert!(!cs.needs_full_rebuild());
    }

    #[test]
    fn noop_pass_reports_empty_changeset() {
        let mut m = two_function_module();
        // -loweratomic is a faithful no-op on atomic-free IR.
        let (changed, cs) = apply_traced(&mut m, 44);
        assert!(!changed);
        assert_eq!(cs, ChangeSet::empty());
    }

    #[test]
    fn write_then_revert_is_clean() {
        let mut m = two_function_module();
        let main = m.main().unwrap();
        let t = m.clone();
        let old = m.func(main).name.clone();
        m.func_mut(main).name = "other".to_string();
        m.func_mut(main).name = old;
        let cs = ChangeSet::between(&t, &m);
        assert_eq!(
            cs,
            ChangeSet::empty(),
            "content-identical slot must not be dirty"
        );
    }

    #[test]
    fn signature_change_is_flagged() {
        let mut m = two_function_module();
        let helper = m.func_by_name("helper").unwrap();
        let t = m.clone();
        m.func_mut(helper).name = "renamed".to_string();
        let cs = ChangeSet::between(&t, &m);
        assert!(cs.sig_changed);
        assert_eq!(cs.dirty_funcs, vec![helper]);
        assert!(cs.needs_full_rebuild());
    }

    #[test]
    fn structural_changes_are_flagged() {
        let mut m = two_function_module();
        let helper = m.func_by_name("helper").unwrap();
        let t = m.clone();
        m.remove_function(helper);
        assert!(ChangeSet::between(&t, &m).structural_funcs);

        let mut m = two_function_module();
        let t = m.clone();
        m.add_global(autophase_ir::module::Global::zeroed("g", Type::I8, 8));
        let cs = ChangeSet::between(&t, &m);
        assert!(cs.structural_globals);
    }
}
