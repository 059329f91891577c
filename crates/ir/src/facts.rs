//! Function facts computed at most once per function version.
//!
//! A pass, the verifier after it and the feature resync after that all
//! ask the same questions of the same function: its [`Cfg`], its
//! [`DomTree`], its loop forest and its reverse-use index ([`UserIndex`]).
//! Every content-addressed cache asks one more: the function's content
//! fingerprint ([`Facts::fingerprint`]), which
//! [`fingerprint_module`](crate::fingerprint::fingerprint_module) folds
//! into the module's key. [`Module::facts`] answers them all from one
//! [`Facts`] per *version* of the function, each fact built on first
//! request, so a function a pass left alone is never hashed again. One
//! more slot holds what a dead-code sweep of the version kept; the sweep
//! alone reads it ([`Facts::sweep_survivors`]).
//!
//! [`Module::facts`]: crate::module::Module::facts
//! [`Module::func_mut`]: crate::module::Module::func_mut
//! [`Module::add_function`]: crate::module::Module::add_function
//!
//! # Versions
//!
//! A version is one `Arc<Function>` allocation between two writes. Every
//! write goes through [`Module::func_mut`] (`Arc::make_mut`), and a new
//! function through [`Module::add_function`]: nothing else hands out a
//! `&mut Function` from a module. The store keeps a [`Weak`] to the
//! allocation each entry was computed from, and that is what makes a
//! version impossible to mistake for another:
//!
//! * while the `Weak` lives, the allocation cannot be freed, so no other
//!   function can ever be allocated at its address;
//! * `Arc::make_mut` on an allocation a `Weak` still points at moves the
//!   value into a fresh allocation (when the `Arc` is shared it deep-copies
//!   it), and the old `Weak` no longer upgrades.
//!
//! So an entry whose `Weak` points at the `Arc` being asked about was
//! computed from exactly the value that `Arc` holds.
//!
//! # Bounds
//!
//! The store is per thread (a rollout runs on one thread) and holds at most
//! [`CAPACITY`] entries; a new entry takes the place of one whose version
//! is gone, else of the oldest. A version asked about on a second thread
//! is computed again there, its fingerprint included. It has no option
//! and changes no answer: like `hls::ScheduleCache`, it is invisible
//! except in time.

use crate::cfg::Cfg;
use crate::csr::Csr;
use crate::dom::DomTree;
use crate::fingerprint::fingerprint_function;
use crate::function::{BlockId, Function, InstId};
use crate::loops::{find_loops, Loop};
use crate::value::Value;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Weak};

/// Entries one thread's store holds.
pub const CAPACITY: usize = 32;

/// The facts of one function version (see the module docs). Each is
/// computed on first request.
///
/// A handle stays readable after the function is written, as a snapshot
/// of the version it describes, but a fact not yet computed then can no
/// longer be: asking for it panics.
#[derive(Debug)]
pub struct Facts {
    func: Weak<Function>,
    cfg: OnceCell<Cfg>,
    dom: OnceCell<DomTree>,
    loops: OnceCell<Vec<Loop>>,
    users: OnceCell<UserIndex>,
    fingerprint: OnceCell<u64>,
    survivors: OnceCell<Vec<InstId>>,
}

impl Facts {
    fn new(func: Weak<Function>) -> Facts {
        Facts {
            func,
            cfg: OnceCell::new(),
            dom: OnceCell::new(),
            loops: OnceCell::new(),
            users: OnceCell::new(),
            fingerprint: OnceCell::new(),
            survivors: OnceCell::new(),
        }
    }

    fn compute<T>(&self, f: impl FnOnce(&Function) -> T) -> T {
        let func = self
            .func
            .upgrade()
            .expect("a fact of a function version that has since been written");
        f(&func)
    }

    /// The control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        self.cfg.get_or_init(|| self.compute(Cfg::new))
    }

    /// The dominator tree.
    pub fn dom(&self) -> &DomTree {
        self.dom.get_or_init(|| {
            let cfg = self.cfg();
            self.compute(|f| DomTree::new(f, cfg))
        })
    }

    /// The natural loops, outermost header first ([`find_loops`]).
    pub fn loops(&self) -> &[Loop] {
        self.loops.get_or_init(|| {
            let (cfg, dom) = (self.cfg(), self.dom());
            self.compute(|f| find_loops(f, cfg, dom))
        })
    }

    /// The reverse-use index.
    pub fn users(&self) -> &UserIndex {
        self.users.get_or_init(|| self.compute(UserIndex::build))
    }

    /// The content fingerprint ([`fingerprint_function`]).
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| self.compute(fingerprint_function))
    }

    /// The unused instructions the dead-code sweep of this version kept,
    /// if one ran on it. The slot belongs to the sweep (`delete_dead` in
    /// the passes crate), which alone decides what the list still means.
    pub fn sweep_survivors(&self) -> Option<&[InstId]> {
        self.survivors.get().map(Vec::as_slice)
    }

    /// Record what a dead-code sweep of this version kept (see
    /// [`Facts::sweep_survivors`]).
    pub fn set_sweep_survivors(&self, kept: Vec<InstId>) {
        // A second sweep of the same version keeps the same.
        let _ = self.survivors.set(kept);
    }
}

/// A one-scan reverse-use index: for every instruction result, the list of
/// `(user instruction, user's block)` pairs, plus per-value use counts.
///
/// One O(n) scan answers every user query of a pass in O(1), where a scan
/// per candidate would cost O(n²). Read it through [`Facts::users`]; it
/// describes the version it was built from.
#[derive(Debug)]
pub struct UserIndex {
    users: Csr<(InstId, BlockId)>,
}

impl UserIndex {
    /// Scan `f` once and build the index.
    pub fn build(f: &Function) -> UserIndex {
        let cap = f.inst_capacity();
        let mut uses: Vec<(usize, (InstId, BlockId))> = Vec::with_capacity(2 * cap);
        for bb in f.block_ids() {
            for &iid in &f.block(bb).insts {
                f.inst(iid).for_each_operand(|v| {
                    if let Value::Inst(dep) = v {
                        if dep.index() < cap {
                            uses.push((dep.index(), (iid, bb)));
                        }
                    }
                });
            }
        }
        UserIndex {
            users: Csr::build(cap, uses.iter().copied()),
        }
    }

    /// Users of instruction `id`'s result (an instruction using it twice
    /// appears twice).
    pub fn users(&self, id: InstId) -> &[(InstId, BlockId)] {
        self.users.get(id.index())
    }

    /// Number of uses of instruction `id`'s result.
    pub fn use_count(&self, id: InstId) -> usize {
        self.users(id).len()
    }
}

/// One thread's entries, oldest first in insertion order from `next`.
#[derive(Default)]
struct Store {
    entries: Vec<Rc<Facts>>,
    next: usize,
}

thread_local! {
    static STORE: RefCell<Store> = RefCell::new(Store::default());
}

/// The facts of the version `func` holds (see
/// [`Module::facts`](crate::module::Module::facts)).
pub(crate) fn of(func: &Arc<Function>) -> Rc<Facts> {
    let at = Arc::as_ptr(func);
    STORE.with(|store| {
        let mut store = store.borrow_mut();
        if let Some(hit) = store.entries.iter().find(|e| e.func.as_ptr() == at) {
            return Rc::clone(hit);
        }
        let facts = Rc::new(Facts::new(Arc::downgrade(func)));
        if store.entries.len() < CAPACITY {
            store.entries.push(Rc::clone(&facts));
        } else {
            let slot = store
                .entries
                .iter()
                .position(|e| e.func.strong_count() == 0)
                .unwrap_or(store.next);
            store.entries[slot] = Rc::clone(&facts);
            store.next = (slot + 1) % CAPACITY;
        }
        facts
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::{FuncId, Module};
    use crate::types::Type;

    fn looped() -> Module {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(3), |_, _| {});
        b.ret(Some(Value::i32(0)));
        let mut m = Module::new("m");
        m.add_function(b.finish());
        m
    }

    #[test]
    fn one_version_computes_each_fact_once() {
        let m = looped();
        let id = m.main().unwrap();
        let (a, b) = (m.facts(id), m.facts(id));
        assert!(Rc::ptr_eq(&a, &b));
        assert!(std::ptr::eq(a.cfg(), b.cfg()));
        assert_eq!(a.loops().len(), 1);
        // A clone shares the version, and so its facts.
        assert!(Rc::ptr_eq(&a, &m.clone().facts(id)));
    }

    #[test]
    fn a_write_makes_a_new_version() {
        let mut m = looped();
        let id = m.main().unwrap();
        let before = m.facts(id);
        assert_eq!(before.loops().len(), 1);
        // Uniquely owned, yet the write still leaves the old version.
        let f = m.func_mut(id);
        let extra = f.add_block();
        f.append_inst(
            extra,
            crate::Inst::new(Type::Void, crate::Opcode::Unreachable),
        );
        let after = m.facts(id);
        assert!(!Rc::ptr_eq(&before, &after));
        assert_eq!(after.cfg().rpo().len(), before.cfg().rpo().len());
        assert!(!after.cfg().is_reachable(extra));
        // The old handle still reads what it computed.
        assert_eq!(before.loops().len(), 1);
    }

    #[test]
    fn a_version_is_hashed_once() {
        let mut m = looped();
        let id = m.main().unwrap();
        let before = m.facts(id);
        let fp = before.fingerprint();
        assert_eq!(fp, fingerprint_function(m.func(id)));
        assert_eq!(before.fingerprint.get(), Some(&fp));
        // A clone shares the version, and so the hash.
        let copy = m.clone();
        assert_eq!(copy.facts(id).fingerprint.get(), Some(&fp));
        // A write yields a fresh version, hashed anew on request.
        m.func_mut(id).name = "renamed".into();
        let after = m.facts(id);
        assert_eq!(after.fingerprint.get(), None);
        assert_eq!(after.fingerprint(), fingerprint_function(m.func(id)));
        assert_ne!(after.fingerprint(), fp);
        // The clone still holds the old version and its hash.
        assert_eq!(copy.facts(id).fingerprint(), fp);
    }

    #[test]
    #[should_panic(expected = "since been written")]
    fn a_stale_handle_computes_nothing_new() {
        let mut m = looped();
        let id = m.main().unwrap();
        let before = m.facts(id);
        m.func_mut(id).name = "renamed".into();
        let _ = before.users();
    }

    #[test]
    fn the_store_is_bounded() {
        let mut m = Module::new("m");
        let ids: Vec<FuncId> = (0..3 * CAPACITY)
            .map(|i| m.add_function(Function::new(format!("f{i}"), vec![], Type::Void)))
            .collect();
        let held: Vec<Rc<Facts>> = ids.iter().map(|&id| m.facts(id)).collect();
        STORE.with(|s| assert_eq!(s.borrow().entries.len(), CAPACITY));
        // An evicted version is computed afresh, never confused.
        assert!(!Rc::ptr_eq(&held[0], &m.facts(ids[0])));
    }

    #[test]
    fn sweep_survivors_belong_to_their_version() {
        let mut m = looped();
        let id = m.main().unwrap();
        assert_eq!(m.facts(id).sweep_survivors(), None);
        let kept = vec![InstId::from_index(0)];
        m.facts(id).set_sweep_survivors(kept.clone());
        assert_eq!(m.facts(id).sweep_survivors(), Some(kept.as_slice()));
        m.func_mut(id).name = "renamed".into();
        assert_eq!(m.facts(id).sweep_survivors(), None);
    }
}
