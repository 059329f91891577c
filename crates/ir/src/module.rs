//! Modules and global variables.

use crate::facts::{self, Facts};
use crate::function::Function;
use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::sync::Arc;

/// Identifies a function within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(u32);

impl FuncId {
    /// Construct from a raw index.
    pub fn from_index(i: usize) -> FuncId {
        FuncId(i as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a global variable within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GlobalId(u32);

impl GlobalId {
    /// Construct from a raw index.
    pub fn from_index(i: usize) -> GlobalId {
        GlobalId(i as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A module-level array variable in the flat address space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Global {
    /// Name (unique within the module).
    pub name: String,
    /// Element type (integer).
    pub elem_ty: Type,
    /// Number of elements.
    pub count: u32,
    /// Initial element values (padded with zeros to `count`).
    pub init: Vec<i64>,
    /// Constant globals may be folded by `-globalopt`.
    pub is_const: bool,
}

impl Global {
    /// Create a zero-initialized mutable global array.
    pub fn zeroed(name: impl Into<String>, elem_ty: Type, count: u32) -> Global {
        Global {
            name: name.into(),
            elem_ty,
            count,
            init: Vec::new(),
            is_const: false,
        }
    }

    /// Create an initialized constant global array.
    pub fn constant(name: impl Into<String>, elem_ty: Type, init: Vec<i64>) -> Global {
        Global {
            name: name.into(),
            elem_ty,
            count: init.len() as u32,
            init,
            is_const: true,
        }
    }

    /// Initial value of element `i` (zero if not explicitly initialized).
    pub fn init_at(&self, i: usize) -> i64 {
        self.init.get(i).copied().unwrap_or(0)
    }
}

/// A translation unit: functions plus globals.
///
/// Functions live in a slot arena so `FuncId`s stay stable across removal
/// (e.g. by `-globaldce`).
///
/// Functions and globals are stored behind [`Arc`] with copy-on-write
/// mutation: `Module::clone` is O(#slots) pointer bumps, and
/// [`Module::func_mut`] only deep-copies a function when its `Arc` is
/// shared with another module (e.g. a transaction snapshot). Holding a
/// clone of the module while mutating the original therefore guarantees
/// every mutated slot gets a fresh allocation, which is what pointer-diff
/// change tracking (a pre-pass clone, [`Module::func_arc`] and
/// `Arc::ptr_eq`) relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    /// Module name (for diagnostics).
    pub name: String,
    functions: Vec<Option<Arc<Function>>>,
    /// Global variables; ids are indices and are never reused.
    globals: Vec<Option<Arc<Global>>>,
}

impl Module {
    /// Create an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
            globals: Vec::new(),
        }
    }

    /// Add a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        self.functions.push(Some(Arc::new(f)));
        FuncId::from_index(self.functions.len() - 1)
    }

    /// Add a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        self.globals.push(Some(Arc::new(g)));
        GlobalId::from_index(self.globals.len() - 1)
    }

    /// Access a function.
    ///
    /// # Panics
    ///
    /// Panics if the function was removed.
    pub fn func(&self, id: FuncId) -> &Function {
        self.functions[id.index()]
            .as_ref()
            .expect("removed function")
    }

    /// Mutable access to a function (clones-on-write if the slot is shared).
    /// The one way to write a function: it makes a new version, whose
    /// [`Module::facts`] are computed afresh.
    ///
    /// # Panics
    ///
    /// Panics if the function was removed.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        Arc::make_mut(
            self.functions[id.index()]
                .as_mut()
                .expect("removed function"),
        )
    }

    /// The CFG, dominator tree, loops, use index and dead-code sweep slot of the
    /// function's current version, each computed at most once per version
    /// (see [`facts`]).
    ///
    /// # Panics
    ///
    /// Panics if the function was removed.
    pub fn facts(&self, id: FuncId) -> Rc<Facts> {
        facts::of(self.func_arc(id).expect("removed function"))
    }

    /// True if the id refers to a live function.
    pub fn func_exists(&self, id: FuncId) -> bool {
        self.functions
            .get(id.index())
            .map(|f| f.is_some())
            .unwrap_or(false)
    }

    /// Remove a function (callers must already be gone or rewritten).
    pub fn remove_function(&mut self, id: FuncId) {
        self.functions[id.index()] = None;
    }

    /// Access a global.
    ///
    /// # Panics
    ///
    /// Panics if the global was removed.
    pub fn global(&self, id: GlobalId) -> &Global {
        self.globals[id.index()].as_ref().expect("removed global")
    }

    /// Mutable access to a global (clones-on-write if the slot is shared).
    ///
    /// # Panics
    ///
    /// Panics if the global was removed.
    pub fn global_mut(&mut self, id: GlobalId) -> &mut Global {
        Arc::make_mut(self.globals[id.index()].as_mut().expect("removed global"))
    }

    /// True if the id refers to a live global.
    pub fn global_exists(&self, id: GlobalId) -> bool {
        self.globals
            .get(id.index())
            .map(|g| g.is_some())
            .unwrap_or(false)
    }

    /// Remove a global (uses must already be gone).
    pub fn remove_global(&mut self, id: GlobalId) {
        self.globals[id.index()] = None;
    }

    /// Iterate over live function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> + '_ {
        self.functions
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|_| FuncId::from_index(i)))
    }

    /// Iterate over live global ids.
    pub fn global_ids(&self) -> impl Iterator<Item = GlobalId> + '_ {
        self.globals
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|_| GlobalId::from_index(i)))
    }

    /// Find a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.func_ids().find(|&id| self.func(id).name == name)
    }

    /// The `main` function, where execution starts.
    pub fn main(&self) -> Option<FuncId> {
        self.func_by_name("main")
    }

    /// Total live instructions across all functions.
    pub fn num_insts(&self) -> usize {
        self.func_ids().map(|id| self.func(id).num_insts()).sum()
    }

    /// Total live basic blocks across all functions.
    pub fn num_blocks(&self) -> usize {
        self.func_ids().map(|id| self.func(id).num_blocks()).sum()
    }

    /// Upper bound (exclusive) of function arena indices, for dense maps.
    pub fn func_capacity(&self) -> usize {
        self.functions.len()
    }

    /// Upper bound (exclusive) of global arena indices, for dense maps.
    pub fn global_capacity(&self) -> usize {
        self.globals.len()
    }

    /// The shared handle backing a live function slot, or `None` if the slot
    /// is empty. Compared with `Arc::ptr_eq` against a clone taken before a
    /// pass, it tells which slots the pass wrote.
    pub fn func_arc(&self, id: FuncId) -> Option<&Arc<Function>> {
        self.functions.get(id.index()).and_then(|f| f.as_ref())
    }

    /// The shared handle backing a live global slot, or `None`.
    pub fn global_arc(&self, id: GlobalId) -> Option<&Arc<Global>> {
        self.globals.get(id.index()).and_then(|g| g.as_ref())
    }

    /// A clone with every function and global deep-copied into unique
    /// allocations — the pre-COW clone semantics. Only useful for tests that
    /// need to rule out accidental sharing; production code should use
    /// `clone()`.
    pub fn deep_clone(&self) -> Module {
        Module {
            name: self.name.clone(),
            functions: self
                .functions
                .iter()
                .map(|f| f.as_ref().map(|f| Arc::new(Function::clone(f))))
                .collect(),
            globals: self
                .globals
                .iter()
                .map(|g| g.as_ref().map(|g| Arc::new(Global::clone(g))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    #[test]
    fn add_and_find_functions() {
        let mut m = Module::new("m");
        let f = m.add_function(Function::new("main", vec![], Type::I32));
        let g = m.add_function(Function::new("helper", vec![Type::I32], Type::I32));
        assert_eq!(m.main(), Some(f));
        assert_eq!(m.func_by_name("helper"), Some(g));
    }

    #[test]
    fn remove_function_keeps_ids_stable() {
        let mut m = Module::new("m");
        let f = m.add_function(Function::new("a", vec![], Type::Void));
        let g = m.add_function(Function::new("b", vec![], Type::Void));
        m.remove_function(f);
        assert!(!m.func_exists(f));
        assert!(m.func_exists(g));
        assert_eq!(m.func(g).name, "b");
    }

    #[test]
    fn clone_shares_function_storage() {
        let mut m = Module::new("m");
        let a = m.add_function(Function::new("a", vec![], Type::Void));
        let b = m.add_function(Function::new("b", vec![], Type::Void));
        let clone = m.clone();
        assert!(Arc::ptr_eq(
            m.func_arc(a).unwrap(),
            clone.func_arc(a).unwrap()
        ));
        // Mutating one slot re-allocates only that slot.
        m.func_mut(a).name = "a2".to_string();
        assert!(!Arc::ptr_eq(
            m.func_arc(a).unwrap(),
            clone.func_arc(a).unwrap()
        ));
        assert!(Arc::ptr_eq(
            m.func_arc(b).unwrap(),
            clone.func_arc(b).unwrap()
        ));
        // The clone kept the original contents.
        assert_eq!(clone.func(a).name, "a");
        assert_eq!(m.func(a).name, "a2");
    }

    #[test]
    fn func_mut_without_sharing_keeps_pointer() {
        let mut m = Module::new("m");
        let a = m.add_function(Function::new("a", vec![], Type::Void));
        let before = Arc::as_ptr(m.func_arc(a).unwrap());
        m.func_mut(a).name = "a2".to_string();
        // Uniquely owned: make_mut mutates in place, no allocation.
        assert_eq!(before, Arc::as_ptr(m.func_arc(a).unwrap()));
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let mut m = Module::new("m");
        let a = m.add_function(Function::new("a", vec![], Type::Void));
        let g = m.add_global(Global::zeroed("buf", Type::I8, 4));
        let deep = m.deep_clone();
        assert!(!Arc::ptr_eq(
            m.func_arc(a).unwrap(),
            deep.func_arc(a).unwrap()
        ));
        assert!(!Arc::ptr_eq(
            m.global_arc(g).unwrap(),
            deep.global_arc(g).unwrap()
        ));
        assert_eq!(m, deep);
    }

    #[test]
    fn global_mut_clones_on_write() {
        let mut m = Module::new("m");
        let g = m.add_global(Global::zeroed("buf", Type::I8, 4));
        let clone = m.clone();
        m.global_mut(g).count = 8;
        assert_eq!(clone.global(g).count, 4);
        assert_eq!(m.global(g).count, 8);
    }

    #[test]
    fn globals() {
        let mut m = Module::new("m");
        let g = m.add_global(Global::constant("tbl", Type::I32, vec![1, 2, 3]));
        assert_eq!(m.global(g).count, 3);
        assert_eq!(m.global(g).init_at(1), 2);
        assert_eq!(m.global(g).init_at(10), 0);
        let z = m.add_global(Global::zeroed("buf", Type::I8, 16));
        assert!(!m.global(z).is_const);
        assert_eq!(m.global_ids().count(), 2);
    }
}
