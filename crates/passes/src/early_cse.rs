//! `-early-cse`: block-local common-subexpression elimination with
//! store-to-load forwarding.
//!
//! Within each basic block, pure computations with identical opcodes and
//! operands are deduplicated, loads repeated from the same unclobbered
//! address are reused, and a load immediately dominated (in the block) by a
//! store to the same address is replaced by the stored value.

use crate::util::{self, WordMap};
use autophase_ir::{
    BinOp, CastOp, CmpPred, FuncId, Function, Inst, InstId, Module, Opcode, Rewrites, Type, Value,
};
use std::collections::hash_map::Entry;

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = cse_function(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

/// Hashable key for a pure computation: two instructions compute the same
/// value iff their keys are equal. `Copy`, so building one allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ExprKey {
    Binary(BinOp, Type, Value, Value),
    ICmp(CmpPred, Value, Value),
    Select(Value, Value, Value),
    Cast(CastOp, Type, Value),
    Gep(Value, Value),
}

/// The key of `inst` with every operand read through `rw`.
fn expr_key(inst: &Inst, rw: &Rewrites) -> Option<ExprKey> {
    let r = |v: &Value| rw.resolve(*v);
    Some(match &inst.op {
        Opcode::Binary(op, a, b) => {
            let (a, b) = (r(a), r(b));
            // Commutative operands go in a canonical order so `a+b` meets
            // `b+a`; which order is irrelevant as long as it is total.
            let (a, b) = if op.is_commutative() && b < a {
                (b, a)
            } else {
                (a, b)
            };
            ExprKey::Binary(*op, inst.ty, a, b)
        }
        Opcode::ICmp(p, a, b) => ExprKey::ICmp(*p, r(a), r(b)),
        Opcode::Select { cond, tval, fval } => ExprKey::Select(r(cond), r(tval), r(fval)),
        Opcode::Cast(c, v) => ExprKey::Cast(*c, inst.ty, r(v)),
        Opcode::Gep { ptr, index } => ExprKey::Gep(r(ptr), r(index)),
        _ => return None,
    })
}

/// What is known about memory at one program point: address → the value a
/// load from it would produce, with the address's pointer root (see
/// [`util::pointer_root`]) computed once when the entry is made.
#[derive(Debug, Clone, Default)]
pub(crate) struct KnownMemory {
    at: WordMap<Value, (Option<Value>, Value)>,
}

impl KnownMemory {
    pub(crate) fn clear(&mut self) {
        self.at.clear();
    }

    /// A store to `ptr` (rooted at `root`) kills every entry it may alias —
    /// all but those with a different *known* root — then defines `ptr`.
    fn store(&mut self, ptr: Value, root: Option<Value>, value: Value) {
        self.at
            .retain(|_, (r, _)| matches!((*r, root), (Some(a), Some(b)) if a != b));
        self.at.insert(ptr, (root, value));
    }
}

/// Available expressions: key → the instruction that first computed it.
pub(crate) type Available = WordMap<ExprKey, InstId>;

/// The CSE step shared with `-gvn`: look `iid` up in (and add it to) the
/// available expressions and known memory, recording a replacement in `rw`
/// on a hit. Operands are read through `rw`, so earlier hits are already
/// visible. Returns the key if `iid` became newly available.
pub(crate) fn visit(
    m: &Module,
    f: &Function,
    iid: InstId,
    avail: &mut Available,
    mem: &mut KnownMemory,
    rw: &mut Rewrites,
) -> Option<ExprKey> {
    let inst = f.inst(iid);
    match &inst.op {
        Opcode::Load { ptr } => {
            let ptr = rw.resolve(*ptr);
            match mem.at.entry(ptr) {
                Entry::Occupied(known) => rw.replace(iid, known.get().1),
                Entry::Vacant(slot) => {
                    let root = util::pointer_root_through(f, rw, ptr);
                    slot.insert((root, Value::Inst(iid)));
                }
            }
        }
        Opcode::Store { ptr, value } => {
            let ptr = rw.resolve(*ptr);
            let root = util::pointer_root_through(f, rw, ptr);
            mem.store(ptr, root, rw.resolve(*value));
        }
        Opcode::Call { .. } => {
            if !util::is_pure(m, inst) {
                mem.clear();
            }
        }
        _ => {
            if util::is_pure_no_read(m, inst) && !inst.ty.is_void() {
                let key = expr_key(inst, rw)?;
                match avail.entry(key) {
                    Entry::Occupied(prev) => rw.replace(iid, Value::Inst(*prev.get())),
                    Entry::Vacant(slot) => {
                        slot.insert(iid);
                        return Some(key);
                    }
                }
            }
        }
    }
    None
}

fn cse_function(m: &mut Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    let mut rw = Rewrites::new();
    let mut avail = Available::default();
    let mut mem = KnownMemory::default();
    for bb in f.block_ids() {
        avail.clear();
        mem.clear();
        for &iid in &f.block(bb).insts {
            visit(m, f, iid, &mut avail, &mut mem, &mut rw);
        }
    }
    let changed = !rw.is_empty();
    if changed {
        m.func_mut(fid).apply_rewrites(&rw);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, CmpPred, Type};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn duplicate_adds_merged() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 3);
    }

    #[test]
    fn commutative_operands_matched() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let x = b.binary(BinOp::Mul, b.arg(0), b.arg(1));
        let y = b.binary(BinOp::Mul, b.arg(1), b.arg(0));
        let s = b.binary(BinOp::Add, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 3);
    }

    #[test]
    fn store_to_load_forwarding() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(42));
        let v = b.load(Type::I32, p); // forwarded
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(42));
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 0);
    }

    #[test]
    fn repeated_load_reused() {
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr], Type::I32);
        let v1 = b.load(Type::I32, b.arg(0));
        let v2 = b.load(Type::I32, b.arg(0));
        let s = b.binary(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn aliasing_store_invalidates() {
        // Store to unknown pointer q between load(p)s: loads not merged.
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr, Type::Ptr], Type::I32);
        let v1 = b.load(Type::I32, b.arg(0));
        b.store(b.arg(1), Value::i32(0));
        let v2 = b.load(Type::I32, b.arg(0));
        let s = b.binary(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        run(&mut m);
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 2);
    }

    #[test]
    fn cross_block_not_merged_by_early_cse() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let next = b.new_block();
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.br(next);
        b.switch_to(next);
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m)); // early-cse is block-local; gvn handles this
    }

    #[test]
    fn different_cmp_predicates_not_merged() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let c1 = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(5));
        let c2 = b.icmp(CmpPred::Sgt, b.arg(0), Value::i32(5));
        let z1 = b.cast(autophase_ir::CastOp::ZExt, Type::I32, c1);
        let z2 = b.cast(autophase_ir::CastOp::ZExt, Type::I32, c2);
        let s = b.binary(BinOp::Add, z1, z2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }
}
