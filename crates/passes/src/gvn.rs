//! `-gvn`: global value numbering.
//!
//! Dominator-tree scoped CSE: walking the dominator tree top-down, a pure
//! computation is replaced by an equivalent one already available in a
//! dominating block. Loads are also numbered, invalidated at any
//! may-alias store or non-`readnone` call along the walk (conservatively:
//! a block containing any store/call clears load availability for its
//! subtree successors computed after it).

use crate::early_cse::{self, Available, ExprKey, KnownMemory};
use crate::util;
use autophase_ir::{BlockId, FuncId, Module, Rewrites};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = gvn_function(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

/// One block on the dominator-tree walk.
struct Frame {
    bb: BlockId,
    /// Children still to visit (taken from the back).
    pending: usize,
    /// Expressions this block made available, withdrawn when it is left.
    added: Vec<ExprKey>,
    /// Memory state at the end of the block.
    mem: KnownMemory,
}

fn gvn_function(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, dt) = (facts.cfg(), facts.dom());
    let mut rw = Rewrites::new();

    // Depth-first over the dominator tree. Pure expressions are scoped: a
    // block sees what its dominators computed, and its own additions are
    // withdrawn when the walk leaves its subtree.
    let mut avail = Available::default();
    let enter = |bb: BlockId, mut mem: KnownMemory, avail: &mut Available, rw: &mut Rewrites| {
        let mut added = Vec::new();
        for &iid in &f.block(bb).insts {
            added.extend(early_cse::visit(m, f, iid, avail, &mut mem, rw));
        }
        Frame {
            bb,
            pending: dt.children(bb).len(),
            added,
            mem,
        }
    };
    let mut stack = vec![enter(f.entry, KnownMemory::default(), &mut avail, &mut rw)];
    while let Some(top) = stack.last_mut() {
        if top.pending == 0 {
            for key in &top.added {
                avail.remove(key);
            }
            stack.pop();
            continue;
        }
        top.pending -= 1;
        let child = dt.children(top.bb)[top.pending];
        // A dominated block may be reached along paths containing stores
        // this walk has not seen (join points, loop back edges). Load
        // availability is only propagated to children whose unique CFG
        // predecessor is the current block — there the memory state at
        // entry provably equals the state at the end of `bb`. Pure
        // expression availability is path-independent and always flows.
        let preds = cfg.preds(child);
        let mem = if !preds.is_empty() && preds.iter().all(|&p| p == top.bb) {
            top.mem.clone()
        } else {
            KnownMemory::default()
        };
        let frame = enter(child, mem, &mut avail, &mut rw);
        stack.push(frame);
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
    use autophase_ir::{BinOp, CmpPred, Opcode, Type, Value};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn cross_block_expression_merged() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let next = b.new_block();
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.br(next);
        b.switch_to(next);
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 4); // add, br, mul, ret
    }

    #[test]
    fn branch_arms_not_merged_across() {
        // Expressions in sibling branches do not dominate each other.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.ret(Some(x));
        b.switch_to(e);
        let y = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        b.ret(Some(y));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn load_forwarded_across_blocks_when_safe() {
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr], Type::I32);
        let next = b.new_block();
        let v1 = b.load(Type::I32, b.arg(0));
        b.br(next);
        b.switch_to(next);
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
    fn store_in_sibling_branch_blocks_load_merge_at_join() {
        // entry: load p; branch; then: store p; join: load p must remain.
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr, Type::I32], Type::I32);
        let t = b.new_block();
        let j = b.new_block();
        let v1 = b.load(Type::I32, b.arg(0));
        let c = b.icmp(CmpPred::Ne, b.arg(1), Value::i32(0));
        b.cond_br(c, t, j);
        b.switch_to(t);
        b.store(b.arg(0), Value::i32(9));
        b.br(j);
        b.switch_to(j);
        let v2 = b.load(Type::I32, b.arg(0));
        let s = b.binary(BinOp::Add, v1, v2);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        run(&mut m);
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        let loads = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Load { .. }))
            .count();
        assert_eq!(loads, 2, "join load must not be forwarded past a store");
    }

    #[test]
    fn semantics_preserved_on_loop() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(5), |b, i| {
            let a = b.binary(BinOp::Mul, i, Value::i32(3));
            let c = b.binary(BinOp::Mul, i, Value::i32(3)); // redundant
            let cur = b.load(Type::I32, acc);
            let t = b.binary(BinOp::Add, a, c);
            let n = b.binary(BinOp::Add, cur, t);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
    }
}
