//! `-sink`: move computations closer to their uses.
//!
//! A pure, memory-silent instruction whose uses all sit in a single other
//! block is moved to the head of that block when the move crosses a branch
//! (so paths not needing the value no longer compute it) and does not move
//! the instruction *into* a loop it was not already in.

use crate::util;
use autophase_ir::{BlockId, FuncId, InstId, Module};

/// Run the pass. Returns true if anything moved.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = false;
        while sink_once(m, fid) {
            changed = true;
        }
        changed
    })
}

fn sink_once(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, dt, loops) = (facts.cfg(), facts.dom(), facts.loops());
    let index = facts.users();
    let loop_depth = |bb: BlockId| loops.iter().filter(|l| l.contains(bb)).count();

    for &bb in cfg.rpo() {
        // Only worthwhile when bb has multiple successors: sinking skips
        // work on the untaken path.
        if cfg.unique_succs(bb).len() < 2 {
            continue;
        }
        let insts: Vec<InstId> = f.block(bb).insts.clone();
        for &iid in insts.iter().rev() {
            let inst = f.inst(iid);
            if inst.is_terminator() || inst.is_phi() || !util::is_pure_no_read(m, inst) {
                continue;
            }
            if inst.ty.is_void() {
                continue;
            }
            let users = index.users(iid);
            if users.is_empty() {
                continue;
            }
            // All uses in one block ≠ bb, and none of them φ-nodes (a φ use
            // conceptually executes in the predecessor).
            let target = users[0].1;
            if target == bb
                || !users
                    .iter()
                    .all(|&(u, ub)| ub == target && !f.inst(u).is_phi())
            {
                continue;
            }
            // Target must be dominated by bb (value stays defined on all
            // paths to its uses) and not in a deeper loop.
            if !dt.strictly_dominates(bb, target) {
                continue;
            }
            if loop_depth(target) > loop_depth(bb) {
                continue;
            }
            // Move: remove from bb, insert after target's φs.
            let fm = m.func_mut(fid);
            fm.block_mut(bb).insts.retain(|&i| i != iid);
            let pos = fm
                .block(target)
                .insts
                .iter()
                .take_while(|&&i| fm.inst(i).is_phi())
                .count();
            fm.block_mut(target).insts.insert(pos, iid);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, CmpPred, Type, Value};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn sinks_into_single_using_branch() {
        // entry computes x*3 but only the then-arm uses it.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let v = b.binary(BinOp::Mul, b.arg(0), Value::i32(3));
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let r = b.binary(BinOp::Add, v, Value::i32(1));
        b.ret(Some(r));
        b.switch_to(e);
        b.ret(Some(Value::i32(0)));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        // The mul now lives in the then-block.
        let mul_bb =
            f.block_ids()
                .find(|&bb| {
                    f.block(bb).insts.iter().any(|&i| {
                        matches!(f.inst(i).op, autophase_ir::Opcode::Binary(BinOp::Mul, ..))
                    })
                })
                .unwrap();
        assert_ne!(mul_bb, f.entry);
        assert_eq!(
            run_function(&m, m.main().unwrap(), &[-2], 100)
                .unwrap()
                .return_value,
            Some(-5)
        );
    }

    #[test]
    fn does_not_sink_into_loop() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let exit2 = b.new_block();
        let v = b.binary(BinOp::Mul, b.arg(0), Value::i32(3));
        let c = b.icmp(CmpPred::Sgt, b.arg(0), Value::i32(0));
        let loop_entry = b.new_block();
        b.cond_br(c, loop_entry, exit2);
        b.switch_to(loop_entry);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, _| {
            let cur = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, cur, v); // v used only in the loop
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        b.switch_to(exit2);
        b.ret(Some(Value::i32(0)));
        let mut m = module_with(b.finish());
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[4], 10_000).unwrap().return_value;
        run(&mut m);
        assert_verified(&m);
        let after = run_function(&m, fid, &[4], 10_000).unwrap().return_value;
        assert_eq!(before, after);
        // The mul must not be inside the loop body (depth check).
        let f = m.func(fid);
        let (cfg, dt, loops) = {
            let cfg = autophase_ir::cfg::Cfg::new(f);
            let dt = autophase_ir::dom::DomTree::new(f, &cfg);
            let loops = autophase_ir::loops::find_loops(f, &cfg, &dt);
            (cfg, dt, loops)
        };
        let _ = (cfg, dt);
        let mul_bb =
            f.block_ids()
                .find(|&bb| {
                    f.block(bb).insts.iter().any(|&i| {
                        matches!(f.inst(i).op, autophase_ir::Opcode::Binary(BinOp::Mul, ..))
                    })
                })
                .unwrap();
        assert!(loops.iter().all(|l| !l.contains(mul_bb)));
    }

    #[test]
    fn multi_block_uses_not_sunk() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let v = b.binary(BinOp::Mul, b.arg(0), Value::i32(3));
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(v));
        b.switch_to(e);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }
}
