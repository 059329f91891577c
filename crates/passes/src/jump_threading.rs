//! `-jump-threading`: thread control flow through blocks whose branch
//! outcome is known per-predecessor.
//!
//! The classic pattern: a block branches on a φ of constants. Each
//! predecessor contributing a constant already determines the branch, so
//! it can jump straight to the resolved target, bypassing the block.

use crate::util;
use autophase_ir::{BlockId, FuncId, Module, Opcode, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = false;
        // One threading opportunity per iteration (CFG edits invalidate
        // the analysis), to a fixpoint.
        while thread_once(m, fid) {
            changed = true;
        }
        if changed {
            crate::simplifycfg::run_on_function(m, fid);
        }
        changed
    })
}

fn thread_once(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let cfg = facts.cfg();
    for &bb in cfg.rpo() {
        let Some(term) = f.terminator(bb) else {
            continue;
        };
        let Opcode::CondBr {
            cond: Value::Inst(phi_id),
            then_bb,
            else_bb,
        } = f.inst(term).op
        else {
            continue;
        };
        if !f.inst_exists(phi_id) || f.block_of(phi_id) != Some(bb) {
            continue;
        }
        let Opcode::Phi { incoming } = &f.inst(phi_id).op else {
            continue;
        };
        // The block must be "threadable": only the φ and the terminator
        // (any other instruction would be skipped for the threaded preds,
        // which is safe only when it is pure and unused — keep it simple).
        let extra_work = f
            .block(bb)
            .insts
            .iter()
            .any(|&i| i != phi_id && i != term && !f.inst(i).is_phi());
        if extra_work {
            continue;
        }
        // φ-heavy blocks: threading would need to materialize other φs for
        // the bypassed path; skip if any other φ exists.
        let other_phis = f
            .block(bb)
            .insts
            .iter()
            .any(|&i| i != phi_id && f.inst(i).is_phi());
        if other_phis {
            continue;
        }

        // Find a predecessor with a constant incoming value.
        let mut choice: Option<(BlockId, BlockId)> = None;
        for (pred, v) in incoming {
            if let Value::ConstInt(_, c) = v {
                // Threading is only simple when the pred reaches bb by a
                // unique edge (not both arms of its own condbr).
                let edges = cfg.preds(bb).iter().filter(|&&p| p == *pred).count();
                if edges != 1 {
                    continue;
                }
                let target = if *c != 0 { then_bb } else { else_bb };
                if target == bb {
                    continue;
                }
                // The target must tolerate a new predecessor: it must not
                // already have φs fed by `pred` (duplicate pred entries).
                let target_preds = cfg.unique_preds(target);
                if target_preds.contains(pred) {
                    continue;
                }
                choice = Some((*pred, target));
                break;
            }
        }
        let Some((pred, target)) = choice else {
            continue;
        };

        // Rewire: pred's edge bb → target.
        let fm = m.func_mut(fid);
        fm.redirect_branch(pred, bb, target);
        // bb's φ loses the pred entry.
        fm.remove_phi_edge(bb, pred);
        // target's φs gain an entry from pred with the value they had from bb.
        fm.carry_phi_edges(target, |p| (p == bb).then_some(pred), |v| v);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{CmpPred, Type};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    /// The canonical threading example:
    /// ```text
    /// entry: br (x<0), a, b
    /// a: br merge          // contributes φ=true
    /// b: br merge          // contributes φ=cond2
    /// merge: φ; br φ, t, f
    /// ```
    /// After threading, `a` jumps straight to `t`.
    #[test]
    fn threads_constant_phi_edge() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a_bb = b.new_block();
        let b_bb = b.new_block();
        let merge = b.new_block();
        let t = b.new_block();
        let e = b.new_block();
        let c1 = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c1, a_bb, b_bb);
        b.switch_to(a_bb);
        b.br(merge);
        b.switch_to(b_bb);
        let c2 = b.icmp(CmpPred::Sgt, b.arg(0), Value::i32(100));
        b.br(merge);
        b.switch_to(merge);
        let p = b.phi(Type::I1, vec![(a_bb, Value::TRUE), (b_bb, c2)]);
        b.cond_br(p, t, e);
        b.switch_to(t);
        b.ret(Some(Value::i32(1)));
        b.switch_to(e);
        b.ret(Some(Value::i32(2)));
        let mut m = module_with(b.finish());
        let fid = m.main().unwrap();
        let before: Vec<_> = [-5, 0, 50, 200]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert!(run(&mut m));
        assert_verified(&m);
        let after: Vec<_> = [-5, 0, 50, 200]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn no_thread_without_constant_phi() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(Value::i32(1)));
        b.switch_to(e);
        b.ret(Some(Value::i32(2)));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn threaded_block_with_work_skipped() {
        // merge block computes something: not threadable.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a_bb = b.new_block();
        let b_bb = b.new_block();
        let merge = b.new_block();
        let t = b.new_block();
        let e = b.new_block();
        let c1 = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c1, a_bb, b_bb);
        b.switch_to(a_bb);
        b.br(merge);
        b.switch_to(b_bb);
        b.br(merge);
        b.switch_to(merge);
        let p = b.phi(Type::I1, vec![(a_bb, Value::TRUE), (b_bb, Value::FALSE)]);
        let work = b.binary(autophase_ir::BinOp::Add, b.arg(0), Value::i32(1));
        b.cond_br(p, t, e);
        b.switch_to(t);
        b.ret(Some(work));
        b.switch_to(e);
        b.ret(Some(Value::i32(2)));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }
}
