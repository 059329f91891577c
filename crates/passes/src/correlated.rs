//! `-correlated-propagation`: branch-correlated value propagation.
//!
//! After `br (icmp eq x, C), then, else`, every use of `x` in blocks
//! dominated by the *then* edge can be replaced by `C` (and dually,
//! `icmp ne` refines the else side). Select instructions whose condition
//! equality pins an operand are simplified the same way.

use crate::util;
use autophase_ir::{BlockId, CmpPred, FuncId, InstId, Module, Opcode, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = propagate_function(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

fn propagate_function(m: &mut Module, fid: FuncId) -> bool {
    let known = m.facts(fid);
    let f = m.func(fid);
    let (cfg, dt) = (known.cfg(), known.dom());

    // Collect (region_head, x, C) facts from equality branches.
    let mut facts: Vec<(BlockId, Value, Value)> = Vec::new();
    for &bb in cfg.rpo() {
        let Some(term) = f.terminator(bb) else {
            continue;
        };
        let Opcode::CondBr {
            cond: Value::Inst(cid),
            then_bb,
            else_bb,
        } = f.inst(term).op
        else {
            continue;
        };
        if !f.inst_exists(cid) {
            continue;
        }
        let Opcode::ICmp(pred, a, b) = f.inst(cid).op else {
            continue;
        };
        let (eq_target, x, c) = match pred {
            CmpPred::Eq if b.is_const() => (then_bb, a, b),
            CmpPred::Ne if b.is_const() => (else_bb, a, b),
            _ => continue,
        };
        if x.is_const() {
            continue;
        }
        // The fact holds in eq_target only if that block is solely entered
        // through this edge: eq_target's unique pred is bb, and bb's other
        // arm differs.
        let other = if eq_target == then_bb {
            else_bb
        } else {
            then_bb
        };
        if other == eq_target {
            continue;
        }
        if cfg.unique_preds(eq_target) == vec![bb] {
            facts.push((eq_target, x, c));
        }
    }
    if facts.is_empty() {
        return false;
    }

    // Each fact replaces the uses of x in the blocks head dominates; φ
    // incoming values are attributed to the *predecessor* edge, so a φ
    // entry counts only if its incoming block is dominated by head. Find
    // those instructions before writing, so a function with none is left
    // as it was.
    let mut edits: Vec<(usize, InstId)> = Vec::new();
    for (k, &(head, x, _)) in facts.iter().enumerate() {
        for bb in f.block_ids() {
            if !dt.dominates(head, bb) {
                continue;
            }
            for &iid in &f.block(bb).insts {
                let uses_x = match &f.inst(iid).op {
                    Opcode::Phi { incoming } => incoming
                        .iter()
                        .any(|&(pred, v)| v == x && dt.dominates(head, pred)),
                    _ => {
                        let mut used = false;
                        f.inst(iid).for_each_operand(|v| used |= v == x);
                        used
                    }
                };
                if uses_x {
                    edits.push((k, iid));
                }
            }
        }
    }
    if edits.is_empty() {
        return false;
    }
    // In fact order, as found: a use an earlier fact already rewrote holds
    // a constant, which no later fact's x can be.
    let fm = m.func_mut(fid);
    for (k, iid) in edits {
        let (head, x, c) = facts[k];
        let inst = fm.inst_mut(iid);
        match &mut inst.op {
            Opcode::Phi { incoming } => {
                for (pred, v) in incoming.iter_mut() {
                    if *v == x && dt.dominates(head, *pred) {
                        *v = c;
                    }
                }
            }
            _ => inst.for_each_operand_mut(|v| {
                if *v == x {
                    *v = c;
                }
            }),
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn eq_branch_pins_value() {
        // if (x == 3) return x * 10; else return x;
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(3));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let r = b.binary(BinOp::Mul, b.arg(0), Value::i32(10));
        b.ret(Some(r));
        b.switch_to(e);
        b.ret(Some(b.arg(0)));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        // In the then-block the mul now reads the constant 3.
        let f = m.func(m.main().unwrap());
        let has_const_mul = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .any(|i| {
                matches!(
                    f.inst(i).op,
                    Opcode::Binary(BinOp::Mul, Value::ConstInt(_, 3), _)
                        | Opcode::Binary(BinOp::Mul, _, Value::ConstInt(_, 3))
                )
            });
        assert!(has_const_mul);
        assert_eq!(
            run_function(&m, m.main().unwrap(), &[3], 100)
                .unwrap()
                .return_value,
            Some(30)
        );
        assert_eq!(
            run_function(&m, m.main().unwrap(), &[4], 100)
                .unwrap()
                .return_value,
            Some(4)
        );
    }

    #[test]
    fn ne_branch_pins_else_side() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.icmp(CmpPred::Ne, b.arg(0), Value::i32(7));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(Value::i32(0)));
        b.switch_to(e);
        let r = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(
            run_function(&m, m.main().unwrap(), &[7], 100)
                .unwrap()
                .return_value,
            Some(8)
        );
    }

    #[test]
    fn shared_target_not_rewritten() {
        // Both arms reach the same block: no fact holds there.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let j = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(3));
        b.cond_br(c, j, j);
        b.switch_to(j);
        let r = b.binary(BinOp::Mul, b.arg(0), Value::i32(10));
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
        assert_eq!(
            run_function(&m, m.main().unwrap(), &[4], 100)
                .unwrap()
                .return_value,
            Some(40)
        );
    }

    #[test]
    fn semantics_preserved_randomish() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(5));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let a = b.binary(BinOp::Shl, b.arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(e);
        let d = b.binary(BinOp::Add, b.arg(0), Value::i32(2));
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I32, vec![(t, a), (e, d)]);
        b.ret(Some(p));
        let mut m = module_with(b.finish());
        let f = m.main().unwrap();
        let before: Vec<_> = (0..10)
            .map(|x| run_function(&m, f, &[x], 100).unwrap().return_value)
            .collect();
        run(&mut m);
        assert_verified(&m);
        let after: Vec<_> = (0..10)
            .map(|x| run_function(&m, f, &[x], 100).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
    }
}
