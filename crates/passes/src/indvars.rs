//! `-indvars`: canonicalize induction variables.
//!
//! Two rewrites:
//! * exit comparisons `icmp ne i, bound` / `icmp ne i+step, bound` on a
//!   unit-step induction variable counting up toward the bound become
//!   `icmp slt` — the canonical form the unroller recognizes;
//! * an induction φ whose final value is computable (constant trip count)
//!   and whose only external use is that final value is replaced outside
//!   the loop by the constant.

use crate::util;
use autophase_ir::{BinOp, CmpPred, FuncId, InstId, Module, Opcode, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = canonicalize_exit_compares(m, fid);
        changed |= substitute_final_values(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

/// Final-value substitution: for a bottom-tested counted loop with constant
/// init/step/bound, an exit φ receiving the induction variable (or its
/// increment) gets the *computed* final constant instead — uses after the
/// loop then fold without unrolling anything.
fn substitute_final_values(m: &mut Module, fid: FuncId) -> bool {
    use autophase_ir::Value;
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, loops) = (facts.cfg(), facts.loops());
    let mut rewrites: Vec<(InstId, autophase_ir::BlockId, Value, Value)> = Vec::new();
    for l in loops {
        // Single-block bottom-tested shape (what -loop-rotate produces).
        if l.blocks.len() != 1 || l.single_latch() != Some(l.header) {
            continue;
        }
        let block = l.header;
        let Some(term) = f.terminator(block) else {
            continue;
        };
        let autophase_ir::Opcode::CondBr {
            cond: Value::Inst(cmp),
            then_bb,
            else_bb,
        } = f.inst(term).op
        else {
            continue;
        };
        let back_is_then = then_bb == block;
        let exit = if back_is_then { else_bb } else { then_bb };
        if exit == block {
            continue;
        }
        let autophase_ir::Opcode::ICmp(pred, Value::Inst(next_id), Value::ConstInt(_, bound)) =
            f.inst(cmp).op
        else {
            continue;
        };
        let autophase_ir::Opcode::Binary(BinOp::Add, Value::Inst(iv), Value::ConstInt(_, step)) =
            f.inst(next_id).op
        else {
            continue;
        };
        if step == 0 {
            continue;
        }
        let autophase_ir::Opcode::Phi { incoming } = &f.inst(iv).op else {
            continue;
        };
        let Some(preheader) = l.entering_block(cfg) else {
            continue;
        };
        let init = incoming
            .iter()
            .find(|(p, _)| *p == preheader)
            .and_then(|(_, v)| v.as_const_int());
        let from_latch = incoming
            .iter()
            .any(|(p, v)| *p == block && *v == Value::Inst(next_id));
        let (Some(init), true) = (init, from_latch) else {
            continue;
        };

        // Simulate to the exit (bounded, mirrors the unroller).
        let ty = f.inst(iv).ty;
        let mut i = init;
        let mut iters = 0u32;
        let (final_iv, final_next) = loop {
            iters += 1;
            if iters > 4096 {
                break (None, None);
            }
            let next = autophase_ir::fold::eval_binop(BinOp::Add, ty, i, step);
            let c = autophase_ir::fold::eval_icmp(pred, ty, next, bound);
            let continues = if back_is_then { c != 0 } else { c == 0 };
            if !continues {
                break (Some(i), Some(next));
            }
            i = next;
        };
        let (Some(final_iv), Some(final_next)) = (final_iv, final_next) else {
            continue;
        };

        // Exit φ entries coming from the loop that carry the IV or its
        // increment become the computed constants.
        for &pid in &f.block(exit).insts {
            if let autophase_ir::Opcode::Phi { incoming } = &f.inst(pid).op {
                for (p, v) in incoming {
                    if *p != block {
                        continue;
                    }
                    if *v == Value::Inst(iv) {
                        rewrites.push((pid, block, *v, Value::const_int(ty, final_iv)));
                    } else if *v == Value::Inst(next_id) {
                        rewrites.push((pid, block, *v, Value::const_int(ty, final_next)));
                    }
                }
            }
        }
    }
    if rewrites.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for (pid, from_block, old, new) in rewrites {
        if let autophase_ir::Opcode::Phi { incoming } = &mut f.inst_mut(pid).op {
            for (p, v) in incoming.iter_mut() {
                if *p == from_block && *v == old {
                    *v = new;
                }
            }
        }
    }
    true
}

fn canonicalize_exit_compares(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, loops) = (facts.cfg(), facts.loops());
    let mut rewrites: Vec<(InstId, CmpPred)> = Vec::new();
    for l in loops {
        let Some(preheader) = l.entering_block(cfg) else {
            continue;
        };
        for &bb in &l.blocks {
            let Some(term) = f.terminator(bb) else {
                continue;
            };
            let Opcode::CondBr {
                cond: Value::Inst(cmp),
                ..
            } = f.inst(term).op
            else {
                continue;
            };
            if !f.successors(bb).iter().any(|s| !l.contains(*s)) {
                continue; // not an exiting branch
            }
            let Opcode::ICmp(CmpPred::Ne, a, Value::ConstInt(_, bound)) = f.inst(cmp).op else {
                continue;
            };
            // a = iv or iv+step with unit positive step and init <= bound
            // reached exactly (unit step guarantees no overshoot).
            let (phi_id, offset) = match a {
                Value::Inst(x) => match f.inst(x).op {
                    Opcode::Phi { .. } => (x, 0i64),
                    Opcode::Binary(BinOp::Add, Value::Inst(p), Value::ConstInt(_, s)) => (p, s),
                    _ => continue,
                },
                _ => continue,
            };
            let Opcode::Phi { incoming } = &f.inst(phi_id).op else {
                continue;
            };
            let init = incoming
                .iter()
                .find(|(p, _)| *p == preheader)
                .and_then(|(_, v)| v.as_const_int());
            let step = incoming.iter().find_map(|(p, v)| {
                if *p == preheader {
                    return None;
                }
                if let Value::Inst(nid) = v {
                    if let Opcode::Binary(BinOp::Add, base, Value::ConstInt(_, s)) = f.inst(*nid).op
                    {
                        if base == Value::Inst(phi_id) {
                            return Some(s);
                        }
                    }
                }
                None
            });
            let (Some(init), Some(step)) = (init, step) else {
                continue;
            };
            if step != 1 || offset != 0 && offset != step {
                continue;
            }
            // Counting up by 1 from init; `ne bound` exits exactly when the
            // value reaches bound, provided init+offset <= bound.
            if init + offset <= bound {
                rewrites.push((cmp, CmpPred::Slt));
            }
        }
    }
    if rewrites.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for (cmp, pred) in rewrites {
        if let Opcode::ICmp(p, ..) = &mut f.inst_mut(cmp).op {
            *p = pred;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::Type;

    /// A loop exiting on `i != n` (the shape C's `for (i=0;i!=n;i++)`
    /// produces).
    fn ne_loop(n: i32) -> Module {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let entry = b.entry_block();
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let c = b.icmp(CmpPred::Ne, i, Value::i32(n));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let cur = b.load(Type::I32, acc);
        let s = b.binary(BinOp::Add, cur, i);
        b.store(acc, s);
        let next = b.binary(BinOp::Add, i, Value::i32(1));
        b.br(header);
        if let Value::Inst(pid) = i {
            if let Opcode::Phi { incoming } = &mut b.func_mut().inst_mut(pid).op {
                incoming.push((body, next));
            }
        }
        b.switch_to(exit);
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        m
    }

    #[test]
    fn ne_compare_becomes_slt() {
        let mut m = ne_loop(10);
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        assert_eq!(before, Some(45));
        let f = m.func(m.main().unwrap());
        let has_ne = f.block_ids().any(|bb| {
            f.block(bb)
                .insts
                .iter()
                .any(|&i| matches!(f.inst(i).op, Opcode::ICmp(CmpPred::Ne, ..)))
        });
        assert!(!has_ne);
    }

    #[test]
    fn indvars_enables_unroll() {
        // ne-loop → indvars → rotate → unroll pipeline works end to end.
        let mut m = ne_loop(6);
        assert!(run(&mut m));
        crate::loop_rotate::run(&mut m);
        assert!(crate::loop_unroll::run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(15));
    }

    #[test]
    fn final_value_substituted_without_unrolling() {
        // A 1000-trip loop: too big to unroll, but the IV's final value at
        // the exit is a compile-time constant.
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let mut iv = Value::i32(0);
        b.counted_loop(Value::i32(1000), |_b, i| {
            iv = i;
        });
        b.ret(Some(iv));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        // Reading the IV after the loop sees the first *failing* value.
        assert_eq!(before, Some(1000));
        // The exit φ now carries a constant; after cleanup + sccp the ret
        // folds to it.
        crate::sccp::run(&mut m);
        crate::simplifycfg::run(&mut m);
        let f = m.func(m.main().unwrap());
        let uses_const_ret = f.block_ids().any(|bb| {
            f.block(bb).insts.iter().any(|&i| {
                matches!(
                    f.inst(i).op,
                    Opcode::Ret {
                        value: Some(Value::ConstInt(_, 1000))
                    } | Opcode::Phi { .. }
                )
            })
        });
        assert!(uses_const_ret);
    }

    #[test]
    fn downward_ne_loop_untouched() {
        // i counts down: `ne` on a negative step is not rewritten to slt.
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let entry = b.entry_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32, vec![(entry, Value::i32(10))]);
        let c = b.icmp(CmpPred::Ne, i, Value::i32(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let next = b.binary(BinOp::Add, i, Value::i32(-1));
        b.br(header);
        if let Value::Inst(pid) = i {
            if let Opcode::Phi { incoming } = &mut b.func_mut().inst_mut(pid).op {
                incoming.push((body, next));
            }
        }
        b.switch_to(exit);
        b.ret(Some(i));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(!run(&mut m));
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
    }
}
