//! `-indvars`: canonicalize induction variables.
//!
//! Two rewrites:
//! * exit comparisons `icmp ne i, bound` / `icmp ne i+step, bound` on a
//!   unit-step induction variable counting up toward the bound become
//!   `icmp slt`, LLVM's canonical counted exit (no pass here needs it:
//!   `-loop-unroll` simulates any predicate);
//! * an induction φ whose final value is computable (constant trip count)
//!   and whose only external use is that final value is replaced outside
//!   the loop by the constant.

use crate::util;
use autophase_ir::{BlockId, CmpPred, FuncId, InstId, Module, Opcode, Value};

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

/// Final-value substitution: for a bottom-tested counted loop
/// ([`autophase_ir::loops::Loop::counted_exit`]) whose trip count
/// simulates within 4096 iterations, an exit φ receiving the induction
/// variable (or its increment) gets the *computed* final constant instead
/// — uses after the loop then fold without unrolling anything.
fn substitute_final_values(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, loops) = (facts.cfg(), facts.loops());
    let mut rewrites: Vec<(InstId, BlockId, Value, Value)> = Vec::new();
    for l in loops {
        let Some(cl) = l.counted_exit(f, cfg) else {
            continue;
        };
        let Some(trip) = cl.trip(4096) else {
            continue;
        };
        // Exit φ entries coming from the loop that carry the IV or its
        // increment become the computed constants.
        let (iv, next, ty) = (cl.test.iv.phi, cl.test.compared, cl.test.iv.ty);
        for pid in f.phis(cl.exit) {
            let Opcode::Phi { incoming } = &f.inst(pid).op else {
                continue;
            };
            for &(p, v) in incoming {
                if p != cl.block {
                    continue;
                }
                if v == Value::Inst(iv) {
                    rewrites.push((pid, p, v, Value::const_int(ty, trip.last)));
                } else if v == Value::Inst(next) {
                    rewrites.push((pid, p, v, Value::const_int(ty, trip.last_next)));
                }
            }
        }
    }
    if rewrites.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for (pid, from_block, old, new) in rewrites {
        if let Opcode::Phi { incoming } = &mut f.inst_mut(pid).op {
            for (p, v) in incoming.iter_mut() {
                if *p == from_block && *v == old {
                    *v = new;
                }
            }
        }
    }
    true
}

/// `icmp ne` exit tests ([`autophase_ir::loops::Loop::exit_tests`]) on
/// an induction variable `i` or `i + 1` whose first in-loop step is 1,
/// counting up from a constant at or below the bound, become `icmp slt`.
fn canonicalize_exit_compares(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, loops) = (facts.cfg(), facts.loops());
    let mut rewrites: Vec<InstId> = Vec::new();
    for l in loops {
        for t in l.exit_tests(f, cfg) {
            let (Some(init), Some(step)) = (t.iv.init.as_const_int(), t.iv.steps.first()) else {
                continue;
            };
            if t.pred != CmpPred::Ne || step.by != 1 || t.offset != 0 && t.offset != step.by {
                continue;
            }
            if init + t.offset <= t.bound {
                rewrites.push(t.cmp);
            }
        }
    }
    if rewrites.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for cmp in rewrites {
        if let Opcode::ICmp(p, ..) = &mut f.inst_mut(cmp).op {
            *p = CmpPred::Slt;
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
    use autophase_ir::{BinOp, Type};

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
