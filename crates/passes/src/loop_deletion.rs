//! `-loop-deletion`: remove loops with no observable effect.
//!
//! A loop is deleted when it writes no memory, makes no opaque calls, none
//! of its values are used outside, and it provably terminates (recognized
//! counted loops). The preheader then branches straight to the exit.

use crate::util;
use autophase_ir::{CmpPred, FuncId, Module, Opcode, Value};

/// Run the pass. Returns true if any loop was deleted.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = false;
        while delete_once(m, fid) {
            changed = true;
        }
        if changed {
            crate::simplifycfg::run_on_function(m, fid);
        }
        changed
    })
}

fn delete_once(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, loops, index) = (facts.cfg(), facts.loops(), facts.users());
    'next_loop: for l in loops {
        let Some(preheader) = l.entering_block(cfg) else {
            continue;
        };
        // Single dedicated exit.
        let [exit] = l.exits.as_slice() else { continue };
        let exit = *exit;
        if !l.is_dedicated_exit(cfg, exit) {
            continue;
        }
        // No side effects, no values escaping.
        for &bb in &l.blocks {
            for &iid in &f.block(bb).insts {
                let inst = f.inst(iid);
                if inst.writes_memory() && !util::is_pure(m, inst) {
                    continue 'next_loop;
                }
                if matches!(inst.op, Opcode::Call { .. }) && !util::is_pure(m, inst) {
                    continue 'next_loop;
                }
                if !inst.ty.is_void() && index.users(iid).iter().any(|(_, ubb)| !l.contains(*ubb)) {
                    continue 'next_loop;
                }
            }
        }
        // Termination (conservative): an exit test on an induction
        // variable with a constant init and a nonzero step (its last
        // in-loop entry's) that moves toward the bound. Going round while
        // `φ + C != bound`, it leaves only if `init + C + k·step` meets the
        // bound at the IV's width: if 2^tz(step) divides `bound − init − C`.
        let counted = l.exit_tests(f, cfg).iter().any(|t| {
            let (Value::ConstInt(_, init), Some(step)) = (t.iv.init, t.iv.steps.last()) else {
                return false;
            };
            let ty = t.iv.ty;
            let meets = ty
                .zext(t.bound.wrapping_sub(init).wrapping_sub(t.offset))
                .trailing_zeros()
                >= ty.zext(step.by).trailing_zeros();
            step.by != 0
                && matches!(
                    (t.pred, step.by > 0),
                    (
                        CmpPred::Slt | CmpPred::Sle | CmpPred::Ult | CmpPred::Ule,
                        true
                    ) | (CmpPred::Sgt | CmpPred::Sge, false)
                        | (CmpPred::Ne, _)
                )
                && (t.pred != CmpPred::Ne || !t.true_stays || meets)
        });
        if !counted {
            continue;
        }
        // Every pred of the exit is in the loop, so every exit φ entry is
        // an in-loop one; none names a loop value, so each is a constant
        // or defined before the loop. A φ whose entries agree carries that
        // one value on the preheader's new edge; one whose entries differ
        // depends on how the loop ran, and the loop stays.
        for &iid in &f.block(exit).insts {
            let Opcode::Phi { incoming } = &f.inst(iid).op else {
                continue;
            };
            let Some(&(_, v)) = incoming.first() else {
                continue 'next_loop;
            };
            if incoming.iter().any(|&(_, w)| w != v) {
                continue 'next_loop;
            }
        }
        // The preheader branches straight to the exit, its one pred now.
        let exit_preds = cfg.unique_preds(exit);
        let f = m.func_mut(fid);
        f.redirect_branch(preheader, l.header, exit);
        f.move_phi_edges(exit, &exit_preds, &[preheader], |_, _, v| v);
        // The loop blocks are now unreachable; sweep them.
        crate::simplifycfg::remove_unreachable(m, fid);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::loops::analyze_loops;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type};

    #[test]
    fn effect_free_loop_deleted() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(100), |b, i| {
            let x = b.binary(BinOp::Mul, i, i);
            let _ = b.binary(BinOp::Add, x, Value::i32(3)); // all dead
        });
        b.ret(Some(Value::i32(7)));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let before = run_main(&m, 100_000).unwrap();
        assert!(run(&mut m));
        assert_verified(&m);
        let after = run_main(&m, 100_000).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert!(after.insts_executed < before.insts_executed / 10);
        let f = m.func(m.main().unwrap());
        let (_, _, loops) = analyze_loops(f);
        assert!(loops.is_empty());
    }

    #[test]
    fn storing_loop_kept() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("out", Type::I32, 16));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(16), |b, i| {
            let p = b.gep(Value::Global(g), i);
            b.store(p, i);
        });
        let v = b.load(Type::I32, Value::Global(g));
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn loop_with_escaping_value_kept() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let mut last = Value::i32(0);
        b.counted_loop(Value::i32(10), |_b, i| {
            last = i;
        });
        b.ret(Some(last));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        // `last` is the induction φ used outside: kept.
        assert!(!run(&mut m));
    }

    #[test]
    fn unknown_bound_loop_kept() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        b.counted_loop(b.arg(0), |b, i| {
            let _ = b.binary(BinOp::Mul, i, i);
        });
        b.ret(Some(Value::i32(1)));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        // Trip count depends on arg0: init is 0 (const), bound is arg —
        // not a constant bound, so the conservative proof fails.
        assert!(!run(&mut m));
    }

    /// A counted loop's dedicated exit carries a constant out of the loop
    /// through an LCSSA φ: deleting the loop must keep that constant, not
    /// replace it with `undef` (which the interpreter reads as 0).
    #[test]
    fn exit_phi_keeps_its_in_loop_value() {
        let text = "; module t
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%2, b1]
  %2 = i32 add %1, i32 1
  %3 = i1 icmp slt %2, i32 10
  br %3, b1, b2
b2:
  %4 = i32 phi [i32 5, b1]
  ret %4
}";
        let mut m = autophase_ir::parser::parse_module(text).unwrap();
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(5));
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(5));
    }

    /// `i = 0; while (i != 11) i += 2;` never exits: an even `i` never
    /// equals 11, at any width. Deleting it would turn a program that
    /// never returns into one that does.
    #[test]
    fn ne_loop_that_misses_its_bound_kept() {
        let text = "; module t
define i32 @main() {
b0:
  br b1
b1:
  %1 = i32 phi [i32 0, b0], [%2, b1]
  %2 = i32 add %1, i32 2
  %3 = i1 icmp ne %2, i32 11
  br %3, b1, b2
b2:
  ret i32 7
}";
        let mut m = autophase_ir::parser::parse_module(text).unwrap();
        assert!(run_main(&m, 100_000).is_err());
        assert!(!run(&mut m));
        // Stepping by 2 from 1 does reach 11: that loop goes.
        let mut m =
            autophase_ir::parser::parse_module(&text.replace("i32 0, b0", "i32 1, b0")).unwrap();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(7));
    }

    #[test]
    fn nested_dead_inner_loop_deleted() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("out", Type::I32, 1));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(5), |b, i| {
            b.counted_loop(Value::i32(7), |b2, j| {
                let _ = b2.binary(BinOp::Mul, j, j); // dead inner work
            });
            let c = b.load(Type::I32, Value::Global(g));
            let n = b.binary(BinOp::Add, c, i);
            b.store(Value::Global(g), n);
        });
        let r = b.load(Type::I32, Value::Global(g));
        b.ret(Some(r));
        m.add_function(b.finish());
        let before = run_main(&m, 1_000_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1_000_000).unwrap().observable(), before);
        let f = m.func(m.main().unwrap());
        let (_, _, loops) = analyze_loops(f);
        assert_eq!(loops.len(), 1); // only the outer storing loop remains
    }
}
