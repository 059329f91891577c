//! `-licm`: loop-invariant code motion.
//!
//! Pure computations whose operands are loop-invariant are hoisted to the
//! loop preheader. Loads are hoisted when the loop contains no stores or
//! opaque calls. Calls to `readnone` functions hoist like any pure
//! instruction (the paper's Figure 1/2 motivating example: after `-inline`
//! + `-functionattrs` a `mag()`-style call hoists out of the loop).
//!
//! LICM requires a preheader — run `-loop-simplify` first, exactly as in
//! LLVM; this is one of the pass-ordering interactions the RL agent must
//! learn.

use crate::util;
use autophase_ir::loops::Loop;
use autophase_ir::{BlockId, FuncId, InstId, Module, Opcode, Value};

/// Run the pass. Returns true if anything was hoisted.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = false;
        // Each round hoists every instruction that is invariant given what
        // previous rounds already hoisted; dependent chains settle in a few
        // rounds rather than one full CFG/dominator/loop reanalysis per
        // instruction.
        while hoist_round(m, fid) > 0 {
            changed = true;
        }
        changed
    })
}

/// Hoist every currently-hoistable instruction; returns how many moved.
fn hoist_round(m: &mut Module, fid: FuncId) -> usize {
    let facts = m.facts(fid);
    let (cfg, dt, loops) = (facts.cfg(), facts.dom(), facts.loops());

    // Innermost-first (more blocks processed in inner loops first keeps the
    // hoisting cascading outward on repeated calls).
    let mut order: Vec<&Loop> = loops.iter().collect();
    order.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
    order.reverse();

    let mut hoisted = 0usize;
    for l in &order {
        // Values hoisted to *this loop's* preheader count as invariant for
        // later candidates of the same loop (dependent chains hoist in one
        // round). They must NOT count for other loops: an inner preheader
        // is still inside the outer loop, and does not dominate it.
        let mut hoisted_set: std::collections::HashSet<InstId> = std::collections::HashSet::new();
        let Some(preheader) = l.preheader(cfg) else {
            continue; // needs -loop-simplify
        };
        let loop_writes = {
            let f = m.func(fid);
            l.blocks.iter().any(|&bb| {
                f.block(bb).insts.iter().any(|&i| {
                    let inst = f.inst(i);
                    matches!(inst.op, Opcode::Store { .. })
                        || (matches!(inst.op, Opcode::Call { .. }) && !util::is_pure(m, inst))
                })
            })
        };
        for &bb in &l.blocks {
            // Hoisting from conditionally-executed blocks can only move
            // *pure no-read* code (safe to over-execute); loads additionally
            // require the block to dominate all latches (it runs every
            // iteration) to keep the "would have executed anyway" claim...
            // For simplicity and safety both categories hoist only from
            // blocks dominating every latch.
            let dominates_latches = l.latches.iter().all(|&lt| dt.dominates(bb, lt));
            if !dominates_latches {
                continue;
            }
            let inst_ids: Vec<InstId> = m.func(fid).block(bb).insts.clone();
            for iid in inst_ids {
                let hoistable = {
                    let f = m.func(fid);
                    let inst = f.inst(iid).clone();
                    if inst.is_terminator()
                        || inst.is_phi()
                        || matches!(inst.op, Opcode::Alloca { .. })
                        || !util::is_pure(m, &inst)
                        || (matches!(inst.op, Opcode::Load { .. }) && loop_writes)
                    {
                        false
                    } else {
                        // All operands invariant (or hoisted this round)?
                        let f = m.func(fid);
                        let mut invariant = true;
                        inst.for_each_operand(|v| {
                            if let Value::Inst(dep) = v {
                                if hoisted_set.contains(&dep) {
                                    return;
                                }
                                if let Some(dep_bb) = f.block_of(dep) {
                                    if l.contains(dep_bb) {
                                        invariant = false;
                                    }
                                } else {
                                    invariant = false;
                                }
                            }
                        });
                        invariant
                    }
                };
                if !hoistable {
                    continue;
                }
                hoist(m.func_mut(fid), bb, iid, preheader);
                hoisted_set.insert(iid);
                hoisted += 1;
            }
        }
    }
    hoisted
}

fn hoist(f: &mut autophase_ir::Function, from: BlockId, iid: InstId, preheader: BlockId) {
    f.block_mut(from).insts.retain(|&i| i != iid);
    // Insert before the preheader's terminator.
    let pos = f.block(preheader).insts.len().saturating_sub(1);
    f.block_mut(preheader).insts.insert(pos, iid);
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::loops::analyze_loops;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type};

    fn in_any_loop(m: &Module, fid: FuncId, pred: impl Fn(&autophase_ir::Inst) -> bool) -> bool {
        let f = m.func(fid);
        let (_, _, loops) = analyze_loops(f);
        loops.iter().any(|l| {
            l.blocks
                .iter()
                .any(|&bb| f.block(bb).insts.iter().any(|&i| pred(f.inst(i))))
        })
    }

    #[test]
    fn invariant_mul_hoisted() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, _i| {
            let inv = b.binary(BinOp::Mul, b.arg(1), Value::i32(7)); // invariant
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, inv);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[5, 3], 100_000).unwrap();
        assert!(run(&mut m));
        assert_verified(&m);
        let after = run_function(&m, fid, &[5, 3], 100_000).unwrap();
        assert_eq!(before.return_value, after.return_value);
        assert_eq!(after.return_value, Some(105));
        // The mul no longer executes once per iteration.
        assert!(!in_any_loop(&m, fid, |i| {
            matches!(i.op, Opcode::Binary(BinOp::Mul, ..))
        }));
        assert!(after.insts_executed < before.insts_executed);
    }

    #[test]
    fn load_hoisted_only_without_stores() {
        // Loop with stores: load of an unrelated pointer must stay.
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr, Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(1), |b, _| {
            let v = b.load(Type::I32, b.arg(0)); // may alias a store? stores exist
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, v);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        run(&mut m);
        assert_verified(&m);
        assert!(in_any_loop(&m, fid, |i| matches!(
            i.op,
            Opcode::Load { .. }
        )));
    }

    #[test]
    fn load_from_readonly_loop_hoisted() {
        // No stores in the loop: the load hoists.
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::constant("k", Type::I32, vec![9]));
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let mut iv = Value::i32(0);
        b.counted_loop(b.arg(0), |b, i| {
            let v = b.load(Type::I32, Value::Global(g));
            let s = b.binary(BinOp::Add, i, v);
            let _ = s;
            iv = i;
        });
        b.ret(Some(iv));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        assert!(run(&mut m));
        assert_verified(&m);
        assert!(!in_any_loop(&m, fid, |i| matches!(
            i.op,
            Opcode::Load { .. }
        )));
    }

    #[test]
    fn readnone_call_hoisted() {
        let mut m = Module::new("t");
        let mag = {
            let mut b = FunctionBuilder::new("mag", vec![Type::I32], Type::I32);
            let r = b.binary(BinOp::Mul, b.arg(0), b.arg(0));
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        m.func_mut(mag).attrs.readnone = true;
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, _| {
            let v = b.call(mag, Type::I32, vec![b.arg(1)]); // invariant call
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, v);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[10, 3], 100_000).unwrap();
        assert!(run(&mut m));
        assert_verified(&m);
        let after = run_function(&m, fid, &[10, 3], 100_000).unwrap();
        assert_eq!(before.return_value, after.return_value);
        // The call now executes once, not ten times.
        assert_eq!(after.calls(mag), 1);
        assert_eq!(before.calls(mag), 10);
    }

    #[test]
    fn opaque_call_not_hoisted() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("state", Type::I32, 1));
        let tick = {
            let mut b = FunctionBuilder::new("tick", vec![], Type::I32);
            let v = b.load(Type::I32, Value::Global(g));
            let n = b.binary(BinOp::Add, v, Value::i32(1));
            b.store(Value::Global(g), n);
            b.ret(Some(n));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, _| {
            let v = b.call(tick, Type::I32, vec![]);
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, v);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[4], 100_000).unwrap();
        run(&mut m);
        assert_verified(&m);
        let after = run_function(&m, fid, &[4], 100_000).unwrap();
        assert_eq!(before.return_value, after.return_value);
        assert_eq!(after.calls(tick), 4);
    }

    #[test]
    fn dependent_chain_hoists_over_iterations() {
        // inv2 depends on inv1; both hoist (via repeated fixpoint).
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, _| {
            let inv1 = b.binary(BinOp::Mul, b.arg(1), Value::i32(3));
            let inv2 = b.binary(BinOp::Add, inv1, Value::i32(5));
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, inv2);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        assert!(run(&mut m));
        assert_verified(&m);
        assert!(!in_any_loop(&m, fid, |i| {
            matches!(i.op, Opcode::Binary(BinOp::Mul, ..))
        }));
        let after = run_function(&m, fid, &[2, 1], 100_000).unwrap();
        assert_eq!(after.return_value, Some(16));
    }
}
