//! `-loop-reduce` (loop strength reduction).
//!
//! A multiply of the induction variable by a loop-invariant constant
//! (`k = i * c`) is replaced by a new induction variable updated by
//! addition (`k' = φ(init*c, k' + step*c)`). Multipliers are expensive in
//! hardware; the HLS delay model charges them several times an adder, so
//! this directly shortens the critical path in loop bodies.

use crate::util;
use autophase_ir::{BinOp, FuncId, Inst, Module, Opcode, Value};

/// Run the pass. Returns true if any multiply was reduced.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = false;
        while reduce_once(m, fid) {
            changed = true;
        }
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

fn reduce_once(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, loops) = (facts.cfg(), facts.loops());
    for l in loops {
        let Some(preheader) = l.entering_block(cfg) else {
            continue;
        };
        let Some(latch) = l.single_latch() else {
            continue;
        };
        // Induction φs in the header: i = φ(pre: init, latch: i + step).
        // With one latch, the latch's is the only in-loop entry.
        for iv in f.phis(l.header) {
            let Some(ind) = l.induction(f, cfg, iv) else {
                continue;
            };
            let [step] = ind.steps[..] else {
                continue;
            };
            let (init, sty, step) = (ind.init, step.ty, step.by);
            // Find `k = iv * c` inside the loop with constant c (≠ 0, ±1 and
            // not a power of two — instcombine handles those better).
            for &bb in &l.blocks {
                for &k in &f.block(bb).insts {
                    let Opcode::Binary(BinOp::Mul, a, Value::ConstInt(cty, c)) = f.inst(k).op
                    else {
                        continue;
                    };
                    if a != Value::Inst(iv) || c == 0 || c == 1 || c == -1 {
                        continue;
                    }
                    if util::power_of_two(c).is_some() {
                        continue;
                    }
                    // Build k' = φ(pre: init*c, latch: k' + step*c).
                    let ty = f.inst(k).ty;
                    let fm = m.func_mut(fid);
                    // init*c computed in the preheader (constant-folded when
                    // init is constant).
                    let init_times_c: Value = match init {
                        Value::ConstInt(_, iv0) => Value::ConstInt(
                            ty,
                            autophase_ir::fold::eval_binop(BinOp::Mul, ty, iv0, c),
                        ),
                        other => {
                            let at = fm.block(preheader).insts.len().saturating_sub(1);
                            let id = fm.insert_inst(
                                preheader,
                                at,
                                Inst::new(
                                    ty,
                                    Opcode::Binary(BinOp::Mul, other, Value::ConstInt(cty, c)),
                                ),
                            );
                            Value::Inst(id)
                        }
                    };
                    let phi = fm.insert_inst(
                        l.header,
                        0,
                        Inst::new(ty, Opcode::Phi { incoming: vec![] }),
                    );
                    // k'_next inserted in the latch before its terminator.
                    let at = fm.block(latch).insts.len().saturating_sub(1);
                    let kn = fm.insert_inst(
                        latch,
                        at,
                        Inst::new(
                            ty,
                            Opcode::Binary(
                                BinOp::Add,
                                Value::Inst(phi),
                                Value::const_int(
                                    ty,
                                    autophase_ir::fold::eval_binop(BinOp::Mul, sty, step, c),
                                ),
                            ),
                        ),
                    );
                    if let Opcode::Phi { incoming } = &mut fm.inst_mut(phi).op {
                        incoming.push((preheader, init_times_c));
                        incoming.push((latch, Value::Inst(kn)));
                    }
                    // Replace k with the new IV. k = iv*c is exact at every
                    // point where k executes... but k reads the *current*
                    // φ, so substituting the φ k' (which also tracks the
                    // current iteration) is exact everywhere in the loop.
                    fm.replace_all_uses(Value::Inst(k), Value::Inst(phi));
                    if let Some(kbb) = fm.block_of(k) {
                        fm.remove_inst(kbb, k);
                    }
                    return true;
                }
            }
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
    use autophase_ir::Type;

    fn count_muls(m: &Module, fid: FuncId) -> usize {
        let f = m.func(fid);
        f.block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Binary(BinOp::Mul, ..)))
            .count()
    }

    #[test]
    fn iv_multiply_becomes_additive_iv() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let k = b.binary(BinOp::Mul, i, Value::i32(12)); // strength-reducible
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, k);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[7], 100_000).unwrap().return_value;
        assert_eq!(count_muls(&m, fid), 1);
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(count_muls(&m, fid), 0);
        let after = run_function(&m, fid, &[7], 100_000).unwrap().return_value;
        assert_eq!(before, after);
        assert_eq!(after, Some(252)); // 12 * (0+1+...+6)
    }

    #[test]
    fn power_of_two_left_for_instcombine() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let k = b.binary(BinOp::Mul, i, Value::i32(8));
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, k);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn invariant_multiply_untouched() {
        // x*12 where x is an argument, not an IV: licm's job, not lsr's.
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, _| {
            let k = b.binary(BinOp::Mul, b.arg(1), Value::i32(12));
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, k);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn rotated_loop_also_reduced() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let k = b.binary(BinOp::Mul, i, Value::i32(5));
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, k);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[6], 100_000).unwrap().return_value;
        assert!(run(&mut m));
        assert_verified(&m);
        let after = run_function(&m, fid, &[6], 100_000).unwrap().return_value;
        assert_eq!(before, after);
        assert_eq!(count_muls(&m, fid), 0);
    }
}
