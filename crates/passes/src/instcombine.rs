//! `-instcombine`: peephole algebraic simplification.
//!
//! Iterates local rewrite rules to a fixpoint: constant folding, identity
//! and zero laws, strength reduction (multiply/divide/remainder by powers
//! of two), comparison canonicalization, select folding, cast chains, and
//! `gep` chain collapsing.

use crate::util;
use autophase_ir::fold;
use autophase_ir::{
    BinOp, CastOp, CmpPred, Function, InstId, Module, Opcode, Rewrites, Type, Value,
};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        // Look before writing: a function no rule fires on is not touched
        // (nor copied, if a snapshot shares it).
        let f = m.func(fid);
        let untouched = Rewrites::new();
        let fires = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.iter())
            .any(|&iid| simplify(f, &untouched, iid).is_some());
        let mut changed = fires && combine(m.func_mut(fid));
        changed |= util::delete_dead(m, fid) > 0;
        changed
    })
}

/// Fixpoint over the local rules. In-place rewrites are applied
/// immediately; replacements go to a forwarding table, through which every
/// operand is read, so later simplifications always see the current IR.
/// The table is committed once, after the fixpoint.
fn combine(f: &mut Function) -> bool {
    let mut changed = false;
    let mut rw = Rewrites::new();
    let blocks: Vec<_> = f.block_ids().collect();
    loop {
        let mut local = false;
        for &bb in &blocks {
            for pos in 0..f.block(bb).insts.len() {
                let iid = f.block(bb).insts[pos];
                if rw.is_removed(iid) {
                    continue;
                }
                if rw.has_forwards() {
                    f.inst_mut(iid)
                        .for_each_operand_mut(|v| *v = rw.resolve(*v));
                }
                match simplify(f, &rw, iid) {
                    // Every ReplaceWith source is a pure instruction;
                    // retiring it immediately keeps the fixpoint finite.
                    Some(Rewrite::ReplaceWith(v)) => rw.replace(iid, v),
                    Some(Rewrite::NewOp(op)) => f.inst_mut(iid).op = op,
                    None => continue,
                }
                local = true;
            }
        }
        changed |= local;
        if !local {
            break;
        }
    }
    f.apply_rewrites(&rw);
    changed
}

enum Rewrite {
    /// Replace all uses of the instruction's result with a value.
    ReplaceWith(Value),
    /// Rewrite the instruction in place.
    NewOp(Opcode),
}

/// The opcode of the instruction defining `v`, with its operands read
/// through the pending rewrites (`v` itself is already resolved: it is an
/// operand of the instruction being simplified).
fn def_op(f: &Function, rw: &Rewrites, v: Value) -> Option<Opcode> {
    let Value::Inst(id) = v else { return None };
    let r = |v: &Value| rw.resolve(*v);
    match &f.inst(id).op {
        Opcode::Binary(op, a, b) => Some(Opcode::Binary(*op, r(a), r(b))),
        Opcode::Cast(op, a) => Some(Opcode::Cast(*op, r(a))),
        Opcode::Gep { ptr, index } => Some(Opcode::Gep {
            ptr: r(ptr),
            index: r(index),
        }),
        _ => None,
    }
}

/// The rewrite that applies to `iid`, if any. A replacement of an
/// instruction by itself (possible only in unreachable cycles) is none.
fn simplify(f: &Function, rw: &Rewrites, iid: InstId) -> Option<Rewrite> {
    match simplify_inst(f, rw, iid) {
        Some(Rewrite::ReplaceWith(v)) if v == Value::Inst(iid) => None,
        rewrite => rewrite,
    }
}

fn simplify_inst(f: &Function, rw: &Rewrites, iid: InstId) -> Option<Rewrite> {
    let inst = f.inst(iid);
    let ty = inst.ty;
    match &inst.op {
        Opcode::Binary(op, a, b) => simplify_binary(f, rw, ty, *op, *a, *b),
        Opcode::ICmp(pred, a, b) => simplify_icmp(f, rw, *pred, *a, *b),
        Opcode::Select { cond, tval, fval } => {
            if let Value::ConstInt(_, c) = cond {
                return Some(Rewrite::ReplaceWith(if *c != 0 { *tval } else { *fval }));
            }
            if tval == fval {
                return Some(Rewrite::ReplaceWith(*tval));
            }
            // select c, true, false → zext/id of c at i1
            if ty == Type::I1 && tval.is_one() && fval.is_zero() {
                return Some(Rewrite::ReplaceWith(*cond));
            }
            None
        }
        Opcode::Cast(op, v) => {
            if let Some(c) = fold::fold_cast(*op, ty, *v) {
                return Some(Rewrite::ReplaceWith(c));
            }
            // Identity casts.
            let from = f.type_of(*v);
            if from == ty && matches!(op, CastOp::BitCast) {
                return Some(Rewrite::ReplaceWith(*v));
            }
            if from == ty && matches!(op, CastOp::ZExt | CastOp::SExt | CastOp::Trunc) {
                return Some(Rewrite::ReplaceWith(*v));
            }
            // sext(sext(x)) → sext(x); zext(zext(x)) → zext(x);
            // trunc(zext/sext(x)) with matching widths → x.
            if let Some(Opcode::Cast(iop, iv)) = def_op(f, rw, *v) {
                let orig_ty = f.type_of(iv);
                match (iop, op) {
                    (CastOp::SExt, CastOp::SExt) => {
                        return Some(Rewrite::NewOp(Opcode::Cast(CastOp::SExt, iv)))
                    }
                    (CastOp::ZExt, CastOp::ZExt) => {
                        return Some(Rewrite::NewOp(Opcode::Cast(CastOp::ZExt, iv)))
                    }
                    (CastOp::SExt | CastOp::ZExt, CastOp::Trunc) if orig_ty == ty => {
                        return Some(Rewrite::ReplaceWith(iv))
                    }
                    _ => {}
                }
            }
            None
        }
        Opcode::Gep { ptr, index } => {
            // gep(p, 0) → p
            if index.is_zero() {
                return Some(Rewrite::ReplaceWith(*ptr));
            }
            // gep(gep(p, c1), c2) → gep(p, c1+c2) for constants
            if let Value::ConstInt(ity, c2) = index {
                if let Some(Opcode::Gep {
                    ptr: base,
                    index: Value::ConstInt(_, c1),
                }) = def_op(f, rw, *ptr)
                {
                    return Some(Rewrite::NewOp(Opcode::Gep {
                        ptr: base,
                        index: Value::ConstInt(*ity, c1 + c2),
                    }));
                }
            }
            None
        }
        _ => None,
    }
}

fn simplify_binary(
    f: &Function,
    rw: &Rewrites,
    ty: Type,
    op: BinOp,
    a: Value,
    b: Value,
) -> Option<Rewrite> {
    // Constant fold outright.
    if let Some(c) = fold::fold_binop(op, ty, a, b) {
        return Some(Rewrite::ReplaceWith(c));
    }
    // Canonicalize: constant to the right for commutative ops.
    if op.is_commutative() && a.is_const() && !b.is_const() {
        return Some(Rewrite::NewOp(Opcode::Binary(op, b, a)));
    }
    let b_const = b.as_const_int();
    match op {
        BinOp::Add => {
            if b.is_zero() {
                return Some(Rewrite::ReplaceWith(a));
            }
            // (x + c1) + c2 → x + (c1+c2)
            if let Some(c2) = b_const {
                if let Some(Opcode::Binary(BinOp::Add, x, Value::ConstInt(_, c1))) =
                    def_op(f, rw, a)
                {
                    return Some(Rewrite::NewOp(Opcode::Binary(
                        BinOp::Add,
                        x,
                        Value::const_int(ty, c1.wrapping_add(c2)),
                    )));
                }
            }
        }
        BinOp::Sub => {
            if b.is_zero() {
                return Some(Rewrite::ReplaceWith(a));
            }
            if a == b {
                return Some(Rewrite::ReplaceWith(Value::const_int(ty, 0)));
            }
            // x - c → x + (-c): canonical form feeds the Add rules.
            if let Some(c) = b_const {
                if c != 0 {
                    return Some(Rewrite::NewOp(Opcode::Binary(
                        BinOp::Add,
                        a,
                        Value::const_int(ty, c.wrapping_neg()),
                    )));
                }
            }
        }
        BinOp::Mul => {
            if b.is_zero() {
                return Some(Rewrite::ReplaceWith(Value::const_int(ty, 0)));
            }
            if b.is_one() && ty != Type::I1 {
                return Some(Rewrite::ReplaceWith(a));
            }
            if let Some(c) = b_const {
                if let Some(k) = util::power_of_two(c) {
                    if k > 0 {
                        return Some(Rewrite::NewOp(Opcode::Binary(
                            BinOp::Shl,
                            a,
                            Value::const_int(ty, k as i64),
                        )));
                    }
                }
            }
        }
        BinOp::UDiv => {
            if b.is_one() && ty != Type::I1 {
                return Some(Rewrite::ReplaceWith(a));
            }
            if let Some(c) = b_const {
                if let Some(k) = util::power_of_two(c) {
                    return Some(Rewrite::NewOp(Opcode::Binary(
                        BinOp::LShr,
                        a,
                        Value::const_int(ty, k as i64),
                    )));
                }
            }
        }
        BinOp::SDiv => {
            if b.is_one() && ty != Type::I1 {
                return Some(Rewrite::ReplaceWith(a));
            }
        }
        BinOp::URem => {
            if let Some(c) = b_const {
                if let Some(_k) = util::power_of_two(c) {
                    return Some(Rewrite::NewOp(Opcode::Binary(
                        BinOp::And,
                        a,
                        Value::const_int(ty, c - 1),
                    )));
                }
            }
            if b.is_one() {
                return Some(Rewrite::ReplaceWith(Value::const_int(ty, 0)));
            }
        }
        BinOp::SRem => {
            if b.is_one() {
                return Some(Rewrite::ReplaceWith(Value::const_int(ty, 0)));
            }
        }
        BinOp::And => {
            if b.is_zero() {
                return Some(Rewrite::ReplaceWith(Value::const_int(ty, 0)));
            }
            if a == b {
                return Some(Rewrite::ReplaceWith(a));
            }
            if let Some(c) = b_const {
                // x & all-ones → x
                if ty.is_int() && ty.wrap(c) == ty.wrap(-1) {
                    return Some(Rewrite::ReplaceWith(a));
                }
            }
        }
        BinOp::Or => {
            if b.is_zero() {
                return Some(Rewrite::ReplaceWith(a));
            }
            if a == b {
                return Some(Rewrite::ReplaceWith(a));
            }
            if let Some(c) = b_const {
                if ty.is_int() && ty.wrap(c) == ty.wrap(-1) {
                    return Some(Rewrite::ReplaceWith(Value::const_int(ty, -1)));
                }
            }
        }
        BinOp::Xor => {
            if b.is_zero() {
                return Some(Rewrite::ReplaceWith(a));
            }
            if a == b {
                return Some(Rewrite::ReplaceWith(Value::const_int(ty, 0)));
            }
        }
        BinOp::Shl | BinOp::LShr | BinOp::AShr => {
            if b.is_zero() {
                return Some(Rewrite::ReplaceWith(a));
            }
            if a.is_zero() {
                return Some(Rewrite::ReplaceWith(Value::const_int(ty, 0)));
            }
        }
    }
    None
}

fn simplify_icmp(
    f: &Function,
    rw: &Rewrites,
    pred: CmpPred,
    a: Value,
    b: Value,
) -> Option<Rewrite> {
    if let Some(c) = fold::fold_icmp(pred, a, b) {
        return Some(Rewrite::ReplaceWith(c));
    }
    // Canonicalize constants to the right.
    if a.is_const() && !b.is_const() {
        return Some(Rewrite::NewOp(Opcode::ICmp(pred.swapped(), b, a)));
    }
    if a == b {
        let r = matches!(
            pred,
            CmpPred::Eq | CmpPred::Sle | CmpPred::Sge | CmpPred::Ule | CmpPred::Uge
        );
        return Some(Rewrite::ReplaceWith(Value::bool(r)));
    }
    // icmp (x + c1), c2 → icmp x, (c2 - c1) for eq/ne (wrap-safe).
    if let Value::ConstInt(cty, c2) = b {
        if matches!(pred, CmpPred::Eq | CmpPred::Ne) {
            if let Some(Opcode::Binary(BinOp::Add, x, Value::ConstInt(_, c1))) = def_op(f, rw, a) {
                return Some(Rewrite::NewOp(Opcode::ICmp(
                    pred,
                    x,
                    Value::const_int(cty, c2.wrapping_sub(c1)),
                )));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    fn single_ret_const(m: &Module) -> Option<i64> {
        let f = m.func(m.main()?);
        let term = f.terminator(f.entry)?;
        match f.inst(term).op {
            Opcode::Ret {
                value: Some(Value::ConstInt(_, c)),
            } => Some(c),
            _ => None,
        }
    }

    #[test]
    fn folds_constant_tree() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let x = b.binary(BinOp::Add, Value::i32(2), Value::i32(3));
        let y = b.binary(BinOp::Mul, x, Value::i32(4));
        let z = b.binary(BinOp::Sub, y, Value::i32(6));
        b.ret(Some(z));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(single_ret_const(&m), Some(14));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 1);
    }

    #[test]
    fn identities_removed() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let x = b.arg(0);
        let a = b.binary(BinOp::Add, x, Value::i32(0));
        let c = b.binary(BinOp::Mul, a, Value::i32(1));
        let d = b.binary(BinOp::Xor, c, Value::i32(0));
        b.ret(Some(d));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 1); // just ret x
    }

    #[test]
    fn mul_pow2_becomes_shl() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let y = b.binary(BinOp::Mul, b.arg(0), Value::i32(8));
        b.ret(Some(y));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let f = m.func(m.main().unwrap());
        let has_shl = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .any(|i| matches!(f.inst(i).op, Opcode::Binary(BinOp::Shl, ..)));
        assert!(has_shl);
    }

    #[test]
    fn urem_pow2_becomes_and() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let y = b.binary(BinOp::URem, b.arg(0), Value::i32(16));
        b.ret(Some(y));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let f = m.func(m.main().unwrap());
        let has_and = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .any(|i| matches!(f.inst(i).op, Opcode::Binary(BinOp::And, ..)));
        assert!(has_and);
    }

    #[test]
    fn add_chain_constants_grouped() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a = b.binary(BinOp::Add, b.arg(0), Value::i32(3));
        let c = b.binary(BinOp::Add, a, Value::i32(4));
        b.ret(Some(c));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let f = m.func(m.main().unwrap());
        assert_eq!(f.num_insts(), 2); // x+7, ret
    }

    #[test]
    fn sub_self_and_sub_const_canonicalized() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let x = b.arg(0);
        let z = b.binary(BinOp::Sub, x, x);
        let w = b.binary(BinOp::Sub, x, Value::i32(5));
        let s = b.binary(BinOp::Add, z, w);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        let before = autophase_ir::interp::run_function(&m, m.main().unwrap(), &[42], 1000)
            .unwrap()
            .return_value;
        assert!(run(&mut m));
        assert_verified(&m);
        let after = autophase_ir::interp::run_function(&m, m.main().unwrap(), &[42], 1000)
            .unwrap()
            .return_value;
        assert_eq!(before, after);
        assert_eq!(after, Some(37));
    }

    #[test]
    fn icmp_canonicalization_and_fold() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I1);
        // 5 < x  →  x > 5
        let c = b.icmp(CmpPred::Slt, Value::i32(5), b.arg(0));
        b.ret(Some(c));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let f = m.func(m.main().unwrap());
        let cmp = f.block(f.entry).insts[0];
        assert!(matches!(
            f.inst(cmp).op,
            Opcode::ICmp(CmpPred::Sgt, Value::Arg(0), _)
        ));
    }

    #[test]
    fn select_const_cond_folds() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let s = b.select(Value::TRUE, b.arg(0), Value::i32(7));
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 1);
    }

    #[test]
    fn gep_chain_collapsed() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 8);
        let g1 = b.gep(p, Value::i32(2));
        let g2 = b.gep(g1, Value::i32(3));
        b.store(g2, Value::i32(11));
        let g3 = b.gep(p, Value::i32(5));
        let v = b.load(Type::I32, g3);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().return_value, Some(11));
    }

    #[test]
    fn cast_roundtrip_removed() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let w = b.cast(CastOp::SExt, Type::I64, b.arg(0));
        let n = b.cast(CastOp::Trunc, Type::I32, w);
        b.ret(Some(n));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 1);
    }

    #[test]
    fn fixpoint_semantics_preserved_on_branchy_code() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(1));
        b.counted_loop(Value::i32(6), |b, i| {
            let c = b.load(Type::I32, acc);
            let m2 = b.binary(BinOp::Mul, c, Value::i32(2));
            let p = b.binary(BinOp::Add, m2, i);
            let q = b.binary(BinOp::Sub, p, Value::i32(0));
            b.store(acc, q);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100_000).unwrap().observable();
        run(&mut m);
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
    }
}
