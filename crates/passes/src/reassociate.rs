//! `-reassociate`: reorder associative expression trees.
//!
//! Commutative-associative chains (`add`, `mul`, `and`, `or`, `xor`) are
//! flattened, constant leaves folded together, and the tree rebuilt with
//! the folded constant as the outermost right operand — exposing folds to
//! `-instcombine` and reducing the critical path for the HLS scheduler by
//! rebuilding as a balanced tree.

use crate::util;
use autophase_ir::{BinOp, FuncId, Inst, InstId, Module, Opcode, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = reassociate_function(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

fn reassociate_function(m: &mut Module, fid: FuncId) -> bool {
    let mut changed = false;
    let blocks: Vec<_> = m.func(fid).block_ids().collect();
    let mut facts = m.facts(fid);
    for bb in blocks {
        // Roots: chain heads not themselves feeding the same-op chain.
        let insts: Vec<InstId> = m.func(fid).block(bb).insts.clone();
        for iid in insts {
            let f = m.func(fid);
            if !f.inst_exists(iid) {
                continue;
            }
            let Opcode::Binary(op, ..) = f.inst(iid).op else {
                continue;
            };
            if !op.is_associative() {
                continue;
            }
            // Skip if this inst feeds a same-op parent in the same block
            // with single use (the parent is the root).
            let uses = facts.users().users(iid);
            if let [(parent, pbb)] = uses {
                if *pbb == bb && f.inst_exists(*parent) {
                    if let Opcode::Binary(pop, ..) = f.inst(*parent).op {
                        if pop == op {
                            continue;
                        }
                    }
                }
            }
            if rebuild_chain(m, fid, bb, iid, op, facts.users()) {
                changed = true;
                // The chain rewrite invalidated the snapshot.
                facts = m.facts(fid);
            }
        }
    }
    changed
}

/// Flatten the single-use same-block chain rooted at `root`, fold its
/// constant leaves, and rebuild as a balanced tree ending with the constant.
fn rebuild_chain(
    m: &mut Module,
    fid: FuncId,
    bb: autophase_ir::BlockId,
    root: InstId,
    op: BinOp,
    index: &crate::util::UserIndex,
) -> bool {
    let f = m.func(fid);
    let ty = f.inst(root).ty;
    // Collect leaves.
    let mut leaves: Vec<Value> = Vec::new();
    let mut members: Vec<InstId> = Vec::new();
    let mut chain_depth = 0usize;
    let mut stack = vec![(root, 1usize)];
    while let Some((iid, depth)) = stack.pop() {
        let Opcode::Binary(iop, a, b) = f.inst(iid).op else {
            unreachable!("chain member is binary")
        };
        debug_assert_eq!(iop, op);
        members.push(iid);
        chain_depth = chain_depth.max(depth);
        for v in [a, b] {
            let mut is_member = false;
            if let Value::Inst(child) = v {
                if f.inst_exists(child) && f.block_of(child) == Some(bb) {
                    if let Opcode::Binary(cop, ..) = f.inst(child).op {
                        if cop == op && index.use_count(child) == 1 {
                            stack.push((child, depth + 1));
                            is_member = true;
                        }
                    }
                }
            }
            if !is_member {
                leaves.push(v);
            }
        }
    }
    if members.len() < 2 {
        return false;
    }
    // Fold constants.
    let identity: i64 = match op {
        BinOp::Add | BinOp::Or | BinOp::Xor => 0,
        BinOp::Mul => 1,
        BinOp::And => ty.wrap(-1),
        _ => unreachable!("non-associative op"),
    };
    let mut konst = identity;
    let mut n_consts = 0;
    let mut vars: Vec<Value> = Vec::new();
    for leaf in leaves {
        if let Value::ConstInt(_, c) = leaf {
            konst = autophase_ir::fold::eval_binop(op, ty, konst, c);
            n_consts += 1;
        } else {
            vars.push(leaf);
        }
    }
    // Only rewrite when it helps: several constants fold together, an
    // identity is absorbed, or the existing *chain* is deeper than a
    // balanced rebuild would be. The depth comparison must stay within
    // the chain — measuring through leaf subexpressions (as `expr_depth`
    // does) would keep reporting "too deep" for any chain fed by a deep
    // leaf and rebuild it forever, so the pass would never reach a fixed
    // point.
    let n_leaves = vars.len().max(1);
    let balanced_depth =
        (usize::BITS - (n_leaves - 1).leading_zeros()) as usize + usize::from(konst != identity);
    let helps =
        n_consts > 1 || vars.len() + n_consts < members.len() + 1 || chain_depth > balanced_depth;
    if !helps {
        return false;
    }

    // Position of the root in the block (new instructions go right before).
    let root_pos = f
        .block(bb)
        .insts
        .iter()
        .position(|&i| i == root)
        .expect("root placed in bb");

    // Build a balanced tree of the variable leaves, then apply the constant.
    let fm = m.func_mut(fid);
    let mut layer: Vec<Value> = vars;
    if layer.is_empty() {
        layer.push(Value::ConstInt(ty, konst));
        konst = identity;
    }
    let mut insert_at = root_pos;
    while layer.len() > 1 {
        let mut next: Vec<Value> = Vec::new();
        let mut it = layer.chunks(2);
        for pair in &mut it {
            match pair {
                [a, b] => {
                    let id =
                        fm.insert_inst(bb, insert_at, Inst::new(ty, Opcode::Binary(op, *a, *b)));
                    insert_at += 1;
                    next.push(Value::Inst(id));
                }
                [a] => next.push(*a),
                _ => unreachable!(),
            }
        }
        layer = next;
    }
    let mut result = layer[0];
    if konst != identity {
        let id = fm.insert_inst(
            bb,
            insert_at,
            Inst::new(ty, Opcode::Binary(op, result, Value::ConstInt(ty, konst))),
        );
        result = Value::Inst(id);
    }
    fm.replace_all_uses(Value::Inst(root), result);
    // The old chain is now dead; delete_dead (run by caller) removes it,
    // but remove the root eagerly so it is not misidentified as a chain.
    fm.remove_inst(bb, root);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::Type;

    /// Depth of the expression tree rooted at `v`.
    fn expr_depth(f: &autophase_ir::Function, v: Value) -> usize {
        match v {
            Value::Inst(id) if f.inst_exists(id) => match f.inst(id).op {
                Opcode::Binary(_, a, b) => 1 + expr_depth(f, a).max(expr_depth(f, b)),
                _ => 1,
            },
            _ => 0,
        }
    }

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn constants_grouped_and_folded() {
        // ((x + 1) + y) + 2  →  (x + y) + 3
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let a = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        let c = b.binary(BinOp::Add, a, b.arg(1));
        let d = b.binary(BinOp::Add, c, Value::i32(2));
        b.ret(Some(d));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        let consts: Vec<i64> = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter_map(|i| match f.inst(i).op {
                Opcode::Binary(BinOp::Add, _, Value::ConstInt(_, c)) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![3]);
        let r = run_function(&m, m.main().unwrap(), &[10, 20], 100).unwrap();
        assert_eq!(r.return_value, Some(33));
    }

    #[test]
    fn long_chain_balanced() {
        // a+b+c+d+e+f+g+h: linear depth 8 → balanced depth ~3 (+1 per level).
        let mut b = FunctionBuilder::new("main", vec![Type::I32; 8], Type::I32);
        let mut acc = b.arg(0);
        for i in 1..8 {
            acc = b.binary(BinOp::Add, acc, b.arg(i));
        }
        b.ret(Some(acc));
        let mut m = module_with(b.finish());
        let fid = m.main().unwrap();
        let args: Vec<i64> = (1..=8).collect();
        let before = run_function(&m, fid, &args, 100).unwrap().return_value;
        assert!(run(&mut m));
        assert_verified(&m);
        let after = run_function(&m, fid, &args, 100).unwrap().return_value;
        assert_eq!(before, after);
        // Find the ret operand and measure depth.
        let f = m.func(fid);
        let term = f.terminator(f.entry).unwrap();
        let root = match f.inst(term).op {
            Opcode::Ret { value: Some(v) } => v,
            _ => panic!(),
        };
        assert!(expr_depth(f, root) <= 4, "depth {}", expr_depth(f, root));
    }

    #[test]
    fn mul_identity_absorbed() {
        // (x * 4) * 1 → constants folded, single mul by 4 remains.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a = b.binary(BinOp::Mul, b.arg(0), Value::i32(4));
        let c = b.binary(BinOp::Mul, a, Value::i32(1));
        b.ret(Some(c));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let f = m.func(m.main().unwrap());
        assert_eq!(f.num_insts(), 2);
    }

    #[test]
    fn non_associative_untouched() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a = b.binary(BinOp::Sub, b.arg(0), Value::i32(1));
        let c = b.binary(BinOp::Sub, a, Value::i32(2));
        b.ret(Some(c));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn multi_use_member_is_chain_boundary() {
        // a = x + 1 used twice: must not be folded into the chain.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        let c = b.binary(BinOp::Add, a, Value::i32(2));
        let d = b.binary(BinOp::Mul, a, c);
        b.ret(Some(d));
        let mut m = module_with(b.finish());
        let before = run_function(&m, m.main().unwrap(), &[5], 100)
            .unwrap()
            .return_value;
        run(&mut m);
        assert_verified(&m);
        let after = run_function(&m, m.main().unwrap(), &[5], 100)
            .unwrap()
            .return_value;
        assert_eq!(before, after);
        assert_eq!(after, Some(48)); // 6 * 8
    }

    #[test]
    fn xor_chain_with_constants() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a = b.binary(BinOp::Xor, b.arg(0), Value::i32(0xF0));
        let c = b.binary(BinOp::Xor, a, Value::i32(0x0F));
        b.ret(Some(c));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        let r = run_function(&m, m.main().unwrap(), &[0], 100).unwrap();
        assert_eq!(r.return_value, Some(0xFF));
    }
}
