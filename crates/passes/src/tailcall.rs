//! `-tailcallelim`: turn self-recursive tail calls into loops.
//!
//! A call to the enclosing function immediately followed by `ret` of the
//! call's result (or a bare `ret` for void) is replaced by a jump back to a
//! loop header inserted after the entry block, with φ-nodes carrying the
//! updated "arguments". The paper's Table 2 discussion calls this out as a
//! branch-count-correlated pass.

use autophase_ir::{BlockId, FuncId, Inst, InstId, Module, Opcode, Type, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    let fids: Vec<FuncId> = m.func_ids().collect();
    let mut changed = false;
    for fid in fids {
        changed |= eliminate(m, fid);
    }
    changed
}

fn eliminate(m: &mut Module, fid: FuncId) -> bool {
    // Find tail sites: blocks ending [call self(args...), ret <callres|void>].
    let f = m.func(fid);
    let mut sites: Vec<(BlockId, InstId, Vec<Value>)> = Vec::new();
    for bb in f.block_ids() {
        let insts = &f.block(bb).insts;
        if insts.len() < 2 {
            continue;
        }
        let term = insts[insts.len() - 1];
        let call = insts[insts.len() - 2];
        let Opcode::Call { callee, args } = &f.inst(call).op else {
            continue;
        };
        if *callee != fid {
            continue;
        }
        let ok = match &f.inst(term).op {
            Opcode::Ret { value: Some(v) } => *v == Value::Inst(call),
            Opcode::Ret { value: None } => f.ret_ty.is_void(),
            _ => false,
        };
        if ok {
            sites.push((bb, call, args.clone()));
        }
    }
    if sites.is_empty() {
        return false;
    }

    let f = m.func_mut(fid);
    let entry_before_split = f.entry;
    let n_params = f.params.len();
    let param_tys = f.params.clone();

    // Split the entry block before its first instruction: everything in it
    // moves to a new "header" block that we can branch back to. `old_entry`
    // stays the function entry and now only forwards to the header (φs
    // cannot live in the entry block).
    let old_entry = f.entry;
    let header = f.split_block(old_entry, 0);

    // One φ per parameter, living in the header (preds: entry + each site).
    let mut param_phis: Vec<InstId> = Vec::new();
    for (i, ty) in param_tys.iter().enumerate() {
        let phi = f.insert_inst(
            header,
            i,
            Inst::new(
                *ty,
                Opcode::Phi {
                    incoming: vec![(old_entry, Value::Arg(i as u32))],
                },
            ),
        );
        param_phis.push(phi);
    }
    // Rewrite every argument use to the φs (including the tail-call
    // argument lists: the next iteration's values are computed from the
    // current φs). Only the φs' own incoming-from-entry entries keep the
    // raw arguments.
    for bb in f.block_ids().collect::<Vec<_>>() {
        let ids: Vec<InstId> = f.block(bb).insts.clone();
        for iid in ids {
            if param_phis.contains(&iid) {
                continue;
            }
            let inst = f.inst_mut(iid);
            inst.for_each_operand_mut(|v| {
                if let Value::Arg(i) = *v {
                    if (i as usize) < n_params {
                        *v = Value::Inst(param_phis[i as usize]);
                    }
                }
            });
        }
    }

    // A tail site in the old entry block moved into the header with the
    // rest of the entry's instructions.
    let sites: Vec<(BlockId, InstId, Vec<Value>)> = sites
        .into_iter()
        .map(|(bb, call, args)| {
            if bb == entry_before_split {
                (header, call, args)
            } else {
                (bb, call, args)
            }
        })
        .collect();

    // Rewrite each tail site: drop call+ret, branch to header, feed φs with
    // the (already rewritten, φ-based) argument values.
    for (bb, call, _) in &sites {
        let args = match &f.inst(*call).op {
            Opcode::Call { args, .. } => args.clone(),
            _ => unreachable!("site is a call"),
        };
        let at = f.block(*bb).insts.len() - 2;
        f.end_with_branch(*bb, at, header);
        for (i, phi) in param_phis.iter().enumerate() {
            if let Opcode::Phi { incoming } = &mut f.inst_mut(*phi).op {
                incoming.push((*bb, args.get(i).copied().unwrap_or(Value::Undef(Type::I32))));
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::{run_function, run_main};
    use autophase_ir::loops::analyze_loops;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, CmpPred};

    /// sum(n, acc) = n == 0 ? acc : sum(n - 1, acc + n)
    fn tail_sum() -> Module {
        let mut m = Module::new("t");
        let fid = autophase_ir::FuncId::from_index(0);
        let mut b = FunctionBuilder::new("sum", vec![Type::I32, Type::I32], Type::I32);
        let base = b.new_block();
        let rec = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        b.cond_br(c, base, rec);
        b.switch_to(base);
        b.ret(Some(b.arg(1)));
        b.switch_to(rec);
        let n1 = b.binary(BinOp::Sub, b.arg(0), Value::i32(1));
        let a1 = b.binary(BinOp::Add, b.arg(1), b.arg(0));
        let r = b.call(fid, Type::I32, vec![n1, a1]);
        b.ret(Some(r));
        assert_eq!(m.add_function(b.finish()), fid);

        let mut mb = FunctionBuilder::new("main", vec![], Type::I32);
        let r = mb.call(fid, Type::I32, vec![Value::i32(10), Value::i32(0)]);
        mb.ret(Some(r));
        m.add_function(mb.finish());
        m
    }

    #[test]
    fn tail_recursion_becomes_loop() {
        let mut m = tail_sum();
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        assert_eq!(before, Some(55));
        // sum no longer calls itself…
        let sum = m.func_by_name("sum").unwrap();
        let f = m.func(sum);
        let has_self_call = f.block_ids().any(|bb| {
            f.block(bb)
                .insts
                .iter()
                .any(|&i| matches!(f.inst(i).op, Opcode::Call { callee, .. } if callee == sum))
        });
        assert!(!has_self_call);
        // …and now contains a loop.
        let (_, _, loops) = analyze_loops(f);
        assert_eq!(loops.len(), 1);
        // Deep recursion no longer overflows: 100k iterations run fine.
        let t = run_function(&m, sum, &[100_000, 0], 10_000_000).unwrap();
        assert_eq!(t.return_value, Some(705_082_704)); // sum 1..=100000 wrapped to i32
    }

    #[test]
    fn non_tail_recursion_untouched() {
        // fib has calls not in tail position.
        let mut m = Module::new("t");
        let fid = autophase_ir::FuncId::from_index(0);
        let mut b = FunctionBuilder::new("fib", vec![Type::I32], Type::I32);
        let base = b.new_block();
        let rec = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(2));
        b.cond_br(c, base, rec);
        b.switch_to(base);
        b.ret(Some(b.arg(0)));
        b.switch_to(rec);
        let n1 = b.binary(BinOp::Sub, b.arg(0), Value::i32(1));
        let f1 = b.call(fid, Type::I32, vec![n1]);
        let n2 = b.binary(BinOp::Sub, b.arg(0), Value::i32(2));
        let f2 = b.call(fid, Type::I32, vec![n2]);
        let s = b.binary(BinOp::Add, f1, f2);
        b.ret(Some(s));
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn void_tail_call_eliminated() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("out", Type::I32, 1));
        let fid = autophase_ir::FuncId::from_index(0);
        let mut b = FunctionBuilder::new("count_down", vec![Type::I32], Type::Void);
        let base = b.new_block();
        let rec = b.new_block();
        let c = b.icmp(CmpPred::Sle, b.arg(0), Value::i32(0));
        b.cond_br(c, base, rec);
        b.switch_to(base);
        b.ret(None);
        b.switch_to(rec);
        let cur = b.load(Type::I32, Value::Global(g));
        let nxt = b.binary(BinOp::Add, cur, Value::i32(1));
        b.store(Value::Global(g), nxt);
        let n1 = b.binary(BinOp::Sub, b.arg(0), Value::i32(1));
        b.call(fid, Type::Void, vec![n1]);
        b.ret(None);
        assert_eq!(m.add_function(b.finish()), fid);
        let mut mb = FunctionBuilder::new("main", vec![], Type::I32);
        mb.call(fid, Type::Void, vec![Value::i32(5)]);
        let v = mb.load(Type::I32, Value::Global(g));
        mb.ret(Some(v));
        m.add_function(mb.finish());

        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        assert_eq!(before, Some(5));
    }
}
