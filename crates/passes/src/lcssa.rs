//! `-lcssa`: loop-closed SSA form.
//!
//! Every value defined inside a loop and used outside it is routed through
//! a φ-node in the loop's exit block(s). Downstream loop transforms
//! (unrolling, deletion) then only need to update exit φs rather than
//! chase arbitrary external uses.

use autophase_ir::cfg::Cfg;
use autophase_ir::{BlockId, FuncId, Inst, InstId, Module, Opcode, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    crate::util::for_each_function(m, form_lcssa)
}

fn form_lcssa(m: &mut Module, fid: FuncId) -> bool {
    let mut changed = false;
    loop {
        let facts = m.facts(fid);
        let f = m.func(fid);
        let (cfg, dt, loops, index) = (facts.cfg(), facts.dom(), facts.loops(), facts.users());
        // (live-out inst, its block, outside users, exit block to close in)
        type Todo = (InstId, BlockId, Vec<(InstId, BlockId)>, BlockId);
        let mut todo: Option<Todo> = None;
        'search: for l in loops {
            for &bb in &l.blocks {
                for &iid in &f.block(bb).insts {
                    if f.inst(iid).ty.is_void() {
                        continue;
                    }
                    let outside: Vec<(InstId, BlockId)> = index
                        .users(iid)
                        .iter()
                        .copied()
                        .filter(|(user, ubb)| {
                            if l.contains(*ubb) {
                                // A φ use in an exit block attributes to the
                                // in-loop pred; φ uses inside stay inside.
                                false
                            } else if let Opcode::Phi { incoming } = &f.inst(*user).op {
                                // Already-closed uses (φ in exit with in-loop
                                // incoming edge) don't count.
                                !(l.exits.contains(ubb)
                                    && incoming
                                        .iter()
                                        .all(|(p, v)| *v != Value::Inst(iid) || l.contains(*p)))
                            } else {
                                true
                            }
                        })
                        .collect();
                    if outside.is_empty() {
                        continue;
                    }
                    // Route through the (dedicated) exit the uses are
                    // dominated by; with multiple exits pick the first exit
                    // dominating all uses, else skip (rare, needs
                    // loop-simplify first).
                    let exit = l.exits.iter().copied().find(|&e| {
                        l.is_dedicated_exit(cfg, e)
                            && outside.iter().all(|(_, ubb)| dt.dominates(e, *ubb))
                            && dt.is_reachable(e)
                            && f.block_of(iid)
                                .map(|db| cfg.unique_preds(e).iter().all(|p| dt.dominates(db, *p)))
                                == Some(true)
                    });
                    if let Some(e) = exit {
                        todo = Some((iid, bb, outside, e));
                        break 'search;
                    }
                }
            }
        }
        let Some((iid, _bb, uses, exit)) = todo else {
            return changed;
        };
        let f = m.func_mut(fid);
        let ty = f.inst(iid).ty;
        let preds: Vec<BlockId> = {
            let cfg = Cfg::new(f);
            cfg.unique_preds(exit)
        };
        let phi = f.insert_inst(
            exit,
            0,
            Inst::new(
                ty,
                Opcode::Phi {
                    incoming: preds.into_iter().map(|p| (p, Value::Inst(iid))).collect(),
                },
            ),
        );
        for (user, _) in uses {
            if user == phi {
                continue;
            }
            f.inst_mut(user)
                .replace_uses(Value::Inst(iid), Value::Inst(phi));
        }
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type};

    /// True if every loop-defined value used outside its loop flows through an
    /// exit φ.
    fn is_lcssa(m: &Module, fid: FuncId) -> bool {
        let facts = m.facts(fid);
        let f = m.func(fid);
        let (loops, index) = (facts.loops(), facts.users());
        for l in loops {
            for &bb in &l.blocks {
                for &iid in &f.block(bb).insts {
                    for &(user, ubb) in index.users(iid) {
                        if l.contains(ubb) {
                            continue;
                        }
                        let ok = match &f.inst(user).op {
                            Opcode::Phi { incoming } => {
                                l.exits.contains(&ubb)
                                    && incoming
                                        .iter()
                                        .all(|(p, v)| *v != Value::Inst(iid) || l.contains(*p))
                            }
                            _ => false,
                        };
                        if !ok {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    #[test]
    fn external_use_gets_exit_phi() {
        // Value computed in the loop header, used after the loop.
        use autophase_ir::CmpPred;
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let entry = b.entry_block();
        b.br(header);
        b.switch_to(header);
        let i = b.phi(Type::I32, vec![(entry, Value::i32(0))]);
        let v = b.binary(BinOp::Mul, i, Value::i32(3)); // defined in header
        let c = b.icmp(CmpPred::Slt, i, b.arg(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let next = b.binary(BinOp::Add, i, Value::i32(1));
        b.br(header);
        if let Value::Inst(phi_id) = i {
            if let Opcode::Phi { incoming } = &mut b.func_mut().inst_mut(phi_id).op {
                incoming.push((body, next));
            }
        }
        b.switch_to(exit);
        let r = b.binary(BinOp::Add, v, Value::i32(100)); // external use of v
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        assert!(!is_lcssa(&m, fid));
        let before = run_function(&m, fid, &[4], 100_000).unwrap().return_value;
        assert!(run(&mut m));
        assert_verified(&m);
        assert!(is_lcssa(&m, fid));
        let after = run_function(&m, fid, &[4], 100_000).unwrap().return_value;
        assert_eq!(before, after);
        assert_eq!(after, Some(112)); // v = 4*3 at exit, + 100
    }

    #[test]
    fn loop_without_external_uses_untouched() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        assert!(is_lcssa(&m, fid));
        assert!(!run(&mut m));
    }

    #[test]
    fn induction_phi_use_outside_closed() {
        // The loop's own induction φ returned after the loop.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let mut iv = Value::i32(0);
        b.counted_loop(b.arg(0), |_b, i| {
            iv = i;
        });
        b.ret(Some(iv));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[5], 100_000).unwrap().return_value;
        run(&mut m);
        assert_verified(&m);
        assert!(is_lcssa(&m, fid));
        let after = run_function(&m, fid, &[5], 100_000).unwrap().return_value;
        assert_eq!(before, after);
    }
}
