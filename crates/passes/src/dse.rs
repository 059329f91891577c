//! `-dse`: dead-store elimination.
//!
//! Two rules:
//! * within a block, a store overwritten by a later store to the same
//!   address with no intervening may-alias read/call is dead;
//! * stores to a non-escaping alloca that is never loaded are dead.

use crate::util;
use autophase_ir::{BlockId, FuncId, InstId, Module, Opcode, Value};

/// Run the pass. Returns true if any store was removed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = intra_block(m, fid);
        changed |= unread_allocas(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

fn intra_block(m: &mut Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    let mut victims: Vec<(BlockId, InstId)> = Vec::new();
    for bb in f.block_ids() {
        let insts = &f.block(bb).insts;
        for (i, &iid) in insts.iter().enumerate() {
            let Opcode::Store { ptr, .. } = f.inst(iid).op else {
                continue;
            };
            // Scan forward for a killing store before any may-alias read.
            for &later in &insts[i + 1..] {
                let linst = f.inst(later);
                match &linst.op {
                    Opcode::Store { ptr: p2, .. } if *p2 == ptr => {
                        victims.push((bb, iid));
                        break;
                    }
                    Opcode::Store { ptr: p2, .. } if util::may_alias(f, *p2, ptr) => {
                        // Unknown overlap: stop (the later store may only
                        // partially shadow ours in a model with widths).
                        break;
                    }
                    Opcode::Load { ptr: p2 } if util::may_alias(f, *p2, ptr) => {
                        break;
                    }
                    Opcode::Call { .. } => break,
                    _ => {}
                }
            }
        }
    }
    if victims.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for (bb, iid) in victims {
        f.remove_inst(bb, iid);
    }
    true
}

fn unread_allocas(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let index = facts.users();
    let mut dead_stores: Vec<(BlockId, InstId)> = Vec::new();
    for bb in f.block_ids() {
        for &iid in &f.block(bb).insts {
            if !matches!(f.inst(iid).op, Opcode::Alloca { .. }) {
                continue;
            }
            // All users must be stores *to* this alloca (directly or via
            // constant geps we can root), with the alloca never loaded,
            // geped-into-and-loaded, or escaping. A user that reads the
            // pointer twice is listed twice, and judged the same way twice.
            let mut ok = true;
            let mut stores: Vec<(InstId, BlockId)> = Vec::new();
            let mut frontier = vec![iid];
            while let Some(at) = frontier.pop() {
                let p = Value::Inst(at);
                for &(user, ubb) in index.users(at) {
                    match &f.inst(user).op {
                        Opcode::Store { ptr, value } if *ptr == p && *value != p => {
                            stores.push((user, ubb));
                        }
                        Opcode::Gep { ptr, .. } if *ptr == p => {
                            frontier.push(user);
                        }
                        _ => {
                            ok = false;
                        }
                    }
                }
                if !ok {
                    break;
                }
            }
            if ok {
                dead_stores.extend(stores.into_iter().map(|(i, b)| (b, i)));
            }
        }
    }
    if dead_stores.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for (bb, iid) in dead_stores {
        if f.inst_exists(iid) {
            f.remove_inst(bb, iid);
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

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn overwritten_store_removed() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(1)); // dead
        b.store(p, Value::i32(2));
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(2));
        let f = m.func(m.main().unwrap());
        let stores = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Store { .. }))
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn intervening_load_blocks_removal() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(1));
        let v = b.load(Type::I32, p); // reads the first store
        b.store(p, Value::i32(2));
        let w = b.load(Type::I32, p);
        let s = b.binary(BinOp::Add, v, w);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        run(&mut m);
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(3));
    }

    #[test]
    fn store_only_alloca_stores_removed() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 8);
        b.counted_loop(Value::i32(8), |b, i| {
            let q = b.gep(p, i);
            b.store(q, i);
        });
        b.ret(Some(Value::i32(7)));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        let stores = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Store { .. }))
            .count();
        assert_eq!(stores, 0);
        assert_eq!(run_main(&m, 10_000).unwrap().return_value, Some(7));
    }

    #[test]
    fn loaded_alloca_stores_kept() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 4);
        let q = b.gep(p, Value::i32(1));
        b.store(q, Value::i32(5));
        let v = b.load(Type::I32, q);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(5));
    }

    #[test]
    fn distinct_allocas_do_not_block() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        let q = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(1)); // dead: overwritten below, q-load irrelevant
        let vq0 = b.load(Type::I32, q);
        b.store(p, Value::i32(2));
        let vp = b.load(Type::I32, p);
        let s = b.binary(BinOp::Add, vp, vq0);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(2));
    }

    #[test]
    fn call_blocks_removal() {
        let mut m = Module::new("t");
        let callee = {
            let mut b = FunctionBuilder::new("reader", vec![Type::Ptr], Type::I32);
            let v = b.load(Type::I32, b.arg(0));
            b.ret(Some(v));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(1));
        let r = b.call(callee, Type::I32, vec![p]);
        b.store(p, Value::i32(2));
        let v = b.load(Type::I32, p);
        let s = b.binary(BinOp::Add, r, v);
        b.ret(Some(s));
        m.add_function(b.finish());
        run(&mut m);
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().return_value, Some(3));
    }
}
