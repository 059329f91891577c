//! Lowering and canonicalization passes: `-lowerswitch`,
//! `-break-crit-edges`, `-codegenprepare`, and the faithful no-ops
//! (`-lowerinvoke`, `-loweratomic`, `-lower-expect`, `-strip`,
//! `-strip-nondebug`).
//!
//! The no-op passes exist in the registry because the paper's action space
//! includes them; on IR without invokes/atomics/debug-info the real LLVM
//! passes change nothing either, so the RL agent faces the same
//! useless-action landscape the paper describes.

use crate::util;
use autophase_ir::{BlockId, InstId, Module, Opcode};

/// `-lowerswitch`: rewrite every `switch` into a chain of `icmp eq` +
/// conditional branches ([`autophase_ir::Function::lower_switch`]).
/// Returns true on change.
pub fn run_lowerswitch(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let f = m.func(fid);
        let switches: Vec<BlockId> = f
            .block_ids()
            .filter(|&bb| {
                f.terminator(bb)
                    .is_some_and(|t| matches!(f.inst(t).op, Opcode::Switch { .. }))
            })
            .collect();
        if switches.is_empty() {
            return false;
        }
        let f = m.func_mut(fid);
        for bb in switches {
            f.lower_switch(bb);
        }
        true
    })
}

/// `-break-crit-edges`: split every critical edge by inserting a forwarding
/// block. Returns true on change.
pub fn run_break_crit_edges(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let edges = m.facts(fid).cfg().critical_edges();
        if edges.is_empty() {
            return false;
        }
        let f = m.func_mut(fid);
        for (src, dst) in edges {
            f.split_edge(src, dst);
        }
        true
    })
}

/// `-codegenprepare`: sink address computations (`gep`) next to their
/// single memory user so the backend can chain them into the same FSM
/// state. Returns true on change.
pub fn run_codegenprepare(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let facts = m.facts(fid);
        let f = m.func(fid);
        let index = facts.users();
        let mut moves: Vec<(InstId, BlockId, InstId, BlockId)> = Vec::new();
        for bb in f.block_ids() {
            for &iid in &f.block(bb).insts {
                if !matches!(f.inst(iid).op, Opcode::Gep { .. }) {
                    continue;
                }
                let [(user, ubb)] = index.users(iid) else {
                    continue;
                };
                if *ubb == bb {
                    continue;
                }
                let is_mem = matches!(f.inst(*user).op, Opcode::Load { .. } | Opcode::Store { .. });
                if is_mem && !f.inst(*user).is_phi() {
                    moves.push((iid, bb, *user, *ubb));
                }
            }
        }
        if moves.is_empty() {
            return false;
        }
        let f = m.func_mut(fid);
        for (gep, from, user, to) in moves {
            f.block_mut(from).insts.retain(|&i| i != gep);
            let pos = f
                .block(to)
                .insts
                .iter()
                .position(|&i| i == user)
                .expect("user in its block");
            f.block_mut(to).insts.insert(pos, gep);
        }
        true
    })
}

/// `-lowerinvoke`: no invoke instructions exist in this IR; like LLVM's
/// pass on invoke-free input, this never changes anything.
pub fn run_lowerinvoke(_m: &mut Module) -> bool {
    false
}

/// `-loweratomic`: no atomic instructions exist in this IR; faithful no-op.
pub fn run_loweratomic(_m: &mut Module) -> bool {
    false
}

/// `-lower-expect`: no `llvm.expect` intrinsics exist in this IR; faithful
/// no-op.
pub fn run_lower_expect(_m: &mut Module) -> bool {
    false
}

/// `-strip`: no symbol/debug metadata exists in this IR; faithful no-op.
pub fn run_strip(_m: &mut Module) -> bool {
    false
}

/// `-strip-nondebug`: faithful no-op (see [`run_strip`]).
pub fn run_strip_nondebug(_m: &mut Module) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::cfg::Cfg;
    use autophase_ir::interp::run_function;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{CmpPred, Type, Value};

    fn switch_module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let c1 = b.new_block();
        let c2 = b.new_block();
        let d = b.new_block();
        b.switch(b.arg(0), d, vec![(1, c1), (2, c2)]);
        b.switch_to(c1);
        b.ret(Some(Value::i32(10)));
        b.switch_to(c2);
        b.ret(Some(Value::i32(20)));
        b.switch_to(d);
        b.ret(Some(Value::i32(30)));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn lowerswitch_preserves_dispatch() {
        let mut m = switch_module();
        let fid = m.main().unwrap();
        let before: Vec<_> = (0..4)
            .map(|x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert!(run_lowerswitch(&mut m));
        assert_verified(&m);
        let after: Vec<_> = (0..4)
            .map(|x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
        // No switch remains.
        let f = m.func(fid);
        let any_switch = f.block_ids().any(|bb| {
            f.block(bb)
                .insts
                .iter()
                .any(|&i| matches!(f.inst(i).op, Opcode::Switch { .. }))
        });
        assert!(!any_switch);
    }

    #[test]
    fn lowerswitch_with_phi_targets() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let j = b.new_block();
        let c1 = b.new_block();
        let entry = b.entry_block();
        b.switch(b.arg(0), j, vec![(1, c1), (2, j)]);
        b.switch_to(c1);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I32, vec![(entry, Value::i32(0)), (c1, Value::i32(1))]);
        b.ret(Some(p));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before: Vec<_> = (0..4)
            .map(|x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert!(run_lowerswitch(&mut m));
        assert_verified(&m);
        let after: Vec<_> = (0..4)
            .map(|x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn break_crit_edges_splits() {
        // entry -> {a, join}, a -> join: entry→join is critical.
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let a = b.new_block();
        let join = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        let entry = b.entry_block();
        b.cond_br(c, a, join);
        b.switch_to(a);
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Type::I32, vec![(entry, Value::i32(1)), (a, Value::i32(2))]);
        b.ret(Some(p));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before: Vec<_> = (0..2)
            .map(|x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert!(run_break_crit_edges(&mut m));
        assert_verified(&m);
        let cfg = Cfg::new(m.func(fid));
        assert!(cfg.critical_edges().is_empty());
        let after: Vec<_> = (0..2)
            .map(|x| run_function(&m, fid, &[x], 100).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn codegenprepare_sinks_gep() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let use_bb = b.new_block();
        let skip_bb = b.new_block();
        let buf = b.alloca(Type::I32, 8);
        b.store(buf, Value::i32(5));
        let addr = b.gep(buf, Value::i32(0));
        let c = b.icmp(CmpPred::Sgt, b.arg(0), Value::i32(0));
        b.cond_br(c, use_bb, skip_bb);
        b.switch_to(use_bb);
        let v = b.load(Type::I32, addr);
        b.ret(Some(v));
        b.switch_to(skip_bb);
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        assert!(run_codegenprepare(&mut m));
        assert_verified(&m);
        let f = m.func(fid);
        let gep_bb = f
            .block_ids()
            .find(|&bb| {
                f.block(bb)
                    .insts
                    .iter()
                    .any(|&i| matches!(f.inst(i).op, Opcode::Gep { .. }))
            })
            .unwrap();
        assert_eq!(gep_bb, use_bb);
        assert_eq!(
            run_function(&m, fid, &[1], 100).unwrap().return_value,
            Some(5)
        );
    }

    #[test]
    fn noop_passes_are_noops() {
        let mut m = switch_module();
        assert!(!run_lowerinvoke(&mut m));
        assert!(!run_loweratomic(&mut m));
        assert!(!run_lower_expect(&mut m));
        assert!(!run_strip(&mut m));
        assert!(!run_strip_nondebug(&mut m));
    }
}
