//! `-loop-unswitch`: hoist loop-invariant conditions out of loops.
//!
//! A conditional branch inside a loop whose condition is loop-invariant is
//! moved outside by cloning the loop: the preheader tests the condition
//! once and enters either the true-specialized or the false-specialized
//! copy. Each copy's branch is folded to one arm, so per-iteration
//! branching disappears.

use crate::util;
use autophase_ir::cfg::Cfg;
use autophase_ir::loops::Loop;
use autophase_ir::{BlockId, FuncId, InstId, Module, Opcode, Value};
use std::collections::HashMap;

/// Upper bound on loop size (blocks) cloned by unswitching.
pub const UNSWITCH_BLOCK_LIMIT: usize = 12;

/// Run the pass. Returns true if any loop was unswitched.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        // One unswitch per function per run (each doubles a loop; applying
        // the pass again picks up remaining candidates) — mirrors LLVM's
        // cost-capped behaviour.
        unswitch_once(m, fid)
    })
}

fn unswitch_once(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    let f = m.func(fid);
    let (cfg, loops) = (facts.cfg(), facts.loops());
    let index = facts.users();
    for l in loops {
        if l.blocks.len() > UNSWITCH_BLOCK_LIMIT {
            continue;
        }
        let Some(preheader) = l.preheader(cfg) else {
            continue;
        };
        // Loop values must not be used outside the loop except through
        // dedicated-exit φs (so the clone can feed the same φs).
        if !exits_dedicated(f, cfg, index, l) {
            continue;
        }
        // Find an invariant condbr inside the loop (not the exit test).
        for &bb in &l.blocks {
            let Some(term) = f.terminator(bb) else {
                continue;
            };
            let Opcode::CondBr {
                cond,
                then_bb,
                else_bb,
            } = f.inst(term).op
            else {
                continue;
            };
            // Both targets in-loop (exit tests stay put).
            if !l.contains(then_bb) || !l.contains(else_bb) || then_bb == else_bb {
                continue;
            }
            if !is_invariant(f, l, cond) {
                continue;
            }
            do_unswitch(m.func_mut(fid), l, preheader, bb, term, cond);
            crate::simplifycfg::run_on_function(m, fid);
            return true;
        }
    }
    false
}

fn exits_dedicated(
    f: &autophase_ir::Function,
    cfg: &Cfg,
    index: &crate::util::UserIndex,
    l: &Loop,
) -> bool {
    // every exit's preds are all in-loop, and every outside use of a loop
    // value is a φ in an exit block
    if !l.exits.iter().all(|&e| l.is_dedicated_exit(cfg, e)) {
        return false;
    }
    for &bb in &l.blocks {
        for &iid in &f.block(bb).insts {
            if f.inst(iid).ty.is_void() {
                continue;
            }
            for &(user, ubb) in index.users(iid) {
                if !l.contains(ubb) {
                    let is_exit_phi = l.exits.contains(&ubb) && f.inst(user).is_phi();
                    if !is_exit_phi {
                        return false;
                    }
                }
            }
        }
    }
    true
}

fn is_invariant(f: &autophase_ir::Function, l: &Loop, v: Value) -> bool {
    match v {
        Value::Inst(id) => match f.block_of(id) {
            Some(bb) => !l.contains(bb),
            None => false,
        },
        _ => true,
    }
}

fn do_unswitch(
    f: &mut autophase_ir::Function,
    l: &Loop,
    preheader: BlockId,
    branch_bb: BlockId,
    branch_term: InstId,
    cond: Value,
) {
    // Clone the loop: the clone is the "false" version.
    let mut vmap: HashMap<Value, Value> = HashMap::new();
    let region: Vec<BlockId> = l.blocks.clone();
    let snapshot = f.clone();
    let bmap = f.clone_region(&snapshot, &region, &mut vmap);

    // Original copy: branch folds to the true arm. Clone: false arm. Each
    // fold drops one edge, and the φs at its target forget it.
    let (then_bb, else_bb) = match f.inst(branch_term).op {
        Opcode::CondBr {
            then_bb, else_bb, ..
        } => (then_bb, else_bb),
        _ => unreachable!("checked condbr"),
    };
    f.set_branch(branch_bb, Opcode::Br { target: then_bb });
    f.set_branch(
        bmap[&branch_bb],
        Opcode::Br {
            target: bmap[&else_bb],
        },
    );

    // Preheader: test once, pick a copy. The preheader previously ended in
    // `br header`.
    f.set_branch(
        preheader,
        Opcode::CondBr {
            cond,
            then_bb: l.header,
            else_bb: bmap[&l.header],
        },
    );

    // Cloned header φs: their preheader entry must now come from the
    // preheader (clone_region kept the out-of-region pred id, which is
    // already the preheader) — nothing to do. Exit φs gain entries from the
    // cloned exiting blocks with the cloned values.
    for &e in &l.exits {
        f.carry_phi_edges(
            e,
            |p| bmap.get(&p).copied(),
            |v| *vmap.get(&v).unwrap_or(&v),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::Type;
    use autophase_ir::{BinOp, CmpPred};

    fn unswitchable() -> Module {
        // for i in 0..n { if (flag) acc += i else acc -= i }
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        let flag = b.icmp(CmpPred::Ne, b.arg(1), Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let t = b.new_block();
            let e = b.new_block();
            let j = b.new_block();
            b.cond_br(flag, t, e);
            b.switch_to(t);
            let c1 = b.load(Type::I32, acc);
            let n1 = b.binary(BinOp::Add, c1, i);
            b.store(acc, n1);
            b.br(j);
            b.switch_to(e);
            let c2 = b.load(Type::I32, acc);
            let n2 = b.binary(BinOp::Sub, c2, i);
            b.store(acc, n2);
            b.br(j);
            b.switch_to(j);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        m
    }

    #[test]
    fn invariant_branch_hoisted() {
        let mut m = unswitchable();
        let fid = m.main().unwrap();
        let cases: [(i64, i64); 4] = [(5, 0), (5, 1), (0, 1), (3, 0)];
        let before: Vec<_> = cases
            .iter()
            .map(|&(n, fl)| {
                run_function(&m, fid, &[n, fl], 100_000)
                    .unwrap()
                    .return_value
            })
            .collect();
        assert!(run(&mut m));
        assert_verified(&m);
        let after: Vec<_> = cases
            .iter()
            .map(|&(n, fl)| {
                run_function(&m, fid, &[n, fl], 100_000)
                    .unwrap()
                    .return_value
            })
            .collect();
        assert_eq!(before, after);
        // Per-iteration branching on the flag is gone: with flag=1 the
        // executed loop contains no Sub, with flag=0 no Add path runs.
        let t = run_function(&m, fid, &[4, 1], 100_000).unwrap();
        let f = m.func(fid);
        let mut sub_executed = false;
        for bb in f.block_ids() {
            if t.count(fid, bb) > 0 {
                for &i in &f.block(bb).insts {
                    if matches!(f.inst(i).op, Opcode::Binary(BinOp::Sub, ..)) {
                        sub_executed = true;
                    }
                }
            }
        }
        assert!(!sub_executed, "flag=1 run must never touch the Sub arm");
    }

    #[test]
    fn variant_branch_untouched() {
        // Branch on i (variant): must not unswitch.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let t = b.new_block();
            let j = b.new_block();
            let odd = b.binary(BinOp::And, i, Value::i32(1));
            let c = b.icmp(CmpPred::Ne, odd, Value::i32(0));
            b.cond_br(c, t, j);
            b.switch_to(t);
            let c1 = b.load(Type::I32, acc);
            let n1 = b.binary(BinOp::Add, c1, i);
            b.store(acc, n1);
            b.br(j);
            b.switch_to(j);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn big_loop_not_cloned() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        let flag = b.icmp(CmpPred::Ne, b.arg(1), Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            // Inflate the loop body with > UNSWITCH_BLOCK_LIMIT blocks.
            for _ in 0..14 {
                let nb = b.new_block();
                b.br(nb);
                b.switch_to(nb);
            }
            let t = b.new_block();
            let j = b.new_block();
            b.cond_br(flag, t, j);
            b.switch_to(t);
            let c1 = b.load(Type::I32, acc);
            let n1 = b.binary(BinOp::Add, c1, i);
            b.store(acc, n1);
            b.br(j);
            b.switch_to(j);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    /// Folding the unswitched branch removes one edge from each copy; the
    /// φs at the removed edge's target must forget it, or the verifier
    /// finds an incoming block that is no longer a predecessor.
    #[test]
    fn folding_drops_the_phi_entries_of_the_removed_edge() {
        let cases: [(&str, &[usize]); 3] = [
            ("matmul", &[23, 30, 11, 29]),
            ("blowfish", &[23, 30, 11, 29]),
            ("blowfish", &[38, 23, 29, 7]),
        ];
        for (name, prefix) in cases {
            let mut m = autophase_benchmarks::suite()
                .into_iter()
                .find(|b| b.name == name)
                .expect("CHStone program")
                .module;
            for &p in prefix {
                crate::registry::apply(&mut m, p);
            }
            autophase_ir::verify::verify_module(&m).expect("the prefix verifies");
            assert!(run(&mut m), "{name} after {prefix:?}: nothing unswitched");
            if let Err(e) = autophase_ir::verify::verify_module(&m) {
                panic!("{name} after {prefix:?} then -loop-unswitch: {e}");
            }
        }
    }
}
