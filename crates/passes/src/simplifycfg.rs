//! `-simplifycfg`: CFG cleanup.
//!
//! * removes blocks unreachable from entry,
//! * folds conditional branches with constant or equal-target conditions,
//! * folds switches on constants,
//! * merges a block into its unique predecessor when it is that
//!   predecessor's unique successor,
//! * removes empty forwarding blocks (a lone `br`) when φ-nodes permit,
//! * replaces single-incoming φ-nodes with their value.

use crate::util;
use autophase_ir::cfg::Cfg;
use autophase_ir::{BlockId, FuncId, Function, Module, Opcode, Rewrites, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, run_on_function)
}

/// Run the simplifications on one function (shared with `-sccp`, which
/// folds branches through this after substituting constants).
pub fn run_on_function(m: &mut Module, fid: FuncId) -> bool {
    simplify(m, fid, true)
}

/// [`run_on_function`] with forwarding blocks removed one per round: the
/// driver the batched one reproduces, kept as its differential reference.
#[cfg(test)]
pub(crate) fn run_on_function_one_at_a_time(m: &mut Module, fid: FuncId) -> bool {
    simplify(m, fid, false)
}

fn simplify(m: &mut Module, fid: FuncId, batch: bool) -> bool {
    let mut changed = false;
    // Iterate until no local rule fires. Every rule first looks for work on
    // the shared function and takes the copy-on-write handle only to carry
    // it out. The rules that look at the graph share one CFG snapshot per
    // round, the version's own ([`Module::facts`]), taken again only after
    // a rule edited the graph — a round in which nothing fires builds at
    // most one, and none if the version was analysed before.
    loop {
        let mut local = fold_constant_branches(m, fid);
        let mut facts = m.facts(fid);
        if remove_unreachable_in(m, fid, facts.cfg()) {
            local = true;
            facts = m.facts(fid);
        }
        // φ simplification leaves the graph as it is: the snapshot stays
        // good (and is computed before it runs).
        let cfg = facts.cfg();
        local |= simplify_single_incoming_phis(m, fid);
        if merge_straightline(m, fid, cfg) {
            local = true;
            facts = m.facts(fid);
        }
        local |= remove_forwarding_blocks(m, fid, facts.cfg(), batch);
        if !local {
            break;
        }
        changed = true;
    }
    changed |= util::delete_dead(m, fid) > 0;
    changed
}

/// `br true, a, b` → `br a`; `br c, a, a` → `br a`; constant switches.
fn fold_constant_branches(m: &mut Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    let mut folds: Vec<(BlockId, BlockId)> = Vec::new();
    for bb in f.block_ids() {
        let Some(term) = f.terminator(bb) else {
            continue;
        };
        let target = match &f.inst(term).op {
            Opcode::CondBr {
                cond: Value::ConstInt(_, c),
                then_bb,
                else_bb,
            } => {
                if *c != 0 {
                    *then_bb
                } else {
                    *else_bb
                }
            }
            Opcode::CondBr {
                then_bb, else_bb, ..
            } if then_bb == else_bb => *then_bb,
            Opcode::Switch {
                value: Value::ConstInt(_, c),
                default,
                cases,
            } => cases
                .iter()
                .find(|(k, _)| k == c)
                .map(|(_, b)| *b)
                .unwrap_or(*default),
            _ => continue,
        };
        folds.push((bb, target));
    }
    if folds.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for (bb, target) in folds {
        f.set_branch(bb, Opcode::Br { target });
    }
    true
}

/// Delete blocks unreachable from the entry, fixing φ-nodes.
pub(crate) fn remove_unreachable(m: &mut Module, fid: FuncId) -> bool {
    let facts = m.facts(fid);
    remove_unreachable_in(m, fid, facts.cfg())
}

fn remove_unreachable_in(m: &mut Module, fid: FuncId, cfg: &Cfg) -> bool {
    let f = m.func(fid);
    let dead: Vec<BlockId> = f.block_ids().filter(|&bb| !cfg.is_reachable(bb)).collect();
    if dead.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    // Remove φ entries flowing from dead blocks into live ones.
    for &d in &dead {
        for &s in cfg.succs(d) {
            if cfg.is_reachable(s) {
                f.remove_phi_edge(s, d);
            }
        }
    }
    // Replace any remaining uses of results defined in dead blocks with
    // undef (they can only occur in other dead blocks or be verifier-dead).
    let mut rw = Rewrites::new();
    for &d in &dead {
        for (iid, inst) in f.insts_in(d) {
            if !inst.ty.is_void() {
                rw.forward(iid, Value::Undef(inst.ty));
            }
        }
    }
    for &d in &dead {
        f.remove_block(d);
    }
    f.apply_rewrites(&rw);
    true
}

/// `phi [(p, v)]` → `v` (single predecessor after CFG cleanup).
fn simplify_single_incoming_phis(m: &mut Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    let mut rw = Rewrites::new();
    for bb in f.block_ids() {
        for (p, inst) in f.insts_in(bb) {
            let Opcode::Phi { incoming } = &inst.op else {
                continue;
            };
            // Earlier replacements of this sweep are read through `rw`.
            let Some(&(_, first)) = incoming.first() else {
                continue;
            };
            let v = rw.resolve(first);
            let same = incoming.iter().all(|&(_, x)| rw.resolve(x) == v);
            if same && v != Value::Inst(p) {
                rw.replace(p, v);
            }
        }
    }
    if rw.is_empty() {
        return false;
    }
    m.func_mut(fid).apply_rewrites(&rw);
    true
}

/// The block `a` can absorb: its only successor, when `a` is that block's
/// only predecessor and no φ-nodes are left in it.
fn mergeable_successor(f: &Function, cfg: &Cfg, a: BlockId) -> Option<BlockId> {
    let mut succs = f.inst(f.terminator(a)?).successors();
    succs.dedup();
    let &[b] = succs.as_slice() else {
        return None;
    };
    // Single-pred φs are handled by simplify_single_incoming_phis on the
    // next outer iteration.
    let absorbable = b != a
        && b != f.entry
        && cfg.preds(b).len() == 1
        && !f.block(b).insts.iter().any(|&i| f.inst(i).is_phi());
    absorbable.then_some(b)
}

/// Merge `b` into `a` ([`Function::merge_block`]) when `a`'s only
/// successor is `b` and `b`'s only predecessor is `a` (and `b` has no
/// φ-nodes left).
///
/// A merge changes nobody else's eligibility — `b`'s out-edges become
/// `a`'s, so every other block keeps its successors and its in-edge count
/// (which is why the pre-merge `cfg` stays good for `preds(b).len()`) —
/// so one pass in block order, letting each block absorb its whole chain,
/// finds the same merges as rescanning from the top after every one.
fn merge_straightline(m: &mut Module, fid: FuncId, cfg: &Cfg) -> bool {
    let f = m.func(fid);
    let blocks: Vec<BlockId> = f.block_ids().collect();
    if !blocks
        .iter()
        .any(|&a| mergeable_successor(f, cfg, a).is_some())
    {
        return false;
    }
    let f = m.func_mut(fid);
    for a in blocks {
        if !f.block_exists(a) {
            continue; // absorbed by an earlier block
        }
        while let Some(b) = mergeable_successor(f, cfg, a) {
            f.merge_block(a, b);
        }
    }
    true
}

/// Remove blocks containing only `br target`, making predecessors jump
/// straight to the target, when the target's φ-nodes stay consistent.
///
/// Takes them in block order, as the one-at-a-time driver did (one
/// removal, then a whole round of every rule on a fresh CFG), and with its
/// decisions. A removal changes only the predecessor list of its target
/// `t` and the successors of the removed block's predecessors, so the
/// snapshot `cfg` stays exact for every block that reads neither; and no
/// earlier block becomes removable (a pred that made one unsafe is still
/// there). Two things would let another rule fire first in the next
/// round: a predecessor whose two arms now meet (`-simplifycfg`'s
/// constant-branch fold) and a target left with one incoming edge (a
/// merge). The scan stops after a removal that causes either, and before
/// a candidate that reads a changed predecessor list; the caller's next
/// round re-analyses. Without `batch` it stops after the first removal.
fn remove_forwarding_blocks(m: &mut Module, fid: FuncId, cfg: &Cfg, batch: bool) -> bool {
    /// `bb`'s target if it is a lone `br` somewhere else (not the entry).
    fn forwards_to(f: &Function, bb: BlockId) -> Option<BlockId> {
        if bb == f.entry {
            return None;
        }
        let &[only] = f.block(bb).insts.as_slice() else {
            return None;
        };
        match f.inst(only).op {
            Opcode::Br { target } if target != bb => Some(target),
            _ => None,
        }
    }
    let removable = |f: &Function, bb: BlockId, target: BlockId| {
        let preds = cfg.unique_preds(bb);
        if preds.is_empty() {
            return None;
        }
        // φ-safety: if the target has φ-nodes, every pred must not already
        // be a predecessor of target (no duplicate incoming with possibly
        // different values), and the value flowing through bb must work for
        // each pred (it does: the φ entry for bb applies to all). A
        // predecessor branching to bb on several edges is fine; φ entries
        // are per-block.
        if f.block(target).insts.iter().any(|&i| f.inst(i).is_phi())
            && preds.iter().any(|p| cfg.preds(target).contains(p))
        {
            return None;
        }
        Some(preds)
    };
    let f = m.func(fid);
    let Some((first, target, preds)) = f.block_ids().find_map(|bb| {
        let target = forwards_to(f, bb)?;
        Some((bb, target, removable(f, bb, target)?))
    }) else {
        return false;
    };
    let blocks: Vec<BlockId> = f.block_ids().skip_while(|&bb| bb != first).collect();
    let f = m.func_mut(fid);
    // Targets whose predecessor lists the snapshot no longer describes.
    let mut retargeted: Vec<BlockId> = Vec::new();
    let mut next = Some((first, target, preds));
    let mut rest = blocks.into_iter().skip(1);
    while let Some((bb, target, preds)) = next.take() {
        // Retarget each predecessor's terminator from bb to target.
        for &p in &preds {
            f.redirect_branch(p, bb, target);
        }
        // Update target φs: bb's entry becomes one per pred.
        f.move_phi_edges(target, &[bb], &preds, |_, _, v| v);
        f.remove_block(bb);
        retargeted.push(target);
        let arms_meet = preds.iter().any(|&p| {
            f.terminator(p).is_some_and(|t| {
                matches!(f.inst(t).op, Opcode::CondBr { then_bb, else_bb, .. } if then_bb == else_bb)
            })
        });
        let target_edges = cfg.preds(target).len() - 1 + cfg.preds(bb).len();
        if !batch || arms_meet || target_edges == 1 {
            break;
        }
        for d in rest.by_ref() {
            let Some(t) = forwards_to(f, d) else {
                continue;
            };
            if retargeted.contains(&d) || retargeted.contains(&t) {
                return true;
            }
            if let Some(preds) = removable(f, d, t) {
                next = Some((d, t, preds));
                break;
            }
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
    use autophase_ir::{BinOp, CmpPred, Type};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn folds_constant_branch_and_removes_dead_arm() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(Value::TRUE, t, e);
        b.switch_to(t);
        b.ret(Some(Value::i32(1)));
        b.switch_to(e);
        b.ret(Some(Value::i32(2)));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        assert_eq!(f.num_blocks(), 1); // entry merged with taken arm
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(1));
    }

    #[test]
    fn merges_straightline_blocks() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let mid = b.new_block();
        let end = b.new_block();
        let x = b.binary(BinOp::Add, Value::i32(1), Value::i32(2));
        b.br(mid);
        b.switch_to(mid);
        let y = b.binary(BinOp::Mul, x, Value::i32(3));
        b.br(end);
        b.switch_to(end);
        b.ret(Some(y));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_blocks(), 1);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(9));
    }

    #[test]
    fn equal_target_condbr_becomes_br() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        b.cond_br(c, t, t);
        b.switch_to(t);
        b.ret(Some(Value::i32(5)));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        // icmp is now dead and removed; blocks merged.
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 1);
    }

    #[test]
    fn constant_switch_folds() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let c1 = b.new_block();
        let c2 = b.new_block();
        let d = b.new_block();
        b.switch(Value::i32(7), d, vec![(1, c1), (7, c2)]);
        b.switch_to(c1);
        b.ret(Some(Value::i32(1)));
        b.switch_to(c2);
        b.ret(Some(Value::i32(2)));
        b.switch_to(d);
        b.ret(Some(Value::i32(3)));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_blocks(), 1);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(2));
    }

    #[test]
    fn forwarding_block_removed_with_phi_fixup() {
        // entry -> {fwd, e}; fwd -> join; e -> join; join phi picks 1 or 2.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let fwd = b.new_block();
        let e = b.new_block();
        let join = b.new_block();
        let c = b.icmp(CmpPred::Eq, b.arg(0), Value::i32(0));
        b.cond_br(c, fwd, e);
        b.switch_to(fwd);
        b.br(join);
        b.switch_to(e);
        b.br(join);
        b.switch_to(join);
        let p = b.phi(Type::I32, vec![(fwd, Value::i32(1)), (e, Value::i32(2))]);
        b.ret(Some(p));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        // The forwarding block is gone; the diamond collapses to
        // entry / else-arm / join (the φ still needs two predecessors).
        assert!(f.num_blocks() <= 3, "blocks: {}", f.num_blocks());
        let phi = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .find(|&i| f.inst(i).is_phi())
            .expect("join phi survives");
        if let Opcode::Phi { incoming } = &f.inst(phi).op {
            assert!(incoming.iter().any(|(p, _)| *p == f.entry));
        }
    }

    #[test]
    fn unreachable_loop_removed() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let dead1 = b.new_block();
        let dead2 = b.new_block();
        b.ret(Some(Value::i32(0)));
        b.switch_to(dead1);
        b.br(dead2);
        b.switch_to(dead2);
        b.br(dead1);
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_blocks(), 1);
    }

    #[test]
    fn preserves_semantics_on_loop() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(7), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100_000).unwrap().observable();
        run(&mut m);
        assert_verified(&m);
        let after = run_main(&m, 100_000).unwrap().observable();
        assert_eq!(before, after);
    }

    #[test]
    fn noop_on_clean_cfg() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(Some(Value::i32(1)));
        b.switch_to(e);
        b.ret(Some(Value::i32(2)));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }
}
