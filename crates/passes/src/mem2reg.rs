//! `-mem2reg`: promote memory to SSA registers.
//!
//! Single-element allocas whose address never escapes (used only by direct
//! loads and stores of the element type) are rewritten into SSA form with
//! φ-nodes placed on iterated dominance frontiers, then renamed along the
//! dominator tree — the classic Cytron et al. construction.

use crate::util::{self, UserIndex};
use autophase_ir::cfg::Cfg;
use autophase_ir::dom::DomTree;
use autophase_ir::{BlockId, FuncId, Function, Inst, InstId, Module, Opcode, Rewrites, Value};

/// Run the pass. Returns true if any alloca was promoted.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, promote_function)
}

/// Find promotable allocas in one function and promote them all.
fn promote_function(m: &mut Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    let has_alloca = f.block_ids().any(|bb| {
        f.insts_in(bb)
            .any(|(_, i)| matches!(i.op, Opcode::Alloca { .. }))
    });
    if !has_alloca {
        return false;
    }
    let facts = m.facts(fid);
    let index = facts.users();
    let candidates = promotable_with(f, index);
    if candidates.is_empty() {
        return false;
    }
    // The CFG is not touched, so one `Cfg`/`DomTree` serves all allocas.
    let (cfg, dt) = (facts.cfg(), facts.dom());
    promote_all(m.func_mut(fid), &candidates, index, cfg, dt);
    util::delete_dead(m, fid);
    true
}

/// Allocas that can be promoted: one element, and every use is a direct
/// `load`/`store` of a matching integer type with the alloca as the
/// *address* (never as the stored value, a `gep` base, a cast input, or a
/// call argument).
fn promotable_with(f: &Function, index: &UserIndex) -> Vec<InstId> {
    let mut out = Vec::new();
    for bb in f.block_ids() {
        for &iid in &f.block(bb).insts {
            let Opcode::Alloca { elem_ty, count } = f.inst(iid).op else {
                continue;
            };
            if count != 1 || !elem_ty.is_int() {
                continue;
            }
            let addr = Value::Inst(iid);
            let direct =
                |&(user, _): &(InstId, BlockId)| util::is_typed_access(f, user, addr, elem_ty);
            if !index.users(iid).iter().all(direct) {
                continue;
            }
            out.push(iid);
        }
    }
    out
}

/// Promote every alloca of `allocas` to SSA in one walk: φ-nodes on the
/// iterated dominance frontier of each alloca's stores, one renaming pass
/// over the dominator tree carrying the current value of all of them, and
/// one batched rewrite, over the `cfg` and `dt` of the function as it was
/// before.
fn promote_all(f: &mut Function, allocas: &[InstId], index: &UserIndex, cfg: &Cfg, dt: &DomTree) {
    let df = dt.dominance_frontiers(cfg);
    let blocks = f.block_capacity();
    let elem_ty = |f: &Function, alloca: InstId| match f.inst(alloca).op {
        Opcode::Alloca { elem_ty, .. } => elem_ty,
        _ => unreachable!("promoting a non-alloca"),
    };

    // Slot number of each promoted alloca, by instruction index.
    let mut slot_of: Vec<Option<usize>> = vec![None; f.inst_capacity()];
    for (slot, &alloca) in allocas.iter().enumerate() {
        slot_of[alloca.index()] = Some(slot);
    }
    let promoted = |v: Value| match v {
        Value::Inst(id) => slot_of.get(id.index()).copied().flatten(),
        _ => None,
    };

    // φ of each (slot, block), placed alloca by alloca and, within one, in
    // block order: φ InstIds must be assigned deterministically or
    // repeated runs of the pass print differently, which breaks
    // fingerprint-keyed caching.
    let mut phi_at: Vec<Vec<Option<InstId>>> = Vec::with_capacity(allocas.len());
    let mut has_phi = vec![false; blocks];
    for &alloca in allocas {
        // Blocks containing a store (definitions), then their iterated
        // dominance frontier.
        let mut work: Vec<BlockId> = Vec::new();
        for &(user, ubb) in index.users(alloca) {
            if matches!(f.inst(user).op, Opcode::Store { .. }) && !work.contains(&ubb) {
                work.push(ubb);
            }
        }
        has_phi.fill(false);
        while let Some(bb) = work.pop() {
            for &fr in &df[bb.index()] {
                if !has_phi[fr.index()] {
                    has_phi[fr.index()] = true;
                    work.push(fr);
                }
            }
        }
        let ty = elem_ty(f, alloca);
        let mut phis = vec![None; blocks];
        for bb in (0..blocks).map(BlockId::from_index) {
            if has_phi[bb.index()] && cfg.is_reachable(bb) {
                let phi = f.insert_inst(bb, 0, Inst::new(ty, Opcode::Phi { incoming: vec![] }));
                phis[bb.index()] = Some(phi);
            }
        }
        phi_at.push(phis);
    }

    // Rename along the dominator tree.
    let mut rw = Rewrites::new();
    let undef: Vec<Value> = allocas
        .iter()
        .map(|&a| Value::Undef(elem_ty(f, a)))
        .collect();
    let mut stack: Vec<(BlockId, Vec<Value>)> = vec![(f.entry, undef)];
    while let Some((bb, mut cur)) = stack.pop() {
        for (slot, phis) in phi_at.iter().enumerate() {
            if let Some(phi) = phis[bb.index()] {
                cur[slot] = Value::Inst(phi);
            }
        }
        for &iid in &f.block(bb).insts {
            match f.inst(iid).op {
                Opcode::Load { ptr } => {
                    if let Some(slot) = promoted(ptr) {
                        rw.replace(iid, cur[slot]);
                    }
                }
                Opcode::Store { ptr, value } => {
                    if let Some(slot) = promoted(ptr) {
                        cur[slot] = rw.resolve(value);
                        rw.remove(iid);
                    }
                }
                _ => {}
            }
        }
        // Feed successors' φ-nodes.
        for &succ in cfg.succs(bb) {
            for (slot, phis) in phi_at.iter().enumerate() {
                if let Some(phi) = phis[succ.index()] {
                    if let Opcode::Phi { incoming } = &mut f.inst_mut(phi).op {
                        if !incoming.iter().any(|(p, _)| *p == bb) {
                            incoming.push((bb, cur[slot]));
                        }
                    }
                }
            }
        }
        // Recurse into dominator-tree children with the current values.
        let children = dt.children(bb);
        if let Some((&last, rest)) = children.split_last() {
            for &child in rest {
                stack.push((child, cur.clone()));
            }
            stack.push((last, cur));
        }
    }

    for (slot, &alloca) in allocas.iter().enumerate() {
        // φs are only placed in reachable blocks, whose reachable
        // predecessors the walk above all visited; one that still ended up
        // with no incoming entry reads as undef.
        for phi in phi_at[slot].iter().flatten() {
            if matches!(&f.inst(*phi).op, Opcode::Phi { incoming } if incoming.is_empty()) {
                rw.replace(*phi, Value::Undef(elem_ty(f, alloca)));
            }
        }
        // The alloca is unused once its loads and stores are gone; those
        // in unreachable blocks were not visited and keep it alive.
        if index
            .users(alloca)
            .iter()
            .all(|&(_, ubb)| cfg.is_reachable(ubb))
        {
            rw.remove(alloca);
        }
    }
    f.apply_rewrites(&rw);
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::Type;
    use autophase_ir::{BinOp, CmpPred};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn straightline_promotion() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(10));
        let v = b.load(Type::I32, p);
        let w = b.binary(BinOp::Add, v, Value::i32(5));
        b.store(p, w);
        let r = b.load(Type::I32, p);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        // alloca, both stores, both loads gone: add + ret remain
        assert_eq!(f.num_insts(), 2);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(15));
    }

    #[test]
    fn diamond_gets_phi() {
        // x = 0; if (arg) x = 1; return x;
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let j = b.new_block();
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(0));
        let c = b.icmp(CmpPred::Ne, b.arg(0), Value::i32(0));
        b.cond_br(c, t, j);
        b.switch_to(t);
        b.store(p, Value::i32(1));
        b.br(j);
        b.switch_to(j);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        let f = m.func(m.main().unwrap());
        let has_phi = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .any(|i| f.inst(i).is_phi());
        assert!(has_phi, "expected a phi after promotion");
        assert!(!f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .any(|i| matches!(f.inst(i).op, Opcode::Alloca { .. })));
    }

    #[test]
    fn loop_accumulator_promoted_and_preserved() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(10), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        // No memory traffic remains.
        let f = m.func(m.main().unwrap());
        for bb in f.block_ids() {
            for (_, inst) in f.insts_in(bb) {
                assert!(!inst.reads_memory() && !inst.writes_memory());
            }
        }
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut m = Module::new("t");
        let callee = {
            let mut b = FunctionBuilder::new("sink_fn", vec![Type::Ptr], Type::Void);
            b.ret(None);
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(1));
        b.call(callee, Type::Void, vec![p]);
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn array_alloca_not_promoted() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 4);
        let q = b.gep(p, Value::i32(2));
        b.store(q, Value::i32(9));
        let v = b.load(Type::I32, q);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn mismatched_width_not_promoted() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(300));
        let v = b.load(Type::I8, p); // narrowing load
        let w = b.cast(autophase_ir::CastOp::SExt, Type::I32, v);
        b.ret(Some(w));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 100).unwrap().observable();
        run(&mut m);
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().observable(), before);
    }

    #[test]
    fn load_before_store_yields_undef_zero() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        let v = b.load(Type::I32, p); // uninitialized: reads 0
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(0));
    }

    #[test]
    fn two_allocas_both_promoted() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.alloca(Type::I32, 1);
        let q = b.alloca(Type::I32, 1);
        b.store(p, Value::i32(3));
        b.store(q, Value::i32(4));
        let x = b.load(Type::I32, p);
        let y = b.load(Type::I32, q);
        let s = b.binary(BinOp::Mul, x, y);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(12));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 2);
    }
}
