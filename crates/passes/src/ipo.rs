//! Interprocedural passes: `-functionattrs`, `-deadargelim`, `-ipsccp`,
//! `-prune-eh`.

use crate::sccp;
use crate::util;
use autophase_ir::{FuncId, InstId, Module, Opcode, Value};
use std::collections::HashMap;

/// `-functionattrs`: infer `readonly` / `readnone` bottom-up over the call
/// graph. A function is `readnone` if it performs no loads, stores, or
/// allocas and only calls `readnone` functions; `readonly` additionally
/// permits loads. Returns true if any attribute changed.
pub fn run_functionattrs(m: &mut Module) -> bool {
    let mut changed = false;
    // Fixpoint (call graphs are tiny).
    loop {
        let mut local = false;
        for fid in m.func_ids().collect::<Vec<_>>() {
            let f = m.func(fid);
            let mut writes = false;
            let mut reads = false;
            // Memory ops on provably-local allocations (pointer roots to an
            // alloca whose address never escapes through a call or store)
            // are invisible to callers — LLVM's functionattrs reasons the
            // same way about non-escaping local memory.
            let escaping = local_allocas_escape(f);
            for bb in f.block_ids() {
                for (_, inst) in f.insts_in(bb) {
                    match &inst.op {
                        Opcode::Store { ptr, .. } if (escaping || !is_local_root(f, *ptr)) => {
                            writes = true;
                        }
                        Opcode::Load { ptr } if (escaping || !is_local_root(f, *ptr)) => {
                            reads = true;
                        }
                        Opcode::Call { callee, .. } => {
                            if *callee == fid {
                                continue; // self-calls inherit our own effect
                            }
                            if !m.func_exists(*callee) {
                                writes = true;
                                reads = true;
                            } else {
                                let a = m.func(*callee).attrs;
                                if !a.readnone {
                                    reads = true;
                                }
                                if !a.readonly && !a.readnone {
                                    writes = true;
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            let readnone = !reads && !writes;
            let readonly = !writes;
            let attrs = m.func(fid).attrs;
            if attrs.readnone != readnone || attrs.readonly != readonly {
                let a = &mut m.func_mut(fid).attrs;
                a.readnone = readnone;
                a.readonly = readonly;
                local = true;
            }
        }
        changed |= local;
        if !local {
            return changed;
        }
    }
}

/// True if the value's pointer root is a local alloca of `f`.
fn is_local_root(f: &autophase_ir::Function, ptr: Value) -> bool {
    matches!(
        crate::util::pointer_root(f, ptr),
        Some(Value::Inst(id)) if matches!(f.inst(id).op, Opcode::Alloca { .. })
    )
}

/// Conservative escape check: any alloca-rooted pointer passed to a call
/// or stored *as data* may be observed elsewhere; treat all local memory
/// as caller-visible in that case.
fn local_allocas_escape(f: &autophase_ir::Function) -> bool {
    for bb in f.block_ids() {
        for (_, inst) in f.insts_in(bb) {
            match &inst.op {
                Opcode::Store { value, .. } if is_local_root(f, *value) => {
                    return true;
                }
                Opcode::Call { args, .. } if args.iter().any(|&a| is_local_root(f, a)) => {
                    return true;
                }
                _ => {}
            }
        }
    }
    false
}

/// `-deadargelim`: remove parameters of internal functions that no body
/// instruction reads, dropping the matching argument at every call site.
/// Returns true if any parameter was removed.
pub fn run_deadargelim(m: &mut Module) -> bool {
    let mut changed = false;
    for fid in m.func_ids().collect::<Vec<_>>() {
        let f = m.func(fid);
        if f.name == "main" || f.params.is_empty() {
            continue;
        }
        let n = f.params.len();
        let mut used = vec![false; n];
        for bb in f.block_ids() {
            for (_, inst) in f.insts_in(bb) {
                inst.for_each_operand(|v| {
                    if let Value::Arg(i) = v {
                        if (i as usize) < n {
                            used[i as usize] = true;
                        }
                    }
                });
            }
        }
        if used.iter().all(|&u| u) {
            continue;
        }
        // Remap old arg index → new arg index.
        let mut remap: Vec<Option<u32>> = Vec::with_capacity(n);
        let mut next = 0u32;
        for &u in &used {
            remap.push(if u {
                let i = next;
                next += 1;
                Some(i)
            } else {
                None
            });
        }
        // Rewrite the function signature and its own arg uses.
        let f = m.func_mut(fid);
        f.params = f
            .params
            .iter()
            .zip(&used)
            .filter(|(_, &u)| u)
            .map(|(t, _)| *t)
            .collect();
        for bb in f.block_ids().collect::<Vec<_>>() {
            let ids: Vec<InstId> = f.block(bb).insts.clone();
            for iid in ids {
                f.inst_mut(iid).for_each_operand_mut(|v| {
                    if let Value::Arg(i) = *v {
                        if let Some(Some(ni)) = remap.get(i as usize) {
                            *v = Value::Arg(*ni);
                        }
                    }
                });
            }
        }
        // Rewrite every call site in the module, writing only the
        // functions that have one.
        for caller in m.func_ids().collect::<Vec<_>>() {
            let cf = m.func(caller);
            let calls: Vec<InstId> = cf
                .block_ids()
                .flat_map(|bb| cf.block(bb).insts.iter().copied())
                .filter(
                    |&iid| matches!(cf.inst(iid).op, Opcode::Call { callee, .. } if callee == fid),
                )
                .collect();
            if calls.is_empty() {
                continue;
            }
            let cf = m.func_mut(caller);
            for iid in calls {
                if let Opcode::Call { args, .. } = &mut cf.inst_mut(iid).op {
                    let mut new_args = Vec::new();
                    for (a, &u) in args.iter().zip(&used) {
                        if u {
                            new_args.push(*a);
                        }
                    }
                    *args = new_args;
                }
            }
        }
        changed = true;
    }
    changed
}

/// `-ipsccp`: interprocedural SCCP. For each non-`main` function whose call
/// sites all pass the same constant for a parameter, solve SCCP with that
/// parameter pinned; then run plain SCCP everywhere. Returns true on change.
pub fn run_ipsccp(m: &mut Module) -> bool {
    let mut changed = false;
    // Gather constant arguments per function.
    let mut const_args: HashMap<FuncId, HashMap<u32, i64>> = HashMap::new();
    let mut seen_any: HashMap<FuncId, Vec<Option<Option<i64>>>> = HashMap::new();
    for caller in m.func_ids() {
        let f = m.func(caller);
        for bb in f.block_ids() {
            for (_, inst) in f.insts_in(bb) {
                if let Opcode::Call { callee, args } = &inst.op {
                    let entry = seen_any
                        .entry(*callee)
                        .or_insert_with(|| vec![None; args.len()]);
                    for (i, a) in args.iter().enumerate() {
                        let c = a.as_const_int();
                        if i >= entry.len() {
                            entry.resize(i + 1, None);
                        }
                        entry[i] = match (entry[i], c) {
                            (None, c) => Some(c),
                            (Some(Some(prev)), Some(cur)) if prev == cur => Some(Some(prev)),
                            _ => Some(None),
                        };
                    }
                }
            }
        }
    }
    for (fid, slots) in seen_any {
        if !m.func_exists(fid) || m.func(fid).name == "main" {
            continue;
        }
        let mut pinned = HashMap::new();
        for (i, s) in slots.iter().enumerate() {
            if let Some(Some(c)) = s {
                pinned.insert(i as u32, *c);
            }
        }
        if !pinned.is_empty() {
            const_args.insert(fid, pinned);
        }
    }
    for fid in m.func_ids().collect::<Vec<_>>() {
        let pins = const_args.remove(&fid).unwrap_or_default();
        // A pinned parameter is the same constant at every call site:
        // substitute it into the body outright, then let SCCP cascade.
        // Only an integer parameter the body reads is substituted.
        let f = m.func(fid);
        let subs: Vec<(Value, Value)> = pins
            .iter()
            .filter_map(|(&i, &c)| {
                let ty = f
                    .params
                    .get(i as usize)
                    .copied()
                    .unwrap_or(autophase_ir::Type::I64);
                let arg = Value::Arg(i);
                (ty.is_int() && f.count_uses(arg) > 0)
                    .then(|| (arg, Value::ConstInt(ty, ty.wrap(c))))
            })
            .collect();
        if !subs.is_empty() {
            let f = m.func_mut(fid);
            for (arg, c) in subs {
                f.replace_all_uses(arg, c);
            }
            changed = true;
        }
        let sol = sccp::solve(m, fid, &pins);
        changed |= sccp::apply_solution(m, fid, &sol);
    }
    changed
}

/// `-prune-eh`: with no exceptions in this IR, the profitable fragment is
/// pruning branches into `unreachable`-terminated blocks (LLVM's pass also
/// cleans these up while removing dead invoke paths). A conditional branch
/// with one arm provably unreachable becomes an unconditional branch.
/// Returns true on change.
pub fn run_prune_eh(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let f = m.func(fid);
        let mut edits: Vec<(autophase_ir::BlockId, autophase_ir::BlockId)> = Vec::new();
        for bb in f.block_ids() {
            let Some(term) = f.terminator(bb) else {
                continue;
            };
            let Opcode::CondBr {
                then_bb, else_bb, ..
            } = f.inst(term).op
            else {
                continue;
            };
            let is_trap = |b: autophase_ir::BlockId| {
                f.block(b).insts.len() == 1
                    && matches!(
                        f.terminator(b).map(|t| &f.inst(t).op),
                        Some(Opcode::Unreachable)
                    )
            };
            if is_trap(then_bb) && !is_trap(else_bb) {
                edits.push((bb, else_bb));
            } else if is_trap(else_bb) && !is_trap(then_bb) {
                edits.push((bb, then_bb));
            }
        }
        if edits.is_empty() {
            return false;
        }
        let f = m.func_mut(fid);
        for (bb, target) in edits {
            f.set_branch(bb, Opcode::Br { target });
        }
        crate::simplifycfg::run_on_function(m, fid);
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, CmpPred, Type};

    #[test]
    fn functionattrs_infers_readnone_chain() {
        let mut m = Module::new("t");
        let leaf = {
            let mut b = FunctionBuilder::new("leaf", vec![Type::I32], Type::I32);
            let r = b.binary(BinOp::Mul, b.arg(0), Value::i32(2));
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        let mid = {
            let mut b = FunctionBuilder::new("mid", vec![Type::I32], Type::I32);
            let r = b.call(leaf, Type::I32, vec![b.arg(0)]);
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        assert!(run_functionattrs(&mut m));
        assert!(m.func(leaf).attrs.readnone);
        assert!(m.func(mid).attrs.readnone);
    }

    #[test]
    fn functionattrs_readonly_for_loader() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("g", Type::I32, 1));
        let reader = {
            let mut b = FunctionBuilder::new("reader", vec![], Type::I32);
            let v = b.load(Type::I32, Value::Global(g));
            b.ret(Some(v));
            m.add_function(b.finish())
        };
        let writer = {
            let mut b = FunctionBuilder::new("writer", vec![], Type::Void);
            b.store(Value::Global(g), Value::i32(1));
            b.ret(None);
            m.add_function(b.finish())
        };
        run_functionattrs(&mut m);
        assert!(m.func(reader).attrs.readonly);
        assert!(!m.func(reader).attrs.readnone);
        assert!(!m.func(writer).attrs.readonly);
    }

    #[test]
    fn deadargelim_drops_unused_params() {
        let mut m = Module::new("t");
        let callee = {
            let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32, Type::I32], Type::I32);
            // only arg1 is used
            let r = b.binary(BinOp::Add, b.arg(1), Value::i32(1));
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let r = b.call(
            callee,
            Type::I32,
            vec![Value::i32(10), Value::i32(20), Value::i32(30)],
        );
        b.ret(Some(r));
        m.add_function(b.finish());
        let before = run_main(&m, 1000).unwrap().observable();
        assert!(run_deadargelim(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().observable(), before);
        assert_eq!(m.func(callee).params.len(), 1);
        assert_eq!(before, Some(21));
    }

    #[test]
    fn ipsccp_propagates_uniform_constant_args() {
        let mut m = Module::new("t");
        let callee = {
            let mut b = FunctionBuilder::new("scale", vec![Type::I32, Type::I32], Type::I32);
            let r = b.binary(BinOp::Mul, b.arg(0), b.arg(1));
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        // arg1 is always 4 at every call site
        let x = b.call(callee, Type::I32, vec![b.arg(0), Value::i32(4)]);
        let y = b.call(callee, Type::I32, vec![Value::i32(3), Value::i32(4)]);
        let s = b.binary(BinOp::Add, x, y);
        b.ret(Some(s));
        m.add_function(b.finish());
        assert!(run_ipsccp(&mut m));
        assert_verified(&m);
        // Inside scale, arg(1) uses were replaced by 4 → mul by const.
        let f = m.func(callee);
        let uses_arg1 = f.block_ids().any(|bb| {
            f.block(bb).insts.iter().any(|&i| {
                let mut used = false;
                f.inst(i).for_each_operand(|v| used |= v == Value::Arg(1));
                used
            })
        });
        assert!(!uses_arg1);
    }

    #[test]
    fn prune_eh_removes_trap_arm() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let trap = b.new_block();
        let ok = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, trap, ok);
        b.switch_to(trap);
        b.unreachable();
        b.switch_to(ok);
        b.ret(Some(Value::i32(1)));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        assert!(run_prune_eh(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(m.main().unwrap()).num_blocks(), 1);
    }
}
