//! `-inline` and `-partial-inliner`: function integration.
//!
//! `-inline` splices small or single-call-site non-recursive callees into
//! their callers. `-partial-inliner` inlines only a callee's entry guard
//! (an entry block that conditionally returns early), leaving the heavy
//! path as a call — the shape LLVM's partial inliner targets.

use autophase_ir::{BlockId, FuncId, Function, Inst, InstId, Module, Opcode, Type, Value};
use std::collections::HashMap;

/// Instruction-count threshold under which `-inline` integrates a callee
/// unconditionally.
pub const INLINE_THRESHOLD: usize = 48;

/// Run `-inline`. Returns true if any call was integrated.
pub fn run(m: &mut Module) -> bool {
    let mut changed = false;
    // Repeat to let freshly exposed calls (from inlined bodies) inline too,
    // with a budget to avoid size explosion.
    for _ in 0..4 {
        let mut local = false;
        // Module-wide facts computed once per round (they only become
        // stale in the conservative direction while inlining: call-site
        // counts can grow, never shrink to 1).
        let recursive = recursive_set(m);
        let site_counts = call_site_counts(m);
        let fids: Vec<FuncId> = m.func_ids().collect();
        for fid in fids {
            if !m.func_exists(fid) {
                continue;
            }
            while let Some((bb, call)) = find_inlinable_site(m, fid, &recursive, &site_counts) {
                inline_call(m, fid, bb, call);
                local = true;
                if m.func(fid).num_insts() > 4000 {
                    break;
                }
            }
        }
        changed |= local;
        if !local {
            break;
        }
    }
    changed
}

/// Functions that (transitively directly) call themselves.
fn recursive_set(m: &Module) -> std::collections::HashSet<FuncId> {
    m.func_ids().filter(|&fid| is_recursive(m, fid)).collect()
}

/// Call-site count per callee, one module scan.
fn call_site_counts(m: &Module) -> std::collections::HashMap<FuncId, usize> {
    let mut counts = std::collections::HashMap::new();
    for fid in m.func_ids() {
        let f = m.func(fid);
        for bb in f.block_ids() {
            for (_, inst) in f.insts_in(bb) {
                if let Opcode::Call { callee, .. } = inst.op {
                    *counts.entry(callee).or_insert(0) += 1;
                }
            }
        }
    }
    counts
}

/// Run `-partial-inliner`. Returns true if any guard was peeled.
pub fn run_partial(m: &mut Module) -> bool {
    let fids: Vec<FuncId> = m.func_ids().collect();
    let mut changed = false;
    for fid in fids {
        if !m.func_exists(fid) {
            continue;
        }
        // Collect the sites up front: the rewrite introduces a new call on
        // the slow path which must not be peeled again.
        let f = m.func(fid);
        let mut sites: Vec<InstId> = Vec::new();
        for bb in f.block_ids() {
            for &iid in &f.block(bb).insts {
                if let Opcode::Call { callee, .. } = f.inst(iid).op {
                    // `outlined` marks callees whose guard was already
                    // peeled somewhere: the rewrite leaves a call to the
                    // same callee on the slow path, so without the marker
                    // every later run would peel that call again and the
                    // pass would never reach a fixed point.
                    if callee != fid
                        && m.func_exists(callee)
                        && !m.func(callee).attrs.outlined
                        && guard_shape(m.func(callee)).is_some()
                    {
                        sites.push(iid);
                    }
                }
            }
        }
        for call in sites {
            changed |= partial_inline_site(m, fid, call);
        }
    }
    changed
}

fn is_recursive(m: &Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    f.block_ids().any(|bb| {
        f.block(bb)
            .insts
            .iter()
            .any(|&i| matches!(f.inst(i).op, Opcode::Call { callee, .. } if callee == fid))
    })
}

fn find_inlinable_site(
    m: &Module,
    caller: FuncId,
    recursive: &std::collections::HashSet<FuncId>,
    site_counts: &std::collections::HashMap<FuncId, usize>,
) -> Option<(BlockId, InstId)> {
    let f = m.func(caller);
    for bb in f.block_ids() {
        for &iid in &f.block(bb).insts {
            let Opcode::Call { callee, .. } = f.inst(iid).op else {
                continue;
            };
            if callee == caller || !m.func_exists(callee) || recursive.contains(&callee) {
                continue;
            }
            let size = m.func(callee).num_insts();
            let worthwhile = size <= INLINE_THRESHOLD
                || m.func(callee).attrs.always_inline
                || site_counts.get(&callee).copied().unwrap_or(0) == 1;
            if worthwhile {
                return Some((bb, iid));
            }
        }
    }
    None
}

/// What [`splice`] made.
struct Splice {
    /// The block the instructions after the call moved to.
    cont: BlockId,
    /// The copy of each region block.
    blocks: HashMap<BlockId, BlockId>,
    /// Each copied block that ended in `ret` (now `br cont`) and the value
    /// it returned, in region order.
    rets: Vec<(BlockId, Option<Value>)>,
}

/// Replace the call `call` in `bb` by a copy of the blocks `region` of
/// `callee` (its entry among them), the call's arguments substituted for
/// the parameters: split `bb` after the call, copy the region, end `bb`
/// (the call dropped) in a jump to the copied entry, and turn each copied
/// `ret` into `br` to the split-off tail. A branch out of the region keeps
/// its target; uses of the call's result are the caller's to forward.
fn splice(
    f: &mut Function,
    bb: BlockId,
    call: InstId,
    callee: &Function,
    region: &[BlockId],
) -> Splice {
    let Opcode::Call { args, .. } = &f.inst(call).op else {
        unreachable!("splice at a non-call")
    };
    let mut vmap: HashMap<Value, Value> = args
        .iter()
        .enumerate()
        .map(|(i, &a)| (Value::Arg(i as u32), a))
        .collect();
    let pos = f
        .block(bb)
        .insts
        .iter()
        .position(|&i| i == call)
        .expect("call placed in bb");
    let cont = f.split_block(bb, pos + 1);
    let blocks = f.clone_region(callee, region, &mut vmap);
    f.end_with_branch(bb, pos, blocks[&callee.entry]);
    // In region order, not the map's: `rets` orders the entries of the
    // φ the caller builds from it.
    let mut rets = Vec::new();
    for old in region {
        let new = blocks[old];
        let Some(term) = f.terminator(new) else {
            continue;
        };
        if let Opcode::Ret { value } = f.inst(term).op {
            rets.push((new, value));
            f.set_branch(new, Opcode::Br { target: cont });
        }
    }
    Splice { cont, blocks, rets }
}

/// Splice `callee`'s body into `caller` at the call site.
pub(crate) fn inline_call(m: &mut Module, caller: FuncId, bb: BlockId, call: InstId) {
    let Opcode::Call { callee, .. } = m.func(caller).inst(call).op else {
        unreachable!("inline_call on non-call")
    };
    let callee_fn = m.func(callee).clone();
    let f = m.func_mut(caller);
    let region: Vec<BlockId> = callee_fn.block_ids().collect();
    let splice = splice(f, bb, call, &callee_fn, &region);

    // The call's result becomes a φ over return values (or the single one).
    let ret_ty = callee_fn.ret_ty;
    if !ret_ty.is_void() {
        let result: Value = match splice.rets.as_slice() {
            [] => Value::Undef(ret_ty),
            [(_, v)] => v.unwrap_or(Value::Undef(ret_ty)),
            many => {
                let incoming: Vec<(BlockId, Value)> = many
                    .iter()
                    .map(|(b, v)| (*b, v.unwrap_or(Value::Undef(ret_ty))))
                    .collect();
                let phi =
                    f.insert_inst(splice.cont, 0, Inst::new(ret_ty, Opcode::Phi { incoming }));
                Value::Inst(phi)
            }
        };
        f.replace_all_uses(Value::Inst(call), result);
    }
}

/// Peel a callee's entry guard into one call site:
/// `r = f(x)` where `f`'s entry is `[pure insts] condbr(c, early_ret, rest)`
/// and `early_ret` is `[pure insts] ret v` becomes an inline evaluation of
/// the guard with the call only on the slow path.
fn partial_inline_site(m: &mut Module, caller: FuncId, call: InstId) -> bool {
    let f = m.func(caller);
    if !f.inst_exists(call) {
        return false;
    }
    let Some(bb) = f.block_of(call) else {
        return false;
    };
    let Opcode::Call { callee, ref args } = f.inst(call).op else {
        return false;
    };
    let args = args.clone();
    let callee_fn = m.func(callee).clone();
    let Some((guard_blocks, rest)) = guard_shape(&callee_fn) else {
        return false;
    };
    let f = m.func_mut(caller);

    // Inline only the entry and the early-return block; the early return
    // now branches to `cont`.
    let splice = splice(f, bb, call, &callee_fn, &guard_blocks);
    let cont = splice.cont;

    // The copied entry's edge to `rest` becomes an edge to a new "slow"
    // block that performs the real call. `rest` is the callee's block
    // (its copy, when a parsed module branches back to the entry), so a
    // caller block with the same number makes both arms slow: still the
    // callee's result.
    let slow = f.add_block();
    let slow_call = f.append_inst(
        slow,
        Inst::new(callee_fn.ret_ty, Opcode::Call { callee, args }),
    );
    f.append_inst(slow, Inst::new(Type::Void, Opcode::Br { target: cont }));
    let rest = splice.blocks.get(&rest).copied().unwrap_or(rest);
    f.redirect_branch(splice.blocks[&callee_fn.entry], rest, slow);

    // Join the two results at cont.
    if !callee_fn.ret_ty.is_void() {
        let mut incoming = vec![(slow, Value::Inst(slow_call))];
        if let [(early, v)] = splice.rets[..] {
            incoming.push((early, v.unwrap_or(Value::Undef(callee_fn.ret_ty))));
        }
        let phi = f.insert_inst(
            cont,
            0,
            Inst::new(callee_fn.ret_ty, Opcode::Phi { incoming }),
        );
        f.replace_all_uses(Value::Inst(call), Value::Inst(phi));
    }
    m.func_mut(callee).attrs.outlined = true;
    true
}

/// Recognize the guard shape: entry = pure insts + `condbr` where one arm
/// is a block that only computes pure values and returns, the other arm is
/// the "rest". Returns the guard region (entry, early block) and the rest
/// block.
fn guard_shape(f: &Function) -> Option<(Vec<BlockId>, BlockId)> {
    let entry = f.entry;
    let term = f.terminator(entry)?;
    let Opcode::CondBr {
        then_bb, else_bb, ..
    } = f.inst(term).op
    else {
        return None;
    };
    // Entry must be pure (no loads even — args only) so cloning it cannot
    // change behaviour; same for the early block.
    let block_pure = |bb: BlockId| {
        f.block(bb).insts.iter().all(|&i| {
            let inst = f.inst(i);
            inst.is_terminator()
                || (!inst.reads_memory()
                    && !inst.writes_memory()
                    && !matches!(inst.op, Opcode::Alloca { .. } | Opcode::Phi { .. }))
        })
    };
    if !block_pure(entry) {
        return None;
    }
    let ret_only = |bb: BlockId| {
        matches!(
            f.terminator(bb).map(|t| &f.inst(t).op),
            Some(Opcode::Ret { .. })
        ) && block_pure(bb)
            && bb != entry
    };
    for (early, rest) in [(then_bb, else_bb), (else_bb, then_bb)] {
        if ret_only(early) && early != rest {
            // `rest` must not be φ-dependent on which pred it came from
            // (we do not clone it). If rest has φs, bail.
            let rest_has_phi = f.block(rest).insts.iter().any(|&i| f.inst(i).is_phi());
            // Early block must not be reachable from rest (single purpose).
            if !rest_has_phi {
                return Some((vec![entry, early], rest));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::{run_function, run_main};
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, CmpPred};

    fn square_module() -> Module {
        let mut m = Module::new("t");
        let sq = {
            let mut b = FunctionBuilder::new("square", vec![Type::I32], Type::I32);
            let r = b.binary(BinOp::Mul, b.arg(0), b.arg(0));
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let a = b.call(sq, Type::I32, vec![Value::i32(6)]);
        let c = b.call(sq, Type::I32, vec![Value::i32(2)]);
        let s = b.binary(BinOp::Add, a, c);
        b.ret(Some(s));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn small_callee_inlined_everywhere() {
        let mut m = square_module();
        let before = run_main(&m, 1000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().observable(), before);
        assert_eq!(before, Some(40));
        let main = m.func(m.main().unwrap());
        let calls = main
            .block_ids()
            .flat_map(|bb| main.block(bb).insts.clone())
            .filter(|&i| matches!(main.inst(i).op, Opcode::Call { .. }))
            .count();
        assert_eq!(calls, 0);
    }

    #[test]
    fn branchy_callee_inlined_with_phi() {
        let mut m = Module::new("t");
        let absf = {
            let mut b = FunctionBuilder::new("abs_fn", vec![Type::I32], Type::I32);
            let t = b.new_block();
            let e = b.new_block();
            let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
            b.cond_br(c, t, e);
            b.switch_to(t);
            let n = b.binary(BinOp::Sub, Value::i32(0), b.arg(0));
            b.ret(Some(n));
            b.switch_to(e);
            b.ret(Some(b.arg(0)));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let r = b.call(absf, Type::I32, vec![b.arg(0)]);
        let s = b.binary(BinOp::Add, r, Value::i32(1));
        b.ret(Some(s));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before: Vec<_> = [-7, 0, 7]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 1000).unwrap().return_value)
            .collect();
        assert!(run(&mut m));
        assert_verified(&m);
        let after: Vec<_> = [-7, 0, 7]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 1000).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn recursive_callee_not_inlined() {
        let mut m = Module::new("t");
        let fid = FuncId::from_index(0);
        let mut b = FunctionBuilder::new("rec", vec![Type::I32], Type::I32);
        let base = b.new_block();
        let r = b.new_block();
        let c = b.icmp(CmpPred::Sle, b.arg(0), Value::i32(0));
        b.cond_br(c, base, r);
        b.switch_to(base);
        b.ret(Some(Value::i32(0)));
        b.switch_to(r);
        let n1 = b.binary(BinOp::Sub, b.arg(0), Value::i32(1));
        let v = b.call(fid, Type::I32, vec![n1]);
        b.ret(Some(v));
        m.add_function(b.finish());
        let mut mb = FunctionBuilder::new("main", vec![], Type::I32);
        let r = mb.call(fid, Type::I32, vec![Value::i32(3)]);
        mb.ret(Some(r));
        m.add_function(mb.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn callee_with_memory_inlined_correctly() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("counter", Type::I32, 1));
        let bump = {
            let mut b = FunctionBuilder::new("bump", vec![], Type::I32);
            let v = b.load(Type::I32, Value::Global(g));
            let n = b.binary(BinOp::Add, v, Value::i32(1));
            b.store(Value::Global(g), n);
            b.ret(Some(n));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let a = b.call(bump, Type::I32, vec![]);
        let c = b.call(bump, Type::I32, vec![]);
        let s = b.binary(BinOp::Mul, a, c);
        b.ret(Some(s));
        m.add_function(b.finish());
        let before = run_main(&m, 1000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().observable(), before);
        assert_eq!(before, Some(2)); // 1 * 2
    }

    #[test]
    fn partial_inliner_peels_guard() {
        // f(x) = x <= 0 ? 0 : <heavy loop>
        let mut m = Module::new("t");
        let heavy = {
            let mut b = FunctionBuilder::new("heavy", vec![Type::I32], Type::I32);
            let early = b.new_block();
            let rest = b.new_block();
            let c = b.icmp(CmpPred::Sle, b.arg(0), Value::i32(0));
            b.cond_br(c, early, rest);
            b.switch_to(early);
            b.ret(Some(Value::i32(0)));
            b.switch_to(rest);
            let acc = b.alloca(Type::I32, 1);
            b.store(acc, Value::i32(0));
            b.counted_loop(b.arg(0), |b, i| {
                let cur = b.load(Type::I32, acc);
                let n = b.binary(BinOp::Add, cur, i);
                b.store(acc, n);
            });
            let r = b.load(Type::I32, acc);
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        // Make heavy big enough that -inline leaves it alone but the guard
        // is still peelable.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let r = b.call(heavy, Type::I32, vec![b.arg(0)]);
        b.ret(Some(r));
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before: Vec<_> = [-3, 0, 5]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert!(run_partial(&mut m));
        assert_verified(&m);
        let after: Vec<_> = [-3, 0, 5]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
        assert_eq!(after[2], Some(10));
        // The guard now executes inline: calling main(-3) performs no call.
        let t = run_function(&m, fid, &[-3], 100_000).unwrap();
        assert_eq!(t.calls(heavy), 0);
    }

    #[test]
    fn partial_inliner_noop_without_guard() {
        let mut m = square_module();
        assert!(!run_partial(&mut m));
    }

    #[test]
    fn partial_inliner_keeps_the_slow_path_when_rest_shares_a_copys_number() {
        // f(x) = x <= 0 ? 0 : x + 100, with the rest at block 3: the
        // number the copy of the early block gets in a one-block caller
        // (the split takes 1, the copied entry 2).
        let mut m = Module::new("t");
        let f = {
            let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
            let early = b.new_block();
            let unused = b.new_block();
            let rest = b.new_block();
            let c = b.icmp(CmpPred::Sle, b.arg(0), Value::i32(0));
            b.cond_br(c, early, rest);
            b.switch_to(early);
            b.ret(Some(Value::i32(0)));
            b.switch_to(unused);
            b.ret(Some(Value::i32(9)));
            b.switch_to(rest);
            let r = b.binary(BinOp::Add, b.arg(0), Value::i32(100));
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let r = b.call(f, Type::I32, vec![b.arg(0)]);
        b.ret(Some(r));
        m.add_function(b.finish());
        let main = m.main().unwrap();
        assert!(run_partial(&mut m));
        assert_verified(&m);
        for (x, want) in [(-3, 0), (5, 105)] {
            let got = run_function(&m, main, &[x], 100_000).unwrap().return_value;
            assert_eq!(got, Some(want), "main({x})");
        }
    }
}
