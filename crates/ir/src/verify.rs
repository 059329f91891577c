//! Structural and SSA well-formedness checks.
//!
//! The verifier is the primary invariant in the pass property tests: every
//! optimization pass must leave a verifiable module behind.

use crate::facts::Facts;
use crate::function::{BlockId, Function};
use crate::inst::Inst;
use crate::inst::Opcode;
use crate::module::{FuncId, Module};
use crate::value::Value;
use std::fmt;

/// A verification failure with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The function the problem is in (module-level problems use index 0's
    /// id with an explanatory message).
    pub func: String,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module.
///
/// # Errors
///
/// Returns the first violation found: dangling function/global references,
/// call-arity mismatches, or any per-function violation from
/// `verify_function`.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    verify_functions(m, m.func_ids())
}

/// Verify a subset of a module's functions (function-local checks plus their
/// outgoing call and global references).
///
/// This is the incremental-evaluation entry point: after a pass that touched
/// only some functions, checking just those functions is sound *provided no
/// function or global was removed and no signature changed* — a clean caller
/// of a re-signatured or deleted callee would otherwise be missed. Callers
/// (see `passes::checked`) must fall back to [`verify_module`] on any
/// structural or signature change.
///
/// # Errors
///
/// Returns the first violation found in the given functions.
pub fn verify_functions(
    m: &Module,
    ids: impl IntoIterator<Item = FuncId>,
) -> Result<(), VerifyError> {
    for fid in ids {
        if !m.func_exists(fid) {
            continue;
        }
        let f = m.func(fid);
        verify_function(m, f, &m.facts(fid)).map_err(|msg| VerifyError {
            func: f.name.clone(),
            message: msg,
        })?;
    }
    Ok(())
}

/// What is wrong with `inst` if it is a call to a removed function, or
/// with the wrong arity or result type.
fn call_error(m: &Module, inst: &Inst) -> Option<String> {
    if let Opcode::Call { callee, args } = &inst.op {
        if !m.func_exists(*callee) {
            return Some(format!("call to removed function f{}", callee.index()));
        }
        let target = m.func(*callee);
        if args.len() != target.params.len() {
            return Some(format!(
                "call to @{} passes {} args, expected {}",
                target.name,
                args.len(),
                target.params.len()
            ));
        }
        if inst.ty != target.ret_ty {
            return Some(format!(
                "call to @{} has result type {}, callee returns {}",
                target.name, inst.ty, target.ret_ty
            ));
        }
    }
    None
}

/// Verify a single function of `m` against its version's `facts`: first
/// the function-local checks, then its outgoing call and global
/// references (found in the same walk, reported only if the function
/// itself is sound). Returns a description of the first violation.
///
/// Checks: every block ends in exactly one terminator (and has no terminator
/// mid-block); φ-nodes precede non-φ instructions and their incoming lists
/// match the block's unique predecessors; branch targets exist; operand
/// references point at live instructions; argument indices are in range;
/// in reachable code every instruction use is dominated by its definition;
/// the entry block has no φ-nodes; no instruction appears in two blocks.
///
/// # Errors
///
/// Returns a human-readable message describing the first violation.
fn verify_function(m: &Module, f: &Function, facts: &Facts) -> Result<(), String> {
    // Block-local structure.
    let mut placement: Vec<Option<BlockId>> = vec![None; f.inst_capacity()];
    let mut order_in_block: Vec<u32> = vec![0; f.inst_capacity()];
    let mut cross_error: Option<String> = None;
    for bb in f.block_ids() {
        let insts = &f.block(bb).insts;
        if insts.is_empty() {
            return Err(format!("block b{} is empty", bb.index()));
        }
        let mut seen_non_phi = false;
        for (i, &iid) in insts.iter().enumerate() {
            if !f.inst_exists(iid) {
                return Err(format!(
                    "block b{} lists removed instruction %{}",
                    bb.index(),
                    iid.index()
                ));
            }
            if let Some(other) = placement[iid.index()] {
                return Err(format!(
                    "instruction %{} appears in both b{} and b{}",
                    iid.index(),
                    other.index(),
                    bb.index()
                ));
            }
            placement[iid.index()] = Some(bb);
            order_in_block[iid.index()] = i as u32;
            let inst = f.inst(iid);
            let is_last = i == insts.len() - 1;
            if inst.is_terminator() && !is_last {
                return Err(format!(
                    "terminator %{} is not last in b{}",
                    iid.index(),
                    bb.index()
                ));
            }
            if is_last && !inst.is_terminator() {
                return Err(format!(
                    "block b{} does not end in a terminator",
                    bb.index()
                ));
            }
            if inst.is_phi() {
                if seen_non_phi {
                    return Err(format!(
                        "phi %{} after non-phi instruction in b{}",
                        iid.index(),
                        bb.index()
                    ));
                }
                if bb == f.entry {
                    return Err("phi in entry block".to_string());
                }
            } else {
                seen_non_phi = true;
            }
            // Branch targets must exist.
            let mut err: Option<String> = None;
            inst.for_each_successor(|succ| {
                if err.is_none() && !f.block_exists(succ) {
                    err = Some(format!(
                        "b{} branches to removed block b{}",
                        bb.index(),
                        succ.index()
                    ));
                }
            });
            if let Some(e) = err {
                return Err(e);
            }
            // Operand references must be live; the globals they name are
            // the cross-function check's.
            let mut err: Option<String> = None;
            let mut bad_global = None;
            inst.for_each_operand(|v| match v {
                Value::Inst(id) if !f.inst_exists(id) => {
                    err = Some(format!(
                        "%{} uses removed instruction %{}",
                        iid.index(),
                        id.index()
                    ));
                }
                Value::Arg(a) if a as usize >= f.params.len() => {
                    err = Some(format!("%{} uses out-of-range %arg{}", iid.index(), a));
                }
                Value::Global(g) if !m.global_exists(g) => bad_global = Some(g),
                _ => {}
            });
            if let Some(e) = err {
                return Err(e);
            }
            if cross_error.is_none() {
                cross_error = call_error(m, inst).or_else(|| {
                    bad_global.map(|g| format!("use of removed global g{}", g.index()))
                });
            }
        }
    }

    // CFG-level: φ incoming edges match unique predecessors in reachable code.
    // Unreachable predecessors need no incoming entry (passes only maintain
    // φ-nodes for live edges), but stray incoming from a non-predecessor is
    // always an error.
    let cfg = facts.cfg();
    // `stamp[b]` is the number of the last φ that listed an entry from `b`.
    let mut stamp = vec![0u32; f.block_capacity()];
    let mut phi_no = 0u32;
    // `pred_of[b]` is the index of the last φ block `b` was found a
    // predecessor of.
    let mut pred_of = vec![u32::MAX; f.block_capacity()];
    for &bb in cfg.rpo() {
        // φs lead their block (checked above), so a block that does not
        // start with one has none and needs no predecessor lists.
        if !f.insts_in(bb).next().is_some_and(|(_, i)| i.is_phi()) {
            continue;
        }
        let mark = bb.index() as u32;
        for &p in cfg.preds(bb) {
            pred_of[p.index()] = mark;
        }
        for (iid, inst) in f.insts_in(bb) {
            if let Opcode::Phi { incoming } = &inst.op {
                phi_no += 1;
                for &(b, _) in incoming {
                    // A block beyond the arena is no predecessor (reported
                    // below), but it may still be listed twice.
                    let listed_before = match stamp.get_mut(b.index()) {
                        Some(s) => std::mem::replace(s, phi_no) == phi_no,
                        None => incoming.iter().filter(|(o, _)| *o == b).count() > 1,
                    };
                    if listed_before {
                        return Err(format!(
                            "phi %{} has duplicate incoming blocks",
                            iid.index()
                        ));
                    }
                }
                // Every reachable predecessor must have an incoming value,
                // and every incoming block must be a predecessor.
                let missing = cfg
                    .preds(bb)
                    .iter()
                    .filter(|p| cfg.is_reachable(**p) && stamp[p.index()] != phi_no)
                    .min();
                if let Some(p) = missing {
                    return Err(format!(
                        "phi %{} in b{} missing incoming for pred b{}",
                        iid.index(),
                        bb.index(),
                        p.index()
                    ));
                }
                let stray = incoming
                    .iter()
                    .map(|&(b, _)| b)
                    .filter(|b| pred_of.get(b.index()) != Some(&mark))
                    .min();
                if let Some(ib) = stray {
                    return Err(format!(
                        "phi %{} in b{} has incoming from non-pred b{}",
                        iid.index(),
                        bb.index(),
                        ib.index()
                    ));
                }
            }
        }
    }

    // SSA dominance: defs dominate uses (reachable code only).
    let dt = facts.dom();
    for &bb in cfg.rpo() {
        for (iid, inst) in f.insts_in(bb) {
            let mut err: Option<String> = None;
            match &inst.op {
                Opcode::Phi { incoming } => {
                    for (pred, v) in incoming {
                        if let Value::Inst(def) = v {
                            if let Some(def_bb) = placement[def.index()] {
                                if dt.is_reachable(*pred) && !dt.dominates(def_bb, *pred) {
                                    err = Some(format!(
                                        "phi %{} incoming %{} from b{} not dominated by def in b{}",
                                        iid.index(),
                                        def.index(),
                                        pred.index(),
                                        def_bb.index()
                                    ));
                                }
                            } else {
                                err = Some(format!(
                                    "phi %{} uses unplaced instruction %{}",
                                    iid.index(),
                                    def.index()
                                ));
                            }
                        }
                    }
                }
                _ => {
                    inst.for_each_operand(|v| {
                        if err.is_some() {
                            return;
                        }
                        if let Value::Inst(def) = v {
                            match placement[def.index()] {
                                Some(def_bb) if def_bb == bb => {
                                    if order_in_block[def.index()] >= order_in_block[iid.index()] {
                                        err = Some(format!(
                                            "%{} used before defined in b{}",
                                            def.index(),
                                            bb.index()
                                        ));
                                    }
                                }
                                Some(def_bb) => {
                                    if !dt.dominates(def_bb, bb) {
                                        err = Some(format!(
                                            "use of %{} in b{} not dominated by def in b{}",
                                            def.index(),
                                            bb.index(),
                                            def_bb.index()
                                        ));
                                    }
                                }
                                None => {
                                    err = Some(format!(
                                        "%{} uses unplaced instruction %{}",
                                        iid.index(),
                                        def.index()
                                    ));
                                }
                            }
                        }
                    });
                }
            }
            if let Some(e) = err {
                return Err(e);
            }
        }
    }

    cross_error.map_or(Ok(()), Err)
}

/// Verify and panic with a pretty message on failure (test helper).
///
/// # Panics
///
/// Panics if the module fails verification.
pub fn assert_verified(m: &Module) {
    if let Err(e) = verify_module(m) {
        panic!("{e}\n{}", crate::printer::print_module(m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::InstId;
    use crate::inst::{BinOp, CmpPred, Inst};
    use crate::types::Type;

    fn module_with(f: Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    fn verify_alone(f: Function) -> Result<(), String> {
        let m = module_with(f);
        let id = m.func_ids().next().expect("one function");
        verify_function(&m, m.func(id), &m.facts(id))
    }

    #[test]
    fn valid_function_passes() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(Type::I32, vec![(t, x), (e, b.arg(0))]);
        b.ret(Some(p));
        assert!(verify_module(&module_with(b.finish())).is_ok());
    }

    #[test]
    fn missing_terminator_caught() {
        let mut f = Function::new("main", vec![], Type::Void);
        let e = f.entry;
        f.append_inst(
            e,
            Inst::new(
                Type::I32,
                Opcode::Binary(BinOp::Add, Value::i32(1), Value::i32(2)),
            ),
        );
        assert!(verify_alone(f).unwrap_err().contains("terminator"));
    }

    #[test]
    fn empty_block_caught() {
        let f = Function::new("main", vec![], Type::Void);
        assert!(verify_alone(f).unwrap_err().contains("empty"));
    }

    #[test]
    fn phi_missing_pred_caught() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        // phi only lists one of the two predecessors
        let p = b.phi(Type::I32, vec![(t, Value::i32(1))]);
        b.ret(Some(p));
        let err = verify_alone(b.finish()).unwrap_err();
        assert!(err.contains("missing incoming"), "{err}");
    }

    #[test]
    fn use_before_def_caught() {
        let mut f = Function::new("main", vec![], Type::I32);
        let e = f.entry;
        // ret uses %1 which is defined after it would run — construct use
        // of a later instruction in the same block.
        let later = InstId::from_index(1);
        f.append_inst(
            e,
            Inst::new(
                Type::I32,
                Opcode::Binary(BinOp::Add, Value::Inst(later), Value::i32(1)),
            ),
        );
        f.append_inst(
            e,
            Inst::new(
                Type::I32,
                Opcode::Binary(BinOp::Add, Value::i32(1), Value::i32(2)),
            ),
        );
        f.append_inst(e, Inst::new(Type::Void, Opcode::Ret { value: None }));
        let err = verify_alone(f).unwrap_err();
        assert!(err.contains("used before defined"), "{err}");
    }

    #[test]
    fn dangling_call_caught() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let r = b.call(FuncId::from_index(7), Type::I32, vec![]);
        b.ret(Some(r));
        let err = verify_module(&module_with(b.finish())).unwrap_err();
        assert!(err.message.contains("removed function"));
    }

    #[test]
    fn arity_mismatch_caught() {
        let mut m = Module::new("t");
        let callee = m.add_function(Function::new("f", vec![Type::I32], Type::Void));
        {
            let f = m.func_mut(callee);
            let e = f.entry;
            f.append_inst(e, Inst::new(Type::Void, Opcode::Ret { value: None }));
        }
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.call(callee, Type::Void, vec![]); // no args, callee wants 1
        b.ret(None);
        m.add_function(b.finish());
        let err = verify_module(&m).unwrap_err();
        assert!(err.message.contains("args"));
    }

    #[test]
    fn cross_block_dominance_violation_caught() {
        // then-block defines %x, join uses it directly (no phi): invalid.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(x)); // use not dominated by def
        let err = verify_alone(b.finish()).unwrap_err();
        assert!(err.contains("not dominated"), "{err}");
    }

    #[test]
    fn phi_in_entry_caught() {
        let mut f = Function::new("main", vec![], Type::I32);
        let e = f.entry;
        f.append_inst(
            f.entry,
            Inst::new(Type::I32, Opcode::Phi { incoming: vec![] }),
        );
        f.append_inst(e, Inst::new(Type::Void, Opcode::Ret { value: None }));
        assert!(verify_alone(f).unwrap_err().contains("entry"));
    }
}
