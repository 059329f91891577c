//! Transactional pass application: apply-or-roll-back.
//!
//! AutoPhase's RL loop hammers the pass pipeline with millions of
//! arbitrary pass orderings, and arbitrary orderings routinely drive
//! passes into states their authors never saw: panics on weird CFGs,
//! invariant-breaking rewrites, runaway code growth. A single such event
//! must never abort a training run. [`apply_checked`] makes every pass
//! application a transaction:
//!
//! 1. snapshot the module,
//! 2. run the pass under [`std::panic::catch_unwind`],
//! 3. enforce the [`FuelBudget`] (post-pass instruction ceiling),
//! 4. re-verify the module with [`verify_module`] when the pass reported
//!    a change,
//! 5. on *any* fault — panic, verifier rejection, fuel exhaustion —
//!    restore the snapshot and report a typed [`PassFault`] instead of
//!    crashing. The caller observes an unchanged module; every evaluator
//!    maps that to a no-op ([`apply_sequence_checked`] skips the pass,
//!    the environment scores it zero reward).
//!
//! Every fault increments the `pass_fault_total{<pass>}` and
//! `rollback_total{<pass>}` telemetry counters.
//!
//! A pass that miscompiles — the module verifies but computes another
//! result — is not a fault here: only running the module can tell, and
//! whoever profiles it does (`autophase_core::compile::score`).
//!
//! Fault *injection* (the chaos-testing harness) lives in [`crate::fault`];
//! with no plan armed, polling it costs every apply one acquire load.

use crate::changeset::ChangeSet;
use crate::registry::{self, PassId};
use autophase_ir::verify::{verify_functions, verify_module, VerifyError};
use autophase_ir::Module;
use autophase_telemetry as telemetry;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Resource budget one checked pass application may spend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuelBudget {
    /// Hard ceiling on the module's instruction count after the pass. A
    /// pass that grows the module beyond this faults with
    /// [`PassFault::FuelExhausted`] and is rolled back — the backstop
    /// against runaway unroll/inline growth that the registry's
    /// [`registry::GROWTH_LIMIT`] soft limit cannot give (a single apply
    /// can still overshoot it).
    pub max_insts: usize,
}

impl Default for FuelBudget {
    fn default() -> FuelBudget {
        FuelBudget {
            // ~7x the registry's GROWTH_LIMIT: generous for legitimate
            // single-apply growth, tiny next to an actual blowup.
            max_insts: 20_000,
        }
    }
}

/// How a checked pass application failed. The module is always rolled
/// back to its pre-pass state before this is returned.
#[derive(Debug, Clone, PartialEq)]
pub enum PassFault {
    /// The pass panicked.
    Panic {
        /// The offending pass.
        pass: PassId,
    },
    /// The pass left IR behind that the verifier rejects.
    Verifier {
        /// The offending pass.
        pass: PassId,
        /// What the verifier found.
        error: VerifyError,
    },
    /// The pass exceeded the instruction budget (runaway growth).
    FuelExhausted {
        /// The offending pass.
        pass: PassId,
        /// Instruction count the pass produced.
        insts: usize,
        /// The budget it violated.
        limit: usize,
    },
}

impl PassFault {
    /// The pass that faulted.
    pub fn pass(&self) -> PassId {
        match *self {
            PassFault::Panic { pass }
            | PassFault::Verifier { pass, .. }
            | PassFault::FuelExhausted { pass, .. } => pass,
        }
    }
}

impl fmt::Display for PassFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = registry::pass_name(self.pass());
        match self {
            PassFault::Panic { .. } => write!(f, "{name} panicked"),
            PassFault::Verifier { error, .. } => {
                write!(f, "{name} broke the verifier: {error}")
            }
            PassFault::FuelExhausted { insts, limit, .. } => {
                write!(f, "{name} exhausted fuel: {insts} insts > limit {limit}")
            }
        }
    }
}

impl std::error::Error for PassFault {}

/// The kind of fault an injection harness may force into a checked apply.
/// Only [`apply_checked_traced`] consumes these; production code paths
/// never construct them (the seeded harness in `crate::fault` does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the pass body (exercises the `catch_unwind` path).
    Panic,
    /// Corrupt the module after the pass runs (exercises the verifier
    /// rejection + rollback path).
    CorruptIr,
    /// Report the fuel budget as exhausted (exercises the fuel path).
    ExhaustFuel,
    /// Make `main` return another result after the pass runs, in a module
    /// the verifier still accepts (exercises the semantic check of
    /// whoever scores the module: the checked layer cannot see it).
    WrongResult,
}

/// Apply pass `id` transactionally (see the module docs). Returns
/// `Ok(changed)` exactly like [`registry::apply`] on success; on any
/// fault the module is rolled back to its pre-pass state and the fault is
/// returned. `-terminate` and out-of-range ids are no-ops and cannot
/// fault.
///
/// Each call polls [`crate::fault::poll`] for an injected fault first.
///
/// # Errors
///
/// Returns the [`PassFault`] that was isolated (module already restored).
pub fn apply_checked(m: &mut Module, id: PassId, budget: &FuelBudget) -> Result<bool, PassFault> {
    apply_checked_changeset(m, id, budget).map(|(changed, _)| changed)
}

/// [`apply_checked`], but also returning the exact [`ChangeSet`] of a
/// successful apply (empty on `Ok(false)`), so callers that maintain
/// incremental feature state can resync only the dirty functions instead
/// of re-extracting the whole module. Polls the injection plan exactly
/// like [`apply_checked`].
///
/// # Errors
///
/// Returns the [`PassFault`] that was isolated (module already restored).
pub fn apply_checked_changeset(
    m: &mut Module,
    id: PassId,
    budget: &FuelBudget,
) -> Result<(bool, ChangeSet), PassFault> {
    apply_checked_traced(m, id, budget, crate::fault::poll(id))
}

/// Apply `seq` pass by pass through [`apply_checked`]: a pass that faults
/// is rolled back and skipped, and the pipeline goes on. Returns the
/// changing passes that survived — the effective ordering applied.
pub fn apply_sequence_checked(m: &mut Module, seq: &[PassId], budget: &FuelBudget) -> Vec<PassId> {
    seq.iter()
        .copied()
        .filter(|&id| apply_checked(m, id, budget) == Ok(true))
        .collect()
}

/// [`apply_checked`] with an explicit injected fault (or `None` for the
/// plain checked path), additionally deriving the exact [`ChangeSet`] of
/// the successful apply (empty on `Ok(false)`). Callers that poll the
/// injection plan themselves — the phase-ordering environment does, so
/// that a masked action never polls — feed the polled fault through here.
///
/// The rollback snapshot is also the change set's baseline: because it
/// shares every function `Arc`, the pass's copy-on-write mutations land
/// in fresh allocations, and [`ChangeSet::between`] the snapshot and the
/// module yields the dirty set with no extra bookkeeping. The same
/// diff drives *dirty-only verification* — only touched functions are
/// re-verified unless the change was structural (functions/globals
/// added or removed, signatures changed), where a clean caller could be
/// invalidated and the whole module is re-checked.
///
/// # Errors
///
/// Returns the [`PassFault`] that was isolated (module already restored).
pub fn apply_checked_traced(
    m: &mut Module,
    id: PassId,
    budget: &FuelBudget,
    injected: Option<FaultKind>,
) -> Result<(bool, ChangeSet), PassFault> {
    if id >= registry::pass_count() || id == registry::TERMINATE {
        return Ok((false, ChangeSet::empty()));
    }
    if let Some(FaultKind::ExhaustFuel) = injected {
        // The pass never ran: the module already *is* its pre-pass state,
        // so the rollback is trivial — but it is still a fault.
        let fault = PassFault::FuelExhausted {
            pass: id,
            insts: usize::MAX,
            limit: budget.max_insts,
        };
        record_fault(&fault);
        return Err(fault);
    }
    let snapshot = m.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(FaultKind::Panic) = injected {
            std::panic::panic_any(telemetry::INJECTED_PANIC_MSG);
        }
        let mut changed = registry::apply(m, id);
        changed |= match injected {
            Some(FaultKind::CorruptIr) => corrupt_module(m),
            Some(FaultKind::WrongResult) => wrong_result(m),
            _ => false,
        };
        changed
    }));
    let mut changeset = ChangeSet::empty();
    let fault = match outcome {
        Err(_) => Some(PassFault::Panic { pass: id }),
        Ok(changed) => {
            let insts = m.num_insts();
            if insts > budget.max_insts {
                Some(PassFault::FuelExhausted {
                    pass: id,
                    insts,
                    limit: budget.max_insts,
                })
            } else if changed {
                // An unchanged module is bit-identical to the verified
                // pre-pass snapshot; only changed modules need re-checking.
                changeset = ChangeSet::between(&snapshot, m);
                let verified = if changeset.needs_full_rebuild() {
                    verify_module(m)
                } else {
                    verify_functions(m, changeset.dirty_funcs.iter().copied())
                };
                verified
                    .err()
                    .map(|error| PassFault::Verifier { pass: id, error })
            } else {
                None
            }
        }
    };
    match fault {
        Some(fault) => {
            *m = snapshot;
            record_fault(&fault);
            Err(fault)
        }
        None => Ok((outcome.unwrap_or(false), changeset)),
    }
}

/// Count a fault in telemetry. Every fault implies a rollback (the module
/// is restored to — or provably already at — its pre-pass state), so both
/// counters move together; they are kept separate so dashboards can later
/// distinguish faults with other recovery strategies.
fn record_fault(fault: &PassFault) {
    let name = registry::pass_name(fault.pass());
    telemetry::incr("pass_fault_total", name, 1);
    telemetry::incr("rollback_total", name, 1);
}

/// Make the module fail verification (dangling callee in the first
/// function's entry block). Always `true`: the module counts as changed,
/// so the verifier looks at it. Used only by the [`FaultKind::CorruptIr`]
/// injection path.
fn corrupt_module(m: &mut Module) -> bool {
    use autophase_ir::{FuncId, Inst, Opcode, Type};
    let Some(fid) = m.func_ids().next() else {
        return true;
    };
    let f = m.func_mut(fid);
    let entry = f.entry;
    let bogus = FuncId::from_index(usize::MAX / 2);
    f.insert_inst(
        entry,
        0,
        Inst::new(
            Type::I32,
            Opcode::Call {
                callee: bogus,
                args: vec![],
            },
        ),
    );
    true
}

/// Make `main` return its result plus one: every `ret v` becomes
/// `ret (v + 1)`, which still verifies. `false` when `main` returns
/// nothing to change. Used only by the [`FaultKind::WrongResult`]
/// injection path.
fn wrong_result(m: &mut Module) -> bool {
    use autophase_ir::{BinOp, Inst, Opcode, Value};
    let Some(f) = m.main().map(|main| m.func_mut(main)) else {
        return false;
    };
    let rets: Vec<_> = f
        .block_ids()
        .filter_map(|bb| Some((bb, f.terminator(bb)?)))
        .collect();
    let mut changed = false;
    for (bb, ret) in rets {
        if let Opcode::Ret { value: Some(v) } = f.inst(ret).op {
            let plus_one = Opcode::Binary(BinOp::Add, v, Value::const_int(f.ret_ty, 1));
            let wrong = f.insert_inst(
                bb,
                f.block(bb).insts.len() - 1,
                Inst::new(f.ret_ty, plus_one),
            );
            f.inst_mut(ret).op = Opcode::Ret {
                value: Some(Value::Inst(wrong)),
            };
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::printer::print_module;
    use autophase_ir::{BinOp, Type, Value};

    fn sample_module() -> Module {
        let mut m = Module::new("t");
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
        m.add_function(b.finish());
        m
    }

    #[test]
    fn healthy_pass_matches_unchecked_apply() {
        let budget = FuelBudget::default();
        for id in 0..registry::pass_count() {
            let mut checked = sample_module();
            let mut plain = sample_module();
            let got = apply_checked(&mut checked, id, &budget)
                .unwrap_or_else(|f| panic!("unexpected fault: {f}"));
            let want = registry::apply(&mut plain, id);
            assert_eq!(got, want, "{}", registry::pass_name(id));
            assert_eq!(
                print_module(&checked),
                print_module(&plain),
                "{} diverged under checking",
                registry::pass_name(id)
            );
        }
    }

    #[test]
    fn injected_panic_rolls_back() {
        telemetry::quiet_panic_hook();
        let mut m = sample_module();
        let before = print_module(&m);
        let r = apply_checked_traced(&mut m, 38, &FuelBudget::default(), Some(FaultKind::Panic));
        assert_eq!(r.err(), Some(PassFault::Panic { pass: 38 }));
        assert_eq!(print_module(&m), before, "module must be restored");
        verify_module(&m).unwrap();
    }

    #[test]
    fn injected_corruption_rolls_back_via_verifier() {
        let mut m = sample_module();
        let before = print_module(&m);
        let r = apply_checked_traced(
            &mut m,
            31,
            &FuelBudget::default(),
            Some(FaultKind::CorruptIr),
        );
        match r {
            Err(PassFault::Verifier { pass: 31, .. }) => {}
            other => panic!("expected verifier fault, got {other:?}"),
        }
        assert_eq!(print_module(&m), before);
        verify_module(&m).unwrap();
    }

    #[test]
    fn injected_fuel_exhaustion_is_a_fault_without_mutation() {
        let mut m = sample_module();
        let before = print_module(&m);
        let r = apply_checked_traced(
            &mut m,
            33,
            &FuelBudget::default(),
            Some(FaultKind::ExhaustFuel),
        );
        match r {
            Err(PassFault::FuelExhausted { pass: 33, .. }) => {}
            other => panic!("expected fuel fault, got {other:?}"),
        }
        assert_eq!(print_module(&m), before);
    }

    #[test]
    fn real_growth_past_budget_faults_and_restores() {
        let mut m = sample_module();
        let before = print_module(&m);
        let budget = FuelBudget { max_insts: 1 };
        // -mem2reg changes the module, whose size then exceeds the budget.
        let r = apply_checked(&mut m, 38, &budget);
        match r {
            Err(PassFault::FuelExhausted {
                pass: 38,
                insts,
                limit: 1,
            }) => {
                assert!(insts > 1);
            }
            other => panic!("expected fuel fault, got {other:?}"),
        }
        assert_eq!(print_module(&m), before);
    }

    #[test]
    fn terminate_and_out_of_range_cannot_fault() {
        let mut m = sample_module();
        let budget = FuelBudget::default();
        assert_eq!(
            apply_checked(&mut m, registry::TERMINATE, &budget),
            Ok(false)
        );
        assert_eq!(apply_checked(&mut m, 9_999, &budget), Ok(false));
    }

    #[test]
    fn faults_display_the_pass_name() {
        let f = PassFault::Panic { pass: 15 };
        assert!(f.to_string().contains("-reassociate"));
        let f = PassFault::FuelExhausted {
            pass: 33,
            insts: 10,
            limit: 5,
        };
        assert!(f.to_string().contains("-loop-unroll"));
        assert_eq!(f.pass(), 33);
    }
}
