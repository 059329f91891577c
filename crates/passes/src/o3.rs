//! The reference optimization level `-O3` (`-O0` is the untouched module).
//!
//! `-O3` is a fixed, hand-ordered pipeline modeled on LLVM's: early
//! cleanup, mem2reg, scalar simplification, interprocedural passes, the
//! loop pipeline (simplify → rotate → licm → unswitch → idioms → unroll),
//! and late cleanup. It is the baseline every experiment compares against,
//! exactly as the paper compares against `clang -O3`.

use crate::checked::{apply_sequence_checked, FuelBudget};
use crate::registry::PassId;
use autophase_ir::Module;

/// The `-O3` pass sequence, as Table-1 indices.
pub const O3_SEQUENCE: &[PassId] = &[
    31, // -simplifycfg
    43, // -sroa
    38, // -mem2reg
    26, // -early-cse
    5,  // -sccp
    30, // -instcombine
    31, // -simplifycfg
    19, // -functionattrs
    25, // -inline
    24, // -partial-inliner
    42, // -deadargelim
    41, // -ipsccp
    40, // -functionattrs (re-infer after inlining)
    43, // -sroa
    38, // -mem2reg
    30, // -instcombine
    8,  // -jump-threading
    0,  // -correlated-propagation
    15, // -reassociate
    31, // -simplifycfg
    29, // -loop-simplify
    16, // -lcssa
    23, // -loop-rotate
    36, // -licm
    10, // -loop-unswitch
    27, // -indvars
    14, // -loop-deletion
    20, // -loop-idiom
    12, // -loop-reduce
    33, // -loop-unroll
    7,  // -gvn
    18, // -memcpyopt
    5,  // -sccp
    30, // -instcombine
    32, // -dse
    28, // -adce
    31, // -simplifycfg
    6,  // -globalopt
    22, // -constmerge
    9,  // -globaldce
    35, // -tailcallelim
    37, // -sink
    17, // -codegenprepare
    30, // -instcombine
    31, // -simplifycfg
];

/// Fault-isolated `-O3`: [`O3_SEQUENCE`] through
/// [`crate::checked::apply_sequence_checked`], so a pass that panics,
/// breaks the verifier, or blows the fuel budget is rolled back and
/// skipped instead of aborting the pipeline. Returns the changing pass ids
/// that survived — the effective ordering actually applied.
///
/// This is the degradation baseline a serving layer falls back to when
/// the learned policy path faults: it must make progress on *any*
/// verified module, never crash.
pub fn o3_checked(m: &mut Module, budget: &FuelBudget) -> Vec<PassId> {
    apply_sequence_checked(m, O3_SEQUENCE, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type, Value};

    fn workload() -> Module {
        let mut m = Module::new("t");
        let helper = {
            let mut b = FunctionBuilder::new("scale", vec![Type::I32], Type::I32);
            let r = b.binary(BinOp::Mul, b.arg(0), Value::i32(3));
            b.ret(Some(r));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(20), |b, i| {
            let s = b.call(helper, Type::I32, vec![i]);
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, s);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        m.add_function(b.finish());
        m
    }

    #[test]
    fn o3_preserves_semantics_and_shrinks_work() {
        let mut m = workload();
        let before = run_main(&m, 1_000_000).unwrap();
        let changed = o3_checked(&mut m, &FuelBudget::default()).len();
        assert!(changed >= 4, "O3 should fire several passes, got {changed}");
        assert_verified(&m);
        let after = run_main(&m, 1_000_000).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.return_value, Some(570)); // 3 * sum(0..20)
        assert!(
            after.insts_executed < before.insts_executed,
            "O3 should reduce dynamic instructions: {} vs {}",
            after.insts_executed,
            before.insts_executed
        );
    }

    #[test]
    fn o3_is_idempotent_enough_to_rerun() {
        let mut m = workload();
        o3_checked(&mut m, &FuelBudget::default());
        let first = run_main(&m, 1_000_000).unwrap().observable();
        o3_checked(&mut m, &FuelBudget::default());
        assert_verified(&m);
        assert_eq!(run_main(&m, 1_000_000).unwrap().observable(), first);
    }
}
