//! `-loop-idiom`: recognize memory-initialization idioms.
//!
//! Our IR has no `memset` intrinsic, so the recognized idiom — a counted
//! loop whose body is a single store of a loop-invariant value through the
//! induction variable — is lowered to straight-line stores (the form the
//! HLS backend turns into back-to-back single-state writes, its equivalent
//! of a burst fill). Structurally this reuses the unroller with an
//! idiom-specific filter and a higher trip budget.

use autophase_ir::{BlockId, Function, Module, Opcode};

/// Maximum fill size expanded.
pub const IDIOM_TRIP_LIMIT: i64 = 64;

/// Run the pass. Returns true if any fill loop was expanded.
pub fn run(m: &mut Module) -> bool {
    crate::util::for_each_function(m, |m, fid| {
        // Identify candidate single-block store loops first; then let the
        // unroller (with idiom limits) expand exactly those.
        let facts = m.facts(fid);
        let f = m.func(fid);
        let has_candidate = facts
            .loops()
            .iter()
            .any(|l| l.blocks.len() == 1 && is_fill(f, l.header));
        if !has_candidate {
            return false;
        }
        // Expand store-only loops; the generic unroll guard rails
        // (recognized counted loop, size) still apply.
        crate::loop_unroll::run_with_limits_filtered(m, fid, IDIOM_TRIP_LIMIT, 16, is_fill)
    })
}

/// True if `bb` stores exactly once and neither loads nor calls: the fill
/// idiom's body.
fn is_fill(f: &Function, bb: BlockId) -> bool {
    let mut stores = 0usize;
    let mut other_mem = 0usize;
    for (_, inst) in f.insts_in(bb) {
        match inst.op {
            Opcode::Store { .. } => stores += 1,
            Opcode::Load { .. } | Opcode::Call { .. } => other_mem += 1,
            _ => {}
        }
    }
    stores == 1 && other_mem == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::loops::analyze_loops;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type, Value};

    #[test]
    fn fill_loop_expanded() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("buf", Type::I32, 16));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(16), |b, i| {
            let p = b.gep(Value::Global(g), i);
            b.store(p, Value::i32(0x5A));
        });
        // read back one slot to keep the fill observable
        let p = b.gep(Value::Global(g), Value::i32(9));
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        assert_eq!(before, Some(0x5A));
        let f = m.func(m.main().unwrap());
        let (_, _, loops) = analyze_loops(f);
        assert!(loops.is_empty());
    }

    #[test]
    fn compute_loop_not_touched_by_idiom() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("buf", Type::I32, 64));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(64), |b, i| {
            let p = b.gep(Value::Global(g), i);
            let old = b.load(Type::I32, p); // load makes it not a fill
            let n = b.binary(BinOp::Add, old, i);
            b.store(p, n);
        });
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        assert!(!run(&mut m));
    }

    #[test]
    fn huge_fill_not_expanded() {
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("buf", Type::I32, 4096));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(4096), |b, i| {
            let p = b.gep(Value::Global(g), i);
            b.store(p, Value::i32(1));
        });
        b.ret(Some(Value::i32(0)));
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        assert!(!run(&mut m));
    }
}
