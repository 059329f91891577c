//! `-memcpyopt`: memory-transfer optimization.
//!
//! Our IR has no `memcpy` intrinsic, so the profitable fragment of this
//! pass here is constant-memory forwarding: a load from a constant global
//! at a constant index is replaced by the initializer value. (LLVM's
//! memcpyopt similarly turns copies from constants into direct values.)

use crate::util;
use autophase_ir::{FuncId, InstId, Module, Opcode, Value};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = fold_const_loads(m, fid);
        if changed {
            util::delete_dead(m, fid);
        }
        changed
    })
}

/// Resolve `load (gep @const_global, C)` and `load @const_global` to the
/// initializer element. Shared with `-globalopt`.
pub(crate) fn fold_const_loads(m: &mut Module, fid: FuncId) -> bool {
    let f = m.func(fid);
    let mut rewrites: Vec<(InstId, Value)> = Vec::new();
    for bb in f.block_ids() {
        for &iid in &f.block(bb).insts {
            let Opcode::Load { ptr } = f.inst(iid).op else {
                continue;
            };
            let load_ty = f.inst(iid).ty;
            if !load_ty.is_int() {
                continue;
            }
            let (gid, index) = match ptr {
                Value::Global(g) => (g, 0i64),
                Value::Inst(p) => match f.inst(p).op {
                    Opcode::Gep {
                        ptr: Value::Global(g),
                        index: Value::ConstInt(_, c),
                    } => (g, c),
                    _ => continue,
                },
                _ => continue,
            };
            let g = m.global(gid);
            if !g.is_const {
                continue;
            }
            if index < 0 || index >= g.count as i64 {
                continue; // out-of-bounds reads stay dynamic (they yield 0,
                          // but keep the conservative path exercised)
            }
            // The memory cell holds the raw initializer; a load wraps it to
            // the load type, exactly like `Type::wrap`.
            let raw = g.init_at(index as usize);
            rewrites.push((iid, Value::ConstInt(load_ty, load_ty.wrap(raw))));
        }
    }
    if rewrites.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    for (iid, v) in rewrites {
        f.replace_all_uses(Value::Inst(iid), v);
        if let Some(bb) = f.block_of(iid) {
            f.remove_inst(bb, iid);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::module::Global;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type};

    #[test]
    fn const_table_load_folded() {
        let mut m = Module::new("t");
        let g = m.add_global(Global::constant("tbl", Type::I32, vec![10, 20, 30]));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.gep(Value::Global(g), Value::i32(1));
        let v = b.load(Type::I32, p);
        let w = b.binary(BinOp::Add, v, Value::i32(1));
        b.ret(Some(w));
        m.add_function(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(21));
        let f = m.func(m.main().unwrap());
        assert_eq!(f.num_insts(), 2); // add + ret (gep and load folded away)
    }

    #[test]
    fn direct_global_load_folded() {
        let mut m = Module::new("t");
        let g = m.add_global(Global::constant("one", Type::I32, vec![77]));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let v = b.load(Type::I32, Value::Global(g));
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(77));
    }

    #[test]
    fn mutable_global_untouched() {
        let mut m = Module::new("t");
        let g = m.add_global(Global::zeroed("buf", Type::I32, 4));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let p = b.gep(Value::Global(g), Value::i32(0));
        b.store(p, Value::i32(5));
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(!run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(5));
    }

    #[test]
    fn dynamic_index_untouched() {
        let mut m = Module::new("t");
        let g = m.add_global(Global::constant("tbl", Type::I32, vec![1, 2, 3, 4]));
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let p = b.gep(Value::Global(g), b.arg(0));
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn narrow_load_wraps_initializer() {
        let mut m = Module::new("t");
        let g = m.add_global(Global::constant("tbl", Type::I8, vec![300]));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let v = b.load(Type::I8, Value::Global(g));
        let w = b.cast(autophase_ir::CastOp::SExt, Type::I32, v);
        b.ret(Some(w));
        m.add_function(b.finish());
        let before = run_main(&m, 100).unwrap().return_value;
        assert!(run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, before);
        assert_eq!(before, Some(44)); // 300 wrapped to i8
    }
}
