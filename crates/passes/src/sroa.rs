//! `-sroa` / `-scalarrepl` / `-scalarrepl-ssa`: scalar replacement of
//! aggregates.
//!
//! A small array alloca whose every access goes through a constant-index
//! `gep` is split into one single-element alloca per touched index. The
//! pieces then become `-mem2reg` candidates; `-scalarrepl-ssa` runs the
//! promotion immediately, matching LLVM's SSAUpdater-based variant.

use crate::util;
use autophase_ir::facts::Facts;
use autophase_ir::{
    BlockId, FuncId, Function, Inst, InstId, Module, Opcode, Rewrites, Type, Value,
};

/// Maximum number of elements split.
pub const SROA_ELEM_LIMIT: u32 = 64;

/// Run `-sroa`. Returns true if any aggregate was split.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, split_function)
}

/// Run `-scalarrepl`: same splitting with a smaller legacy element limit.
pub fn run_scalarrepl(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| split_function_limit(m, fid, 16))
}

/// Run `-scalarrepl-ssa`: split, then promote the pieces to SSA.
pub fn run_scalarrepl_ssa(m: &mut Module) -> bool {
    let mut changed = run_scalarrepl(m);
    changed |= crate::mem2reg::run(m);
    changed
}

fn split_function(m: &mut Module, fid: FuncId) -> bool {
    split_function_limit(m, fid, SROA_ELEM_LIMIT)
}

fn split_function_limit(m: &mut Module, fid: FuncId, limit: u32) -> bool {
    // Splitting one aggregate touches only its own geps and accesses, so
    // one scan finds every splittable alloca and one batch rewrites them.
    let splits = find_splittable(m.func(fid), &m.facts(fid), limit);
    if splits.is_empty() {
        return false;
    }
    let f = m.func_mut(fid);
    let mut rw = Rewrites::new();
    for split in &splits {
        // One scalar alloca per accessed index, created right after the
        // original alloca.
        let pos = f
            .block(split.block)
            .insts
            .iter()
            .position(|&i| i == split.alloca)
            .expect("alloca in its block");
        let slots: Vec<InstId> = (0..split.indices.len())
            .map(|k| {
                let elem_ty = split.elem_ty;
                f.insert_inst(
                    split.block,
                    pos + 1 + k,
                    Inst::new(Type::Ptr, Opcode::Alloca { elem_ty, count: 1 }),
                )
            })
            .collect();
        let slot_of = |idx: i64| {
            let k = split
                .indices
                .binary_search(&idx)
                .expect("every access index has a slot");
            Value::Inst(slots[k])
        };
        // Redirect each gep's users to the scalar slot and drop the gep.
        for &(gep, idx) in &split.gep_accesses {
            rw.replace(gep, slot_of(idx));
        }
        // Direct (index-0) uses of the alloca itself.
        if split.indices.first() == Some(&0) {
            rw.forward(split.alloca, slot_of(0));
        }
        rw.remove(split.alloca);
    }
    f.apply_rewrites(&rw);
    true
}

struct Splittable {
    alloca: InstId,
    block: BlockId,
    elem_ty: Type,
    /// Constant-index geps to rewrite.
    gep_accesses: Vec<(InstId, i64)>,
    /// All touched indices (slots to create), sorted, deduplicated.
    indices: Vec<i64>,
}

/// Find every alloca where each use is either a `load`/`store` of matching
/// type directly on it (index 0) or a constant-index `gep` whose own uses
/// are all matching loads/stores.
fn find_splittable(f: &Function, facts: &Facts, limit: u32) -> Vec<Splittable> {
    let mut out = Vec::new();
    for bb in f.block_ids() {
        'cand: for &iid in &f.block(bb).insts {
            let Opcode::Alloca { elem_ty, count } = f.inst(iid).op else {
                continue;
            };
            if count < 2 || count > limit || !elem_ty.is_int() {
                continue;
            }
            // Read at the first aggregate of a splittable shape; most
            // functions have none.
            let index = facts.users();
            let addr = Value::Inst(iid);
            let mut accesses: Vec<(InstId, i64)> = Vec::new();
            let mut direct_mem = false;
            for &(user, _) in index.users(iid) {
                match &f.inst(user).op {
                    Opcode::Gep {
                        ptr,
                        index: Value::ConstInt(_, idx),
                    } if *ptr == addr => {
                        if *idx < 0 || *idx >= count as i64 {
                            continue 'cand;
                        }
                        // All gep users must be typed loads/stores.
                        let gv = Value::Inst(user);
                        let typed = |&(gu, _): &(InstId, BlockId)| {
                            util::is_typed_access(f, gu, gv, elem_ty)
                        };
                        if !index.users(user).iter().all(typed) {
                            continue 'cand;
                        }
                        accesses.push((user, *idx));
                    }
                    _ if util::is_typed_access(f, user, addr, elem_ty) => direct_mem = true,
                    _ => continue 'cand,
                }
            }
            if accesses.is_empty() && !direct_mem {
                continue;
            }
            let mut indices: Vec<i64> = accesses.iter().map(|(_, i)| *i).collect();
            if direct_mem {
                indices.push(0); // direct loads/stores hit element 0
            }
            indices.sort_unstable();
            indices.dedup();
            out.push(Splittable {
                alloca: iid,
                block: bb,
                elem_ty,
                gep_accesses: accesses,
                indices,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::BinOp;

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn constant_indexed_array_split() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let arr = b.alloca(Type::I32, 4);
        let p0 = b.gep(arr, Value::i32(0));
        let p1 = b.gep(arr, Value::i32(1));
        b.store(p0, Value::i32(10));
        b.store(p1, Value::i32(20));
        let a = b.load(Type::I32, p0);
        let c = b.load(Type::I32, p1);
        let s = b.binary(BinOp::Add, a, c);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().return_value, Some(30));
        // No geps remain; two scalar allocas exist.
        let f = m.func(m.main().unwrap());
        let geps = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Gep { .. }))
            .count();
        assert_eq!(geps, 0);
        let allocas = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.clone())
            .filter(|&i| matches!(f.inst(i).op, Opcode::Alloca { count: 1, .. }))
            .count();
        assert_eq!(allocas, 2);
    }

    #[test]
    fn sroa_then_mem2reg_eliminates_memory() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let arr = b.alloca(Type::I32, 2);
        let p0 = b.gep(arr, Value::i32(0));
        let p1 = b.gep(arr, Value::i32(1));
        b.store(p0, Value::i32(6));
        b.store(p1, Value::i32(7));
        let a = b.load(Type::I32, p0);
        let c = b.load(Type::I32, p1);
        let s = b.binary(BinOp::Mul, a, c);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run_scalarrepl_ssa(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().return_value, Some(42));
        let f = m.func(m.main().unwrap());
        for bb in f.block_ids() {
            for (_, inst) in f.insts_in(bb) {
                assert!(!inst.reads_memory() && !inst.writes_memory());
            }
        }
    }

    #[test]
    fn dynamic_index_blocks_split() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let arr = b.alloca(Type::I32, 4);
        let p = b.gep(arr, b.arg(0)); // dynamic
        b.store(p, Value::i32(1));
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn escaping_array_blocks_split() {
        let mut m = Module::new("t");
        let callee = {
            let mut b = FunctionBuilder::new("reads_ptr", vec![Type::Ptr], Type::I32);
            let v = b.load(Type::I32, b.arg(0));
            b.ret(Some(v));
            m.add_function(b.finish())
        };
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let arr = b.alloca(Type::I32, 4);
        let p0 = b.gep(arr, Value::i32(0));
        b.store(p0, Value::i32(5));
        let r = b.call(callee, Type::I32, vec![arr]);
        b.ret(Some(r));
        m.add_function(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn direct_and_gep_access_mix() {
        // Direct store to arr (index 0) plus gep access to index 1.
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let arr = b.alloca(Type::I32, 2);
        b.store(arr, Value::i32(3)); // direct = index 0
        let p1 = b.gep(arr, Value::i32(1));
        b.store(p1, Value::i32(4));
        let a = b.load(Type::I32, arr);
        let c = b.load(Type::I32, p1);
        let s = b.binary(BinOp::Add, a, c);
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().return_value, Some(7));
    }

    #[test]
    fn huge_array_not_split() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let arr = b.alloca(Type::I32, 1000);
        let p = b.gep(arr, Value::i32(999));
        b.store(p, Value::i32(1));
        let v = b.load(Type::I32, p);
        b.ret(Some(v));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }
}
