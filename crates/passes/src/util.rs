//! Shared machinery: purity queries, dead-code cleanup, the user index,
//! value substitution and alias roots. Edits to CFG edges and φ entries
//! live in `autophase_ir::edges`, not here.

use autophase_ir::{FuncId, Function, Inst, InstId, Module, Opcode, Rewrites, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// True if executing `inst` has no observable effect beyond producing its
/// result: no stores, and calls only to functions inferred `readnone`
/// (which `-functionattrs` sets).
pub fn is_pure(m: &Module, inst: &Inst) -> bool {
    match &inst.op {
        Opcode::Store { .. } => false,
        Opcode::Call { callee, .. } => m.func_exists(*callee) && m.func(*callee).attrs.readnone,
        _ => !inst.is_terminator(),
    }
}

/// True if `inst` is pure and also reads no memory, so it may be freely
/// reordered and deduplicated.
pub fn is_pure_no_read(m: &Module, inst: &Inst) -> bool {
    is_pure(m, inst) && !matches!(inst.op, Opcode::Load { .. })
}

/// Delete trivially dead instructions until a fixpoint. Returns the number
/// removed. This is the cleanup step most transform passes finish with.
///
/// Implemented as a use-count worklist (one scan to build counts, O(1) per
/// death) whose removals are committed as one batch, so cleanup stays
/// linear however many instructions die. A sweep records the unused
/// instructions it kept with the version's facts ([`Module::facts`]);
/// while every one of them is still impure, a sweep of that version would
/// find nothing, and none is made.
pub fn delete_dead(m: &mut Module, fid: FuncId) -> usize {
    let facts = m.facts(fid);
    if let Some(kept) = facts.sweep_survivors() {
        let f = m.func(fid);
        if kept.iter().all(|&iid| !is_pure(m, f.inst(iid))) {
            return 0;
        }
    }
    let f = m.func(fid);
    let cap = f.inst_capacity();
    let mut use_count = vec![0u32; cap];
    let mut placed = vec![false; cap];
    for bb in f.block_ids() {
        for &iid in &f.block(bb).insts {
            placed[iid.index()] = true;
            f.inst(iid).for_each_operand(|v| {
                if let Value::Inst(dep) = v {
                    if dep.index() < cap {
                        use_count[dep.index()] += 1;
                    }
                }
            });
        }
    }
    // Purity depends only on opcode + callee attrs, which deleting
    // instructions does not change.
    let dead_candidate =
        |iid: InstId| placed[iid.index()] && f.inst_exists(iid) && is_pure(m, f.inst(iid));
    let mut work: Vec<InstId> = (0..cap)
        .map(InstId::from_index)
        .filter(|&iid| use_count[iid.index()] == 0 && dead_candidate(iid))
        .collect();
    let mut dead = Rewrites::new();
    let mut removed = 0;
    while let Some(iid) = work.pop() {
        if dead.is_removed(iid) || use_count[iid.index()] != 0 {
            continue;
        }
        dead.remove(iid);
        removed += 1;
        f.inst(iid).for_each_operand(|v| {
            if let Value::Inst(dep) = v {
                if dep.index() < cap && use_count[dep.index()] > 0 {
                    use_count[dep.index()] -= 1;
                    if use_count[dep.index()] == 0 && dead_candidate(dep) {
                        work.push(dep);
                    }
                }
            }
        });
    }
    // The unused instructions left are the fixpoint's: each is impure.
    let kept: Vec<InstId> = (0..cap)
        .map(InstId::from_index)
        .filter(|&iid| placed[iid.index()] && use_count[iid.index()] == 0 && !dead.is_removed(iid))
        .collect();
    if removed > 0 {
        m.func_mut(fid).apply_rewrites(&dead);
        m.facts(fid).set_sweep_survivors(kept);
    } else {
        facts.set_sweep_survivors(kept);
    }
    removed
}

pub use autophase_ir::facts::UserIndex;

/// A deterministic multiply-rotate hasher for the CSE tables' small `Copy`
/// keys (`early_cse::ExprKey`, `Value`). std's SipHash guards a map
/// against keys chosen to collide, which a pass's own value ids are not;
/// it cost `-early-cse` a third of its time. Nothing iterates these maps
/// into output, so the hash order is never seen.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the low bits, which pick the bucket, the
        // weakest: bring the strong high bits down.
        self.0.rotate_left(26)
    }
}

/// A map hashed by [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

/// Remap every operand of `inst` through `map` (values absent from the map
/// are left alone).
pub fn remap_operands(inst: &mut Inst, map: &HashMap<Value, Value>) {
    inst.for_each_operand_mut(|v| {
        if let Some(nv) = map.get(v) {
            *v = *nv;
        }
    });
}

/// True if `user` is a load or store of an `elem_ty` value that uses
/// `addr` as its address and nothing else — the only kind of access
/// `-mem2reg` and `-sroa` can rewrite.
pub fn is_typed_access(
    f: &Function,
    user: InstId,
    addr: Value,
    elem_ty: autophase_ir::Type,
) -> bool {
    match &f.inst(user).op {
        Opcode::Load { ptr } => *ptr == addr && f.inst(user).ty == elem_ty,
        Opcode::Store { ptr, value } => {
            *ptr == addr && *value != addr && f.type_of(*value) == elem_ty
        }
        _ => false,
    }
}

/// Run `body` once per live function id.
pub fn for_each_function(
    m: &mut Module,
    mut body: impl FnMut(&mut Module, autophase_ir::FuncId) -> bool,
) -> bool {
    let ids: Vec<_> = m.func_ids().collect();
    let mut changed = false;
    for fid in ids {
        if m.func_exists(fid) {
            changed |= body(m, fid);
        }
    }
    changed
}

/// True if `v` is a power of two (> 0) and return its log2.
pub fn power_of_two(v: i64) -> Option<u32> {
    if v > 0 && (v & (v - 1)) == 0 {
        Some(v.trailing_zeros())
    } else {
        None
    }
}

/// Collect the root pointer of an address value: follows `Gep` chains to an
/// `Alloca` instruction or `Global`. Returns `None` for anything else
/// (arguments, loads, arithmetic), i.e. "unknown object".
pub fn pointer_root(f: &Function, v: Value) -> Option<Value> {
    pointer_root_through(f, &Rewrites::new(), v)
}

/// [`pointer_root`] as it will read once the pending `rw` is applied: every
/// link of the chain is resolved through the forwarding table first.
pub fn pointer_root_through(f: &Function, rw: &Rewrites, v: Value) -> Option<Value> {
    let mut v = rw.resolve(v);
    loop {
        match v {
            Value::Global(_) => return Some(v),
            Value::Inst(id) => match &f.inst(id).op {
                Opcode::Alloca { .. } => return Some(v),
                Opcode::Gep { ptr, .. } => v = rw.resolve(*ptr),
                Opcode::Cast(autophase_ir::CastOp::BitCast, inner) => v = rw.resolve(*inner),
                _ => return None,
            },
            _ => return None,
        }
    }
}

/// Conservative may-alias: two addresses may alias unless they have
/// distinct known roots.
pub fn may_alias(f: &Function, a: Value, b: Value) -> bool {
    match (pointer_root(f, a), pointer_root(f, b)) {
        (Some(ra), Some(rb)) => ra == rb || alias_same_root(f, a, b, ra, rb),
        _ => true,
    }
}

fn alias_same_root(_f: &Function, _a: Value, _b: Value, ra: Value, rb: Value) -> bool {
    // Same root: may alias (we do not track index disjointness).
    ra == rb
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{BinOp, Type};

    #[test]
    fn purity_respects_function_attrs() {
        let mut m = Module::new("t");
        let callee = m.add_function(Function::new("f", vec![], Type::I32));
        {
            let f = m.func_mut(callee);
            let e = f.entry;
            f.append_inst(
                e,
                Inst::new(
                    Type::Void,
                    Opcode::Ret {
                        value: Some(Value::i32(1)),
                    },
                ),
            );
        }
        let call = Inst::new(
            Type::I32,
            Opcode::Call {
                callee,
                args: vec![],
            },
        );
        assert!(!is_pure(&m, &call));
        m.func_mut(callee).attrs.readnone = true;
        assert!(is_pure(&m, &call));
    }

    #[test]
    fn delete_dead_removes_chains() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let x = b.binary(BinOp::Add, Value::i32(1), Value::i32(2));
        let _y = b.binary(BinOp::Mul, x, Value::i32(3)); // dead, and makes x dead
        b.ret(Some(Value::i32(0)));
        let fid = m.add_function(b.finish());
        let removed = delete_dead(&mut m, fid);
        assert_eq!(removed, 2);
        assert_eq!(m.func(fid).num_insts(), 1);
    }

    #[test]
    fn a_clean_version_is_swept_again_once_a_kept_call_turns_pure() {
        let mut m = Module::new("t");
        let callee = m.add_function(Function::new("g", vec![], Type::I32));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let x = b.binary(BinOp::Add, Value::i32(1), Value::i32(2));
        let _unused = b.call(callee, Type::I32, vec![x]);
        b.ret(Some(Value::i32(0)));
        let fid = m.add_function(b.finish());
        assert_eq!(delete_dead(&mut m, fid), 0);
        assert!(m.facts(fid).sweep_survivors().is_some());
        assert_eq!(delete_dead(&mut m, fid), 0);
        // Only the callee is written: `main`'s version, and what its
        // sweep kept, stay; the call it kept is now removable.
        m.func_mut(callee).attrs.readnone = true;
        assert_eq!(delete_dead(&mut m, fid), 2);
        assert_eq!(m.func(fid).num_insts(), 1);
    }

    #[test]
    fn pointer_roots() {
        let mut b = FunctionBuilder::new("main", vec![Type::Ptr], Type::Void);
        let a = b.alloca(Type::I32, 4);
        let g1 = b.gep(a, Value::i32(2));
        let g2 = b.gep(b.arg(0), Value::i32(2));
        b.ret(None);
        let f = b.finish();
        assert_eq!(pointer_root(&f, g1), Some(a));
        assert_eq!(pointer_root(&f, g2), None);
        assert!(may_alias(&f, g1, g1));
        assert!(may_alias(&f, g1, g2)); // unknown root: conservative
    }

    #[test]
    fn distinct_allocas_do_not_alias() {
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let a1 = b.alloca(Type::I32, 1);
        let a2 = b.alloca(Type::I32, 1);
        b.ret(None);
        let f = b.finish();
        assert!(!may_alias(&f, a1, a2));
    }

    #[test]
    fn power_of_two_detection() {
        assert_eq!(power_of_two(8), Some(3));
        assert_eq!(power_of_two(1), Some(0));
        assert_eq!(power_of_two(0), None);
        assert_eq!(power_of_two(-4), None);
        assert_eq!(power_of_two(6), None);
    }
}
