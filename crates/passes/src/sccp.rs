//! `-sccp`: sparse conditional constant propagation.
//!
//! Lattice-based (⊤ unknown / constant / ⊥ varying) propagation that tracks
//! block executability: instructions in blocks proven unreachable are never
//! evaluated, and φ-nodes only merge over executable edges — so constants
//! survive through branches that constant conditions rule out. Afterwards,
//! proven-constant results are substituted and branches on proven constants
//! are folded.

use crate::util;
use autophase_ir::fold;
use autophase_ir::{BlockId, FuncId, Function, InstId, Module, Opcode, Rewrites, Type, Value};
use std::collections::{HashMap, VecDeque};

/// Lattice value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lat {
    /// Not yet known (optimistic top).
    Unknown,
    /// Proven constant.
    Const(Type, i64),
    /// Proven varying (bottom).
    Varying,
}

impl Lat {
    fn meet(self, other: Lat) -> Lat {
        match (self, other) {
            (Lat::Unknown, x) | (x, Lat::Unknown) => x,
            (Lat::Const(t1, a), Lat::Const(_, b)) if a == b => Lat::Const(t1, a),
            _ => Lat::Varying,
        }
    }
}

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, sccp_function)
}

pub(crate) fn sccp_function(m: &mut Module, fid: FuncId) -> bool {
    let solution = solve(m, fid, &HashMap::new());
    apply_solution(m, fid, &solution)
}

pub(crate) struct Solution {
    /// Proven-constant instruction results.
    consts: Vec<(InstId, Type, i64)>,
    /// Executability of each block, by [`BlockId::index`].
    executable: Vec<bool>,
}

impl Solution {
    /// Blocks of `f` the solver proved unreachable (folded away when the
    /// solution is applied).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn unreachable_blocks(&self, f: &Function) -> usize {
        f.block_ids()
            .filter(|bb| !self.executable[bb.index()])
            .count()
    }
}

/// Solve the SCCP dataflow for one function. `arg_consts` optionally pins
/// argument lattice values (used by `-ipsccp`).
pub(crate) fn solve(m: &Module, fid: FuncId, arg_consts: &HashMap<u32, i64>) -> Solution {
    let facts = m.facts(fid);
    let f = m.func(fid);
    // Dense state, indexed by instruction / block index. Work items carry
    // their block, and the reverse-use index hands out users with theirs,
    // so every worklist step is O(1).
    let index = facts.users();
    let mut lat: Vec<Lat> = vec![Lat::Unknown; f.inst_capacity()];
    let mut exec_blocks = vec![false; f.block_capacity()];
    // Executable in-edges of each block, as predecessor lists.
    let mut exec_preds: Vec<Vec<BlockId>> = vec![Vec::new(); f.block_capacity()];
    let mut block_q: VecDeque<BlockId> = VecDeque::new();
    let mut inst_q: VecDeque<(InstId, BlockId)> = VecDeque::new();

    let value_lat = |lat: &[Lat], v: Value| -> Lat {
        match v {
            Value::ConstInt(t, c) => Lat::Const(t, c),
            Value::Undef(t) => Lat::Const(t, 0),
            Value::Global(_) => Lat::Varying,
            Value::Arg(i) => match arg_consts.get(&i) {
                Some(&c) => Lat::Const(f.params.get(i as usize).copied().unwrap_or(Type::I64), c),
                None => Lat::Varying,
            },
            Value::Inst(id) => lat[id.index()],
        }
    };

    block_q.push_back(f.entry);
    exec_blocks[f.entry.index()] = true;

    let eval_inst = |lat: &[Lat], exec_preds: &[Vec<BlockId>], bb: BlockId, iid: InstId| -> Lat {
        let inst = f.inst(iid);
        match &inst.op {
            Opcode::Binary(op, a, b) => match (value_lat(lat, *a), value_lat(lat, *b)) {
                (Lat::Const(_, x), Lat::Const(_, y)) => {
                    Lat::Const(inst.ty, fold::eval_binop(*op, inst.ty, x, y))
                }
                (Lat::Varying, _) | (_, Lat::Varying) => Lat::Varying,
                _ => Lat::Unknown,
            },
            Opcode::ICmp(p, a, b) => {
                let ty = f.type_of(*a);
                match (value_lat(lat, *a), value_lat(lat, *b)) {
                    (Lat::Const(_, x), Lat::Const(_, y)) => {
                        Lat::Const(Type::I1, fold::eval_icmp(*p, ty, x, y))
                    }
                    (Lat::Varying, _) | (_, Lat::Varying) => Lat::Varying,
                    _ => Lat::Unknown,
                }
            }
            Opcode::Cast(op, v) => {
                let from = f.type_of(*v);
                match value_lat(lat, *v) {
                    Lat::Const(_, x) if inst.ty.is_int() && from.is_int() => {
                        Lat::Const(inst.ty, fold::eval_cast(*op, from, inst.ty, x))
                    }
                    Lat::Const(..) => Lat::Varying,
                    x => x,
                }
            }
            Opcode::Select { cond, tval, fval } => match value_lat(lat, *cond) {
                Lat::Const(_, c) => value_lat(lat, if c != 0 { *tval } else { *fval }),
                Lat::Varying => value_lat(lat, *tval).meet(value_lat(lat, *fval)),
                Lat::Unknown => Lat::Unknown,
            },
            Opcode::Phi { incoming } => {
                let mut acc = Lat::Unknown;
                for (pred, v) in incoming {
                    if exec_preds[bb.index()].contains(pred) {
                        acc = acc.meet(value_lat(lat, *v));
                    }
                }
                acc
            }
            _ => Lat::Varying,
        }
    };

    // Fixpoint.
    while !block_q.is_empty() || !inst_q.is_empty() {
        while let Some(bb) = block_q.pop_front() {
            inst_q.extend(f.block(bb).insts.iter().map(|&iid| (iid, bb)));
        }
        while let Some((iid, bb)) = inst_q.pop_front() {
            if !exec_blocks[bb.index()] {
                continue;
            }
            let inst = f.inst(iid);
            if inst.is_terminator() {
                // Determine executable out-edges.
                let succs: Vec<BlockId> = match &inst.op {
                    Opcode::Br { target } => vec![*target],
                    Opcode::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => match value_lat(&lat, *cond) {
                        Lat::Const(_, c) => vec![if c != 0 { *then_bb } else { *else_bb }],
                        Lat::Varying => vec![*then_bb, *else_bb],
                        Lat::Unknown => vec![],
                    },
                    Opcode::Switch {
                        value,
                        default,
                        cases,
                    } => match value_lat(&lat, *value) {
                        Lat::Const(_, c) => vec![cases
                            .iter()
                            .find(|(k, _)| *k == c)
                            .map(|(_, b)| *b)
                            .unwrap_or(*default)],
                        Lat::Varying => {
                            let mut v: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                            v.push(*default);
                            v
                        }
                        Lat::Unknown => vec![],
                    },
                    _ => vec![],
                };
                for s in succs {
                    let new_edge = !exec_preds[s.index()].contains(&bb);
                    if new_edge {
                        exec_preds[s.index()].push(bb);
                    }
                    if !exec_blocks[s.index()] {
                        exec_blocks[s.index()] = true;
                        block_q.push_back(s);
                    } else if new_edge {
                        // φs in s must re-merge over the new edge.
                        for &pid in &f.block(s).insts {
                            if f.inst(pid).is_phi() {
                                inst_q.push_back((pid, s));
                            }
                        }
                    }
                }
                continue;
            }
            if inst.ty.is_void() {
                continue;
            }
            let new = eval_inst(&lat, &exec_preds, bb, iid);
            let old = lat[iid.index()];
            // Monotonic update only.
            let merged = old.meet(new);
            if merged != old {
                lat[iid.index()] = merged;
                // Re-evaluate users (and terminators that branch on it).
                inst_q.extend(index.users(iid));
            }
        }
    }

    let consts = lat
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match *l {
            Lat::Const(t, c) => Some((InstId::from_index(i), t, c)),
            _ => None,
        })
        .collect();
    Solution {
        consts,
        executable: exec_blocks,
    }
}

pub(crate) fn apply_solution(m: &mut Module, fid: FuncId, sol: &Solution) -> bool {
    // Substitute proven constants. The instructions stay in place (their
    // presence still shapes what simplifycfg does next); once unused they
    // fall to delete_dead.
    let mut rw = Rewrites::new();
    for &(iid, ty, c) in &sol.consts {
        rw.forward(iid, Value::ConstInt(ty, c));
    }
    let mut changed = rw.has_forwards() && m.func_mut(fid).apply_rewrites(&rw) > 0;
    // Fold branches whose condition is now a constant, so unreachable
    // regions actually disappear (simplifycfg finishes the cleanup).
    changed |= crate::simplifycfg::run_on_function(m, fid);
    changed |= util::delete_dead(m, fid) > 0;
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_main;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, CmpPred};

    fn module_with(f: autophase_ir::Function) -> Module {
        let mut m = Module::new("t");
        m.add_function(f);
        m
    }

    #[test]
    fn propagates_through_dead_branch() {
        // x = 1; if (false) x = 2; return x + 1  →  return 2
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let t = b.new_block();
        let j = b.new_block();
        b.cond_br(Value::FALSE, t, j);
        b.switch_to(t);
        b.br(j);
        b.switch_to(j);
        let x = b.phi(
            Type::I32,
            vec![(b.entry_block(), Value::i32(1)), (t, Value::i32(2))],
        );
        let r = b.binary(BinOp::Add, x, Value::i32(1));
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(2));
        // The φ merged only over the executable edge: result folded to 2.
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 1);
    }

    #[test]
    fn plain_constant_chain_folds() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let x = b.binary(BinOp::Add, Value::i32(4), Value::i32(5));
        let c = b.icmp(CmpPred::Sgt, x, Value::i32(3));
        let s = b.select(c, x, Value::i32(0));
        b.ret(Some(s));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(9));
        assert_eq!(m.func(m.main().unwrap()).num_insts(), 1);
    }

    #[test]
    fn varying_inputs_untouched() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(5));
        b.ret(Some(x));
        let mut m = module_with(b.finish());
        assert!(!run(&mut m));
    }

    #[test]
    fn phi_of_equal_constants_over_live_edges() {
        // Both live edges feed 7 → φ is 7 even though branch is varying.
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
        let p = b.phi(Type::I32, vec![(t, Value::i32(7)), (e, Value::i32(7))]);
        let r = b.binary(BinOp::Mul, p, Value::i32(2));
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(14));
    }

    #[test]
    fn constant_loop_bound_dead_loop() {
        // for i in 0..0 — loop never executes; body constants fold away.
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(5));
        b.counted_loop(Value::i32(0), |b, _| {
            b.store(acc, Value::i32(99));
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = module_with(b.finish());
        let before = run_main(&m, 1000).unwrap().observable();
        run(&mut m);
        assert_verified(&m);
        assert_eq!(run_main(&m, 1000).unwrap().observable(), before);
    }

    #[test]
    fn solver_reports_unreachable_blocks() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let t = b.new_block();
        let e = b.new_block();
        b.cond_br(Value::FALSE, t, e);
        b.switch_to(t);
        b.ret(Some(Value::i32(1)));
        b.switch_to(e);
        b.ret(Some(Value::i32(2)));
        let mut m = module_with(b.finish());
        let fid = m.main().unwrap();
        let sol = solve(&m, fid, &std::collections::HashMap::new());
        assert_eq!(sol.unreachable_blocks(m.func(fid)), 1);
        apply_solution(&mut m, fid, &sol);
        assert_verified(&m);
    }

    #[test]
    fn switch_on_constant_prunes() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let c1 = b.new_block();
        let c2 = b.new_block();
        let d = b.new_block();
        b.switch(Value::i32(1), d, vec![(1, c1), (2, c2)]);
        b.switch_to(c1);
        b.ret(Some(Value::i32(100)));
        b.switch_to(c2);
        b.ret(Some(Value::i32(200)));
        b.switch_to(d);
        b.ret(Some(Value::i32(300)));
        let mut m = module_with(b.finish());
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100).unwrap().return_value, Some(100));
        assert_eq!(m.func(m.main().unwrap()).num_blocks(), 1);
    }
}
