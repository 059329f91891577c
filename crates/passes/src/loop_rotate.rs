//! `-loop-rotate`: turn while-loops into do-while loops.
//!
//! For a loop whose header tests the exit condition at the top (the shape a
//! C `for`/`while` compiles to), the header's computations are duplicated
//! into the preheader (guarding loop entry) and into the latch (testing
//! continuation at the bottom). The rotated loop executes one block per
//! iteration instead of two — in the HLS backend that directly removes FSM
//! states from every iteration, which is why the paper's random forests
//! single this pass out (§4, Figure 6: "point (23,23) has the highest
//! importance").

use crate::util;
use autophase_ir::cfg::Cfg;
use autophase_ir::csr::Csr;
use autophase_ir::facts::Facts;
use autophase_ir::loops::Loop;
use autophase_ir::{BlockId, FuncId, Function, InstId, Module, Opcode, Value};
use std::collections::HashMap;

/// Upper bound on header instructions cloned into preheader and latch.
pub const ROTATE_HEADER_LIMIT: usize = 16;

/// Run the pass. Returns true if any loop was rotated.
pub fn run(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let changed = rotate_all(m, fid);
        if changed {
            // The old header's test is dead and the header now falls
            // through to the body; cleanup merges them so the rotated loop
            // really executes one block per iteration (LLVM's rotate runs
            // the same simplification).
            util::delete_dead(m, fid);
            crate::simplifycfg::run_on_function(m, fid);
        }
        changed
    })
}

/// True if the loop is already bottom-tested (latch exits the loop).
fn is_rotated(l: &Loop, f: &Function) -> bool {
    l.single_latch()
        .map(|latch| f.successors(latch).iter().any(|s| !l.contains(*s)))
        .unwrap_or(false)
}

/// A loop that rotates: its preheader and latch, the header's in-loop and
/// exit targets, and the header's terminator.
struct Candidate {
    preheader: BlockId,
    latch: BlockId,
    body_entry: BlockId,
    exit: BlockId,
    term: InstId,
}

/// Rotate every loop of the function that can be, in the order and with
/// the decisions of a driver that re-analyses the function after each
/// rotation and takes the first candidate of the fresh loop list.
///
/// One analysis serves rotation after rotation as long as it provably
/// reads the same as the fresh one would (see [`Reads`]); otherwise the
/// driver analyses the function again, exactly where the one-at-a-time
/// driver did.
fn rotate_all(m: &mut Module, fid: FuncId) -> bool {
    let mut changed = false;
    'analyse: loop {
        let facts = m.facts(fid);
        let (cfg, loops) = (facts.cfg(), facts.loops());
        // Built at the first rotation, before it writes the function.
        let mut reads: Option<Reads> = None;
        for (k, l) in loops.iter().enumerate() {
            let f = m.func(fid);
            let Some(c) = candidate(m, f, cfg, &facts, l) else {
                continue;
            };
            let reads = reads.get_or_insert_with(|| Reads::new(f, cfg, loops));
            let f = m.func_mut(fid);
            do_rotate(
                f,
                l,
                facts.users(),
                c.preheader,
                c.latch,
                c.body_entry,
                c.exit,
                c.term,
            );
            changed = true;
            // The fresh loop list orders the rest as this one does unless
            // the rotated loop has another exit or holds another loop
            // (the depth-first walk then meets the exit and the body in
            // the other order).
            let reorders =
                l.exits.len() != 1 || loops[k + 1..].iter().any(|o| l.contains(o.header));
            if reorders || reads.stale_after(f, k, l.header, &c) {
                continue 'analyse;
            }
        }
        return changed;
    }
}

/// [`run`] by the driver it reproduces: analyse, rotate the first
/// candidate, repeat. The differential reference of `rotate_all`.
#[cfg(test)]
pub(crate) fn run_one_at_a_time(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = false;
        loop {
            let facts = m.facts(fid);
            let f = m.func(fid);
            let found = facts.loops().iter().find_map(|l| {
                let c = candidate(m, f, facts.cfg(), &facts, l)?;
                Some((l, c))
            });
            let Some((l, c)) = found else {
                break;
            };
            let f = m.func_mut(fid);
            do_rotate(
                f,
                l,
                facts.users(),
                c.preheader,
                c.latch,
                c.body_entry,
                c.exit,
                c.term,
            );
            changed = true;
        }
        if changed {
            util::delete_dead(m, fid);
            crate::simplifycfg::run_on_function_one_at_a_time(m, fid);
        }
        changed
    })
}

/// `l` if it rotates, read from the live function `f` and the analysis of
/// the version `cfg` and `facts` describe.
fn candidate(m: &Module, f: &Function, cfg: &Cfg, facts: &Facts, l: &Loop) -> Option<Candidate> {
    let preheader = l.preheader(cfg)?;
    let latch = l.single_latch()?;
    if is_rotated(l, f) {
        return None;
    }
    // Header must end in a condbr with exactly one in-loop and one
    // out-of-loop target.
    let term = f.terminator(l.header)?;
    let Opcode::CondBr {
        cond: _,
        then_bb,
        else_bb,
    } = f.inst(term).op
    else {
        return None;
    };
    let (body_entry, exit) = match (l.contains(then_bb), l.contains(else_bb)) {
        (true, false) => (then_bb, else_bb),
        (false, true) => (else_bb, then_bb),
        _ => return None,
    };
    if body_entry == l.header || l.header == latch {
        return None; // self-loop or irregular shape
    }
    // The latch must branch unconditionally to the header.
    let latch_term = f.terminator(latch)?;
    if !matches!(f.inst(latch_term).op, Opcode::Br { .. }) {
        return None;
    }
    // The exit must be dedicated (preds only from the loop) so its φs
    // only see loop edges — guaranteed after -loop-simplify.
    if !l.is_dedicated_exit(cfg, exit) {
        return None;
    }
    // Header non-φ instructions must be clonable: pure or loads, few.
    let header_insts = &f.block(l.header).insts;
    let mut non_phi = header_insts
        .iter()
        .filter(|&&i| !f.inst(i).is_phi() && i != term);
    if non_phi.clone().count() > ROTATE_HEADER_LIMIT {
        return None;
    }
    let clonable = non_phi.all(|&i| {
        let inst = f.inst(i);
        util::is_pure(m, inst) && !matches!(inst.op, Opcode::Alloca { .. })
    });
    if !clonable {
        return None;
    }
    // Values defined in the header (φs or computations) that are used
    // outside the loop would need LCSSA-style repair; require that all
    // external uses sit in the (dedicated) exit block as φs or plain
    // uses we can rewire. Only a loop that passes every cheaper test
    // needs the reverse-use index; an already rotated function never
    // builds it.
    let index = facts.users();
    let external_ok = header_insts.iter().all(|&d| {
        index
            .users(d)
            .iter()
            .all(|&(_, ubb)| l.contains(ubb) || ubb == exit)
    });
    external_ok.then_some(Candidate {
        preheader,
        latch,
        body_entry,
        exit,
        term,
    })
}

/// What each loop's [`candidate`] test reads beyond the live function:
/// for every block, the loops that read its successors (a preheader, a
/// latch's or header's terminator), its predecessors (a header's, an
/// exit's) or its instructions and their users (a header's, a latch's).
///
/// A rotation changes the successors of the preheader, header and latch,
/// the predecessors of the exit, and the instructions of all four plus
/// the users of the values its new instructions read. It leaves every
/// loop's blocks, latches and dominance as they were (it only shortcuts
/// paths through the rotated header), so a loop that reads none of what
/// changed decides as it would on a fresh analysis.
struct Reads {
    /// `(loop, SUCCS | PREDS | INSTS)` per block.
    by_block: Csr<(u32, u8)>,
    /// Block of each instruction the analysis saw (`u32::MAX`: none).
    def_block: Vec<u32>,
}

const SUCCS: u8 = 1;
const PREDS: u8 = 2;
const INSTS: u8 = 4;

impl Reads {
    fn new(f: &Function, cfg: &Cfg, loops: &[Loop]) -> Reads {
        let mut pairs: Vec<(usize, (u32, u8))> = Vec::new();
        for (j, l) in loops.iter().enumerate() {
            let j = j as u32;
            pairs.push((l.header.index(), (j, SUCCS | PREDS | INSTS)));
            pairs.extend(l.latches.iter().map(|b| (b.index(), (j, SUCCS | INSTS))));
            if let Some(p) = l.preheader(cfg) {
                pairs.push((p.index(), (j, SUCCS)));
            }
            let exits = f
                .terminator(l.header)
                .map_or(vec![], |t| f.inst(t).successors());
            pairs.extend(
                exits
                    .into_iter()
                    .filter(|&e| !l.contains(e))
                    .map(|e| (e.index(), (j, PREDS))),
            );
        }
        let mut def_block = vec![u32::MAX; f.inst_capacity()];
        for bb in f.block_ids() {
            for &i in &f.block(bb).insts {
                def_block[i.index()] = bb.index() as u32;
            }
        }
        Reads {
            by_block: Csr::build(f.block_capacity(), pairs.iter().copied()),
            def_block,
        }
    }

    /// True if the rotation `c` of loop `k` (headed by `header`), just
    /// done on `f`, changed something another loop reads.
    fn stale_after(&self, f: &Function, k: usize, header: BlockId, c: &Candidate) -> bool {
        let touched = |b: BlockId, what: u8| {
            self.by_block
                .get(b.index())
                .iter()
                .any(|&(j, reads)| j as usize != k && reads & what != 0)
        };
        if [c.preheader, header, c.latch]
            .into_iter()
            .any(|b| touched(b, SUCCS | INSTS))
            || touched(c.exit, PREDS | INSTS)
        {
            return true;
        }
        // Values the new instructions (the clones, the two new branches
        // and the exit's φs) read gained users.
        let seen = self.def_block.len();
        let read_by_new = [c.preheader, c.latch]
            .into_iter()
            .flat_map(|b| {
                let insts = &f.block(b).insts;
                let term = insts.last().copied();
                insts
                    .iter()
                    .filter(move |&&i| i.index() >= seen || Some(i) == term)
            })
            .chain(
                f.block(c.exit)
                    .insts
                    .iter()
                    .take_while(|&&i| f.inst(i).is_phi()),
            );
        let mut stale = false;
        for &i in read_by_new {
            f.inst(i).for_each_operand(|v| {
                if let Value::Inst(d) = v {
                    if let Some(&b) = self.def_block.get(d.index()) {
                        stale |= b != u32::MAX && touched(BlockId::from_index(b as usize), INSTS);
                    }
                }
            });
        }
        stale
    }
}

#[allow(clippy::too_many_arguments)]
fn do_rotate(
    f: &mut autophase_ir::Function,
    l: &Loop,
    index: &util::UserIndex,
    preheader: BlockId,
    latch: BlockId,
    body_entry: BlockId,
    exit: BlockId,
    header_term: InstId,
) {
    let header = l.header;
    let header_insts: Vec<InstId> = f.block(header).insts.clone();
    let phis = f.phis(header);
    let computed: Vec<InstId> = header_insts
        .iter()
        .copied()
        .filter(|&i| !f.inst(i).is_phi() && i != header_term)
        .collect();

    // Initial and next values of each φ.
    let mut init_map: HashMap<Value, Value> = HashMap::new();
    let mut next_map: HashMap<Value, Value> = HashMap::new();
    for &phi in &phis {
        let Opcode::Phi { incoming } = &f.inst(phi).op else {
            unreachable!()
        };
        for (p, v) in incoming {
            if *p == preheader {
                init_map.insert(Value::Inst(phi), *v);
            } else if *p == latch {
                next_map.insert(Value::Inst(phi), *v);
            }
        }
    }

    // Clone the header computations into the preheader (with init values)
    // and into the latch (with next values). The clones are inserted before
    // each block's terminator.
    let clone_into = |f: &mut autophase_ir::Function,
                      target: BlockId,
                      map: &HashMap<Value, Value>|
     -> HashMap<Value, Value> {
        let mut vmap = map.clone();
        let before_term = f.block(target).insts.len().saturating_sub(1);
        for (i, &src) in computed.iter().enumerate() {
            let mut inst = f.inst(src).clone();
            util::remap_operands(&mut inst, &vmap);
            let id = f.insert_inst(target, before_term + i, inst);
            vmap.insert(Value::Inst(src), Value::Inst(id));
        }
        vmap
    };
    let pre_map = clone_into(f, preheader, &init_map);
    let latch_map = clone_into(f, latch, &next_map);

    // Both new tests keep the header's polarity: the arm that entered the
    // body now enters the loop, and the other one still leaves it.
    let (cond, then_bb, else_bb) = match f.inst(header_term).op {
        Opcode::CondBr { cond, then_bb, .. } if then_bb == body_entry => (cond, header, exit),
        Opcode::CondBr { cond, .. } => (cond, exit, header),
        _ => unreachable!("checked condbr"),
    };
    let pre_cond = *pre_map.get(&cond).unwrap_or(&cond);
    let latch_cond = *latch_map.get(&cond).unwrap_or(&cond);

    // Preheader: guard — enter the loop (header) or go to exit.
    f.set_branch(
        preheader,
        Opcode::CondBr {
            cond: pre_cond,
            then_bb,
            else_bb,
        },
    );

    // Latch: bottom test — back to header or out to exit.
    f.set_branch(
        latch,
        Opcode::CondBr {
            cond: latch_cond,
            then_bb,
            else_bb,
        },
    );

    // The value `v` an exit φ received from the header edge becomes, after
    // rotation:
    //  * on the guard-fail (preheader) edge: v at the would-be first header
    //    entry — a φ's raw init value, or the preheader clone of a
    //    computation;
    //  * on the latch edge: v at the would-be next header entry — a φ's raw
    //    next value, which is already valid at the latch (remapping it again
    //    through the latch clone map would skip an iteration in φ-of-φ
    //    shift-register chains like sha's `e=d; d=c; …`), or the latch
    //    clone of a computation.
    let is_header_phi = |v: Value| matches!(v, Value::Inst(id) if phis.contains(&id));
    let edge_values = |v: Value| -> (Value, Value) {
        if is_header_phi(v) {
            (
                *init_map.get(&v).unwrap_or(&v),
                *next_map.get(&v).unwrap_or(&v),
            )
        } else {
            (
                *pre_map.get(&v).unwrap_or(&v),
                *latch_map.get(&v).unwrap_or(&v),
            )
        }
    };

    // Exit φs: entries from header now come from preheader and latch.
    f.move_phi_edges(exit, &[header], &[preheader, latch], |_, p, v| {
        let (pre_v, latch_v) = edge_values(v);
        if p == preheader {
            pre_v
        } else {
            latch_v
        }
    });
    // Header: now falls through to the body unconditionally; its cloned
    // computations stay (the φs feed body uses), its terminator simplifies.
    // Its exit entries moved above, so the fold drops none.
    f.set_branch(header, Opcode::Br { target: body_entry });
    // Non-φ uses in the exit of header-defined values are now wrong (the
    // header may not dominate the exit anymore — it does not, since both
    // preheader and latch jump there). Wrap them in φs.
    for &d in header_insts.iter() {
        if !f.inst_exists(d) || f.inst(d).ty.is_void() {
            continue;
        }
        let dv = Value::Inst(d);
        // `index` predates the rotation, but nothing above added or moved
        // a non-φ use of a header value in the exit block.
        let ext_users: Vec<InstId> = index
            .users(d)
            .iter()
            .filter(|&&(u, ubb)| ubb == exit && !f.inst(u).is_phi())
            .map(|&(u, _)| u)
            .collect();
        if ext_users.is_empty() {
            continue;
        }
        let (pre_v, latch_v) = edge_values(dv);
        let ty = f.inst(d).ty;
        let phi = f.insert_inst(
            exit,
            0,
            autophase_ir::Inst::new(
                ty,
                Opcode::Phi {
                    incoming: vec![(preheader, pre_v), (latch, latch_v)],
                },
            ),
        );
        for u in ext_users {
            f.inst_mut(u).replace_uses(dv, Value::Inst(phi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::loops::analyze_loops;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::{BinOp, Type};

    fn sum_loop() -> Module {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let c = b.load(Type::I32, acc);
            let n = b.binary(BinOp::Add, c, i);
            b.store(acc, n);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        m
    }

    #[test]
    fn while_loop_becomes_do_while() {
        let mut m = sum_loop();
        let fid = m.main().unwrap();
        let before: Vec<_> = [0, 1, 7]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert!(run(&mut m));
        assert_verified(&m);
        let after: Vec<_> = [0, 1, 7]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
        // The loop is now bottom-tested.
        let f = m.func(fid);
        let (_, _, loops) = analyze_loops(f);
        assert_eq!(loops.len(), 1);
        assert!(is_rotated(&loops[0], f));
    }

    #[test]
    fn rotation_reduces_block_executions() {
        let mut m = sum_loop();
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[100], 1_000_000).unwrap();
        let blocks_before = before.blocks_entered();
        assert!(run(&mut m));
        let after = run_function(&m, fid, &[100], 1_000_000).unwrap();
        let blocks_after = after.blocks_entered();
        assert!(
            blocks_after < blocks_before,
            "rotated loop should enter fewer blocks: {blocks_after} vs {blocks_before}"
        );
    }

    #[test]
    fn zero_trip_loop_still_correct() {
        let mut m = sum_loop();
        let fid = m.main().unwrap();
        assert!(run(&mut m));
        assert_eq!(
            run_function(&m, fid, &[0], 1000).unwrap().return_value,
            Some(0)
        );
        assert_eq!(
            run_function(&m, fid, &[-5], 1000).unwrap().return_value,
            Some(0)
        );
    }

    #[test]
    fn induction_value_used_after_loop() {
        // return i after loop: exit φ repair path.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let mut iv = Value::i32(0);
        b.counted_loop(b.arg(0), |_b, i| {
            iv = i;
        });
        let r = b.binary(BinOp::Add, iv, Value::i32(1000));
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before: Vec<_> = [0, 3, 9]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        let rotated = run(&mut m);
        assert_verified(&m);
        let after: Vec<_> = [0, 3, 9]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert_eq!(before, after, "rotated={rotated}");
    }

    /// A header that leaves the loop on `true` and enters the body on
    /// `false` (what `-tailcallelim` makes of `sum`'s recursion) keeps that
    /// polarity in the guard and the bottom test.
    #[test]
    fn a_header_that_exits_on_true_keeps_its_polarity() {
        let text = "; module t

; f0
define i32 @sum(i32 %arg0, i32 %arg1) {
b0:
  br b3
b1:
  ret %9
b2:
  %1 = i32 sub %8, i32 1
  %2 = i32 add %9, %8
  br b3
b3:
  %8 = i32 phi [%arg0, b0], [%1, b2]
  %9 = i32 phi [%arg1, b0], [%2, b2]
  %0 = i1 icmp eq %8, i32 0
  br %0, b1, b2
}
";
        let mut m = autophase_ir::parser::parse_module(text).unwrap();
        let fid = m.func_by_name("sum").unwrap();
        let sums = |m: &Module| -> Vec<_> {
            [0, 1, 5, 30]
                .iter()
                .map(|&n| run_function(m, fid, &[n, 7], 100_000).unwrap().return_value)
                .collect()
        };
        assert_eq!(sums(&m), [Some(7), Some(8), Some(22), Some(472)]);
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(sums(&m), [Some(7), Some(8), Some(22), Some(472)]);
        let f = m.func(fid);
        let (_, _, loops) = analyze_loops(f);
        assert_eq!(loops.len(), 1);
        assert!(is_rotated(&loops[0], f));
    }

    #[test]
    fn already_rotated_loop_untouched() {
        let mut m = sum_loop();
        assert!(run(&mut m));
        // Second application is a no-op.
        assert!(!run(&mut m));
    }

    #[test]
    fn nested_loops_rotate() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            b.counted_loop(b.arg(0), |b, j| {
                let c = b.load(Type::I32, acc);
                let p = b.binary(BinOp::Mul, i, j);
                let n = b.binary(BinOp::Add, c, p);
                b.store(acc, n);
            });
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before = run_function(&m, fid, &[6], 1_000_000).unwrap().return_value;
        assert!(run(&mut m));
        assert_verified(&m);
        let after = run_function(&m, fid, &[6], 1_000_000).unwrap().return_value;
        assert_eq!(before, after);
        let f = m.func(fid);
        let (_, _, loops) = analyze_loops(f);
        assert_eq!(loops.len(), 2);
        for l in &loops {
            assert!(is_rotated(l, f));
        }
    }
}
