//! `-loop-unroll`: replicate loop bodies.
//!
//! Fully unrolls counted loops with a small constant trip count: the
//! single-block, bottom-tested loops whose block tests `i + step` against
//! a constant bound, with `i = φ(init, i + step)` and a constant `init`
//! ([`autophase_ir::loops::Loop::counted_exit`]). The trip count is
//! simulated, so any predicate counts. That is the shape `-loop-rotate`
//! produces, which is why the paper finds "-loop-unroll after
//! -loop-rotate was much more useful than the opposite order" (§4.2): a
//! top-tested loop is never unrolled.

use crate::util::{self, UserIndex};
use autophase_ir::loops::CountedExit;
use autophase_ir::{BlockId, FuncId, Inst, InstId, Module, Opcode, Rewrites, Type, Value};

/// Maximum trip count fully unrolled.
pub const UNROLL_TRIP_LIMIT: i64 = 32;
/// Maximum number of instructions in the loop body to unroll.
pub const UNROLL_SIZE_LIMIT: usize = 64;

/// Run the pass. Returns true if any loop was unrolled.
pub fn run(m: &mut Module) -> bool {
    run_with_limits(m, UNROLL_TRIP_LIMIT, UNROLL_SIZE_LIMIT)
}

fn run_with_limits(m: &mut Module, trip_limit: i64, size_limit: usize) -> bool {
    util::for_each_function(m, |m, fid| {
        run_with_limits_filtered(m, fid, trip_limit, size_limit, |_, _| true)
    })
}

/// Per-function unrolling restricted to loops whose single block satisfies
/// `filter` (used by `-loop-idiom` to expand only fill loops).
pub fn run_with_limits_filtered(
    m: &mut Module,
    fid: FuncId,
    trip_limit: i64,
    size_limit: usize,
    filter: impl Fn(&autophase_ir::Function, BlockId) -> bool,
) -> bool {
    let changed = unroll_all(m, fid, trip_limit, size_limit, &filter);
    if changed {
        util::delete_dead(m, fid);
        crate::simplifycfg::run_on_function(m, fid);
    }
    changed
}

/// Unroll every loop that qualifies, in the order and with the decisions
/// of a driver that re-analyses the function after each unroll and takes
/// the first qualifying loop of the fresh list.
///
/// An unroll replaces the loop's block by a straight-line one in the same
/// place, so the other loops, their order and their dominators stay as
/// the analysis has them; what it changes is read live. The one
/// exception is the predecessor list of the exit, which a loop headed
/// there reads (its entering block): the driver analyses again after
/// such an unroll, where the one-at-a-time driver did.
fn unroll_all(
    m: &mut Module,
    fid: FuncId,
    trip_limit: i64,
    size_limit: usize,
    filter: &impl Fn(&autophase_ir::Function, BlockId) -> bool,
) -> bool {
    let mut changed = false;
    'analyse: loop {
        let facts = m.facts(fid);
        let (cfg, loops) = (facts.cfg(), facts.loops());
        let mut is_header = vec![false; m.func(fid).block_capacity()];
        for l in loops {
            is_header[l.header.index()] = true;
        }
        for l in loops {
            let f = m.func(fid);
            let Some(cl) = l.counted_exit(f, cfg) else {
                continue;
            };
            let Some(trip) = cl.trip(trip_limit) else {
                continue;
            };
            if !filter(f, cl.block) {
                continue;
            }
            let body_size = f.block(cl.block).insts.len();
            if body_size > size_limit || body_size * trip.count as usize > 512 {
                continue;
            }
            // The use index is built, if the store lacks it, at the first
            // unroll, before anything is written.
            let users = facts.users();
            do_full_unroll(m.func_mut(fid), &cl, trip.count, users);
            changed = true;
            if is_header.get(cl.exit.index()).copied().unwrap_or(true) {
                continue 'analyse;
            }
        }
        return changed;
    }
}

/// [`run`] by the driver it reproduces: analyse, unroll the first loop
/// that qualifies, repeat. The differential reference of `unroll_all`.
#[cfg(test)]
pub(crate) fn run_one_at_a_time(m: &mut Module) -> bool {
    util::for_each_function(m, |m, fid| {
        let mut changed = false;
        'analyse: loop {
            let facts = m.facts(fid);
            let f = m.func(fid);
            for l in facts.loops() {
                let Some(cl) = l.counted_exit(f, facts.cfg()) else {
                    continue;
                };
                let Some(trip) = cl.trip(UNROLL_TRIP_LIMIT) else {
                    continue;
                };
                let body_size = f.block(cl.block).insts.len();
                if body_size > UNROLL_SIZE_LIMIT || body_size * trip.count as usize > 512 {
                    continue;
                }
                let users = facts.users();
                do_full_unroll(m.func_mut(fid), &cl, trip.count, users);
                changed = true;
                continue 'analyse;
            }
            break;
        }
        if changed {
            util::delete_dead(m, fid);
            crate::simplifycfg::run_on_function_one_at_a_time(m, fid);
        }
        changed
    })
}

/// Substitution for the values one loop block defines (its φs and body
/// instructions): a few slots, so cloning it per iteration is a short
/// `memcpy` and a lookup is two indexed loads.
#[derive(Clone)]
struct LoopValues<'a> {
    /// Slot of each loop-defined instruction, by instruction index.
    slot_of: &'a [Option<u32>],
    /// Current substitute of each slot (`None`: not mapped).
    at: Vec<Option<Value>>,
}

impl LoopValues<'_> {
    fn slot(&self, v: Value) -> Option<usize> {
        match v {
            Value::Inst(id) => self.slot_of.get(id.index()).copied().flatten(),
            _ => None,
        }
        .map(|s| s as usize)
    }

    /// The substitute of `v`, if it is a mapped loop value.
    fn get(&self, v: Value) -> Option<Value> {
        self.slot(v).and_then(|s| self.at[s])
    }

    fn set(&mut self, id: InstId, to: Value) {
        let s = self.slot(Value::Inst(id)).expect("a loop-defined value");
        self.at[s] = Some(to);
    }

    fn remap(&self, inst: &mut Inst) {
        inst.for_each_operand_mut(|v| {
            if let Some(nv) = self.get(*v) {
                *v = nv;
            }
        });
    }
}

/// Replace the single-block loop with `trip` copies of its body chained
/// straight-line, then a jump to the exit. `users` lists the users of the
/// loop's values (no write since it was built added one).
fn do_full_unroll(f: &mut autophase_ir::Function, cl: &CountedExit, trip: i64, users: &UserIndex) {
    let (block, preheader, exit) = (cl.block, cl.entering, cl.exit);
    let term = f.terminator(block).expect("loop block has terminator");

    let (phis, body): (Vec<InstId>, Vec<InstId>) = f
        .block(block)
        .insts
        .iter()
        .copied()
        .filter(|&i| i != term)
        .partition(|&i| f.inst(i).is_phi());
    let mut slot_of: Vec<Option<u32>> = vec![None; f.inst_capacity()];
    for (slot, id) in phis.iter().chain(&body).enumerate() {
        slot_of[id.index()] = Some(slot as u32);
    }

    // Current value of each φ (starts at init from preheader).
    let mut cur = LoopValues {
        slot_of: &slot_of,
        at: vec![None; phis.len() + body.len()],
    };
    let mut next_of: Vec<Option<Value>> = vec![None; phis.len()];
    for (k, &phi) in phis.iter().enumerate() {
        let Opcode::Phi { incoming } = &f.inst(phi).op else {
            unreachable!()
        };
        for (p, v) in incoming {
            if *p == preheader {
                cur.set(phi, *v);
            } else {
                next_of[k] = Some(*v);
            }
        }
    }

    // Emit trip copies into a fresh straight-line block. `at_latch_map`
    // holds each value as of the *end of the final iteration* (φs still at
    // their final-iteration values — what a latch→exit edge observes);
    // `carry_map` holds the φs advanced to the next iteration's values.
    let flat = f.add_block();
    let mut carry_map = cur.clone();
    let mut at_latch_map = cur;
    for _iter in 0..trip {
        let mut iter_map = carry_map;
        for &src in &body {
            let mut inst = f.inst(src).clone();
            iter_map.remap(&mut inst);
            let id = f.append_inst(flat, inst);
            iter_map.set(src, Value::Inst(id));
        }
        at_latch_map = iter_map.clone();
        // Advance φs (simultaneously: all reads use the pre-advance map).
        let advanced: Vec<Value> = phis
            .iter()
            .zip(&next_of)
            .map(|(&phi, next)| {
                let next = next.unwrap_or(Value::Undef(f.inst(phi).ty));
                iter_map.get(next).unwrap_or(next)
            })
            .collect();
        for (&phi, next_now) in phis.iter().zip(advanced) {
            iter_map.set(phi, next_now);
        }
        carry_map = iter_map;
    }
    let last_map = at_latch_map;
    f.append_inst(flat, Inst::new(Type::Void, Opcode::Br { target: exit }));

    // Rewire: preheader jumps to flat; exit φs and external uses read the
    // final values.
    f.redirect_branch(preheader, block, flat);
    // Exit φs: entry from `block` becomes entry from `flat` with the final
    // value of whatever it referenced.
    f.retarget_phis_with(exit, block, flat, |v| last_map.get(v).unwrap_or(v));
    // External (non-exit-φ) uses of loop values: substitute final values,
    // all in one sweep.
    let mut final_subst = Rewrites::new();
    for &phi in &phis {
        let last = last_map.get(Value::Inst(phi));
        final_subst.forward(phi, last.unwrap_or(Value::Undef(f.inst(phi).ty)));
    }
    for &src in &body {
        if !f.inst(src).ty.is_void() {
            if let Some(v) = last_map.get(Value::Inst(src)) {
                final_subst.forward(src, v);
            }
        }
    }
    // Remove the loop block first so in-loop uses don't get clobbered;
    // the rest of the users read the final values.
    f.remove_block(block);
    for &src in phis.iter().chain(&body) {
        for &(user, _) in users.users(src) {
            if f.inst_exists(user) {
                f.inst_mut(user)
                    .for_each_operand_mut(|v| *v = final_subst.resolve(*v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::{run_function, run_main};
    use autophase_ir::loops::analyze_loops;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::BinOp;

    /// Build a rotated (single-block, bottom-tested) loop summing i.
    fn rotated_sum(n: i32) -> Module {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(n), |b, i| {
            let c = b.load(Type::I32, acc);
            let s = b.binary(BinOp::Add, c, i);
            b.store(acc, s);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        // Rotate to single-block form first.
        crate::loop_rotate::run(&mut m);
        m
    }

    #[test]
    fn full_unroll_of_rotated_loop() {
        let mut m = rotated_sum(8);
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
        assert_eq!(before, Some(28));
        // No loops remain.
        let f = m.func(m.main().unwrap());
        let (_, _, loops) = analyze_loops(f);
        assert!(
            loops.is_empty(),
            "{}",
            autophase_ir::printer::print_module(&m)
        );
    }

    #[test]
    fn unrolled_loop_runs_fewer_dynamic_branches() {
        let mut m = rotated_sum(16);
        let before = run_main(&m, 100_000).unwrap();
        assert!(run(&mut m));
        let after = run_main(&m, 100_000).unwrap();
        assert!(after.blocks_entered() < before.blocks_entered());
    }

    #[test]
    fn big_trip_count_not_unrolled() {
        let mut m = rotated_sum(1000);
        assert!(!run(&mut m));
    }

    #[test]
    fn unrotated_loop_not_unrolled_but_rotate_enables_it() {
        // This is the paper's ordering interaction in miniature.
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(6), |b, i| {
            let c = b.load(Type::I32, acc);
            let s = b.binary(BinOp::Add, c, i);
            b.store(acc, s);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        // Top-tested two-block loop: unroll refuses.
        assert!(!run(&mut m));
        // After rotation it unrolls.
        assert!(crate::loop_rotate::run(&mut m));
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().return_value, Some(15));
    }

    #[test]
    fn induction_value_used_after_loop_gets_final_value() {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let mut iv = Value::i32(0);
        b.counted_loop(Value::i32(5), |_b, i| {
            iv = i;
        });
        let r = b.binary(BinOp::Mul, iv, Value::i32(10));
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        let before = run_main(&m, 100_000).unwrap().observable();
        run(&mut m);
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
    }

    #[test]
    fn memory_effects_replicated_in_order() {
        // Writes to distinct slots must all survive with correct values.
        let mut m = Module::new("t");
        let g = m.add_global(autophase_ir::Global::zeroed("out", Type::I32, 8));
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        b.counted_loop(Value::i32(8), |b, i| {
            let p = b.gep(Value::Global(g), i);
            let v = b.binary(BinOp::Mul, i, i);
            b.store(p, v);
        });
        // checksum the slots into the return value
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(Value::i32(8), |b, i| {
            let p = b.gep(Value::Global(g), i);
            let v = b.load(Type::I32, p);
            let c = b.load(Type::I32, acc);
            let x = b.binary(BinOp::Xor, c, v);
            let s = b.binary(BinOp::Shl, x, Value::i32(1));
            b.store(acc, s);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        let before = run_main(&m, 100_000).unwrap().observable();
        assert!(run(&mut m));
        assert_verified(&m);
        assert_eq!(run_main(&m, 100_000).unwrap().observable(), before);
    }

    #[test]
    fn run_function_arg_bound_not_unrolled() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let acc = b.alloca(Type::I32, 1);
        b.store(acc, Value::i32(0));
        b.counted_loop(b.arg(0), |b, i| {
            let c = b.load(Type::I32, acc);
            let s = b.binary(BinOp::Add, c, i);
            b.store(acc, s);
        });
        let r = b.load(Type::I32, acc);
        b.ret(Some(r));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        crate::loop_rotate::run(&mut m);
        assert!(!run(&mut m));
        let r = run_function(&m, m.main().unwrap(), &[4], 100_000).unwrap();
        assert_eq!(r.return_value, Some(6));
    }
}
