//! `-loop-simplify`: canonicalize natural loops.
//!
//! Ensures every loop has a dedicated preheader (single outside
//! predecessor of the header whose only successor is the header), a single
//! latch (multiple back edges merged through a fresh block), and dedicated
//! exits (exit blocks whose predecessors are all inside the loop). This is
//! the form `-licm`, `-loop-rotate`, and `-loop-unroll` want.

use autophase_ir::cfg::Cfg;
use autophase_ir::loops::Loop;
use autophase_ir::{BlockId, Inst, InstId, Module, Opcode, Type};

/// Run the pass. Returns true if anything changed.
pub fn run(m: &mut Module) -> bool {
    crate::util::for_each_function(m, |m, fid| {
        let mut changed = false;
        // Each structural fix invalidates the analysis; iterate.
        loop {
            let facts = m.facts(fid);
            let (cfg, loops) = (facts.cfg(), facts.loops());
            let mut fixed_something = false;
            for l in loops {
                if l.preheader(cfg).is_none() {
                    insert_preheader(m.func_mut(fid), cfg, l);
                    fixed_something = true;
                    break;
                }
                if l.single_latch().is_none() {
                    merge_latches(m.func_mut(fid), l);
                    fixed_something = true;
                    break;
                }
                if let Some(&exit) = l.exits.iter().find(|&&e| !l.is_dedicated_exit(cfg, e)) {
                    dedicate_exit(m.func_mut(fid), cfg, l, exit);
                    fixed_something = true;
                    break;
                }
            }
            if !fixed_something {
                break;
            }
            changed = true;
        }
        changed
    })
}

/// Insert a preheader: outside predecessors of the header are rerouted
/// through a fresh block.
fn insert_preheader(f: &mut autophase_ir::Function, cfg: &Cfg, l: &Loop) {
    let outside: Vec<BlockId> = cfg
        .unique_preds(l.header)
        .into_iter()
        .filter(|p| !l.contains(*p))
        .collect();
    reroute_through_new_block(f, &outside, l.header);
}

/// Merge multiple latches through a fresh block that becomes the only latch.
fn merge_latches(f: &mut autophase_ir::Function, l: &Loop) {
    reroute_through_new_block(f, &l.latches, l.header);
}

/// Give `exit` a dedicated version reached only from inside the loop.
fn dedicate_exit(f: &mut autophase_ir::Function, cfg: &Cfg, l: &Loop, exit: BlockId) {
    let inside: Vec<BlockId> = cfg
        .unique_preds(exit)
        .into_iter()
        .filter(|p| l.contains(*p))
        .collect();
    reroute_through_new_block(f, &inside, exit);
}

/// Create a block `mid` with `br target`, and make every block in `preds`
/// branch to `mid` instead of `target`. φ-nodes in `target` are merged: the
/// entries for `preds` become φ-nodes in `mid` when their values differ,
/// or a single forwarded entry when they agree.
fn reroute_through_new_block(
    f: &mut autophase_ir::Function,
    preds: &[BlockId],
    target: BlockId,
) -> BlockId {
    let mid = f.add_block();

    // Fix φ-nodes first (they reference pred block ids): each φ's entries
    // from `preds` merge into one value that flows in from `mid`.
    let mut merged: Vec<(InstId, autophase_ir::Value)> = Vec::new();
    for phi in f.phis(target) {
        let ty = f.inst(phi).ty;
        let Opcode::Phi { incoming } = &f.inst(phi).op else {
            unreachable!("filtered phi")
        };
        let routed: Vec<(BlockId, autophase_ir::Value)> = incoming
            .iter()
            .filter(|(p, _)| preds.contains(p))
            .cloned()
            .collect();
        if routed.is_empty() {
            continue;
        }
        let merged_value = if routed.len() == 1 || routed.iter().all(|(_, v)| *v == routed[0].1) {
            routed[0].1
        } else {
            // A φ in `mid` merges the different incoming values.
            let new_phi = f.insert_inst(
                mid,
                0,
                Inst::new(
                    ty,
                    Opcode::Phi {
                        incoming: routed.clone(),
                    },
                ),
            );
            autophase_ir::Value::Inst(new_phi)
        };
        merged.push((phi, merged_value));
    }
    f.move_phi_edges(target, preds, &[mid], |phi, _, _| {
        merged
            .iter()
            .find(|(p, _)| *p == phi)
            .expect("merged above")
            .1
    });

    // Terminator of mid.
    f.append_inst(mid, Inst::new(Type::Void, Opcode::Br { target }));

    // Reroute the pred terminators.
    for &p in preds {
        f.redirect_branch(p, target, mid);
    }
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::interp::run_function;
    use autophase_ir::loops::analyze_loops;
    use autophase_ir::verify::assert_verified;
    use autophase_ir::Opcode;
    use autophase_ir::{BinOp, CmpPred, FuncId, Value};

    /// True if every loop in the function is in simplified form.
    fn is_simplified(m: &Module, fid: FuncId) -> bool {
        let facts = m.facts(fid);
        let (cfg, loops) = (facts.cfg(), facts.loops());
        loops.iter().all(|l| {
            l.preheader(cfg).is_some()
                && l.single_latch().is_some()
                && l.exits.iter().all(|&e| l.is_dedicated_exit(cfg, e))
        })
    }

    /// A loop whose header is branched to directly from two outside blocks
    /// (no preheader) and with two latches.
    fn messy_loop() -> Module {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let header = b.new_block();
        let body_a = b.new_block();
        let body_b = b.new_block();
        let exit = b.new_block();
        let alt_entry = b.new_block();

        let c0 = b.icmp(CmpPred::Sgt, b.arg(0), Value::i32(10));
        b.cond_br(c0, alt_entry, header);

        b.switch_to(alt_entry);
        b.br(header);

        b.switch_to(header);
        let entry = b.entry_block();
        let i = b.phi(
            Type::I32,
            vec![(entry, Value::i32(0)), (alt_entry, Value::i32(1))],
        );
        let c = b.icmp(CmpPred::Slt, i, b.arg(0));
        b.cond_br(c, body_a, exit);

        b.switch_to(body_a);
        let inc = b.binary(BinOp::Add, i, Value::i32(1));
        let odd = b.binary(BinOp::And, i, Value::i32(1));
        let c2 = b.icmp(CmpPred::Ne, odd, Value::i32(0));
        b.cond_br(c2, body_b, header); // latch 1

        b.switch_to(body_b);
        let inc2 = b.binary(BinOp::Add, inc, Value::i32(1));
        b.br(header); // latch 2
        if let Value::Inst(pid) = i {
            if let Opcode::Phi { incoming } = &mut b.func_mut().inst_mut(pid).op {
                incoming.push((body_a, inc));
                incoming.push((body_b, inc2));
            }
        }

        b.switch_to(exit);
        b.ret(Some(i));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        m
    }

    #[test]
    fn messy_loop_gets_canonicalized() {
        let mut m = messy_loop();
        let fid = m.main().unwrap();
        assert!(!is_simplified(&m, fid));
        let before: Vec<_> = [0, 5, 20]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert!(run(&mut m));
        assert_verified(&m);
        assert!(
            is_simplified(&m, fid),
            "{}",
            autophase_ir::printer::print_module(&m)
        );
        let after: Vec<_> = [0, 5, 20]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn builder_loop_already_simplified() {
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        b.counted_loop(b.arg(0), |_, _| {});
        b.ret(Some(Value::i32(0)));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        assert!(is_simplified(&m, fid));
        assert!(!run(&mut m));
    }

    #[test]
    fn shared_exit_gets_dedicated() {
        // Loop exit block also reachable from outside the loop.
        let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
        let shared = b.new_block();
        let after_loop = b.new_block();
        let c0 = b.icmp(CmpPred::Slt, b.arg(0), Value::i32(0));
        b.cond_br(c0, shared, after_loop);
        b.switch_to(after_loop);
        b.counted_loop(b.arg(0), |_, _| {});
        b.br(shared);
        b.switch_to(shared);
        b.ret(Some(Value::i32(1)));
        let mut m = Module::new("t");
        m.add_function(b.finish());
        let fid = m.main().unwrap();
        let before: Vec<_> = [-1, 3]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        if !is_simplified(&m, fid) {
            assert!(run(&mut m));
        }
        assert_verified(&m);
        assert!(is_simplified(&m, fid));
        let after: Vec<_> = [-1, 3]
            .iter()
            .map(|&x| run_function(&m, fid, &[x], 100_000).unwrap().return_value)
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn nested_loops_simplified() {
        let mut m = messy_loop();
        run(&mut m);
        let fid = m.main().unwrap();
        let f = m.func(fid);
        let (_, _, loops) = analyze_loops(f);
        assert!(!loops.is_empty());
        assert!(is_simplified(&m, fid));
    }
}
