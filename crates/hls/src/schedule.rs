//! Clock-period-constrained scheduling with operator chaining.
//!
//! Each basic block is compiled to a linear sequence of FSM states. Within
//! a state, combinational operations chain as long as the accumulated
//! delay fits the clock period and their operands are ready; multi-cycle
//! operations (loads, divides, calls) advance the state counter; memory
//! port pressure limits how many loads/stores may start per state.
//!
//! This is the cost model that makes the paper's pass-ordering effects
//! visible: `-loop-rotate` removes one block (≥1 state) per iteration,
//! `-instcombine`/`-reassociate` shorten chains, `-loop-reduce` swaps
//! multipliers for adders, and `-mem2reg` removes 2-state load round trips.

use crate::delay::{timing, uses_memory_port, Timing};
use crate::HlsConfig;
use autophase_ir::{BlockId, Function, InstId, Value};

/// The schedule of one basic block.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// Number of FSM states the block occupies (≥ 1).
    pub states: u32,
    /// Start state of each of the block's instructions, in block order.
    pub start_state: Vec<u32>,
    /// Critical-path slack: combinational nanoseconds used in the final
    /// state (diagnostic; used by the area/fmax reports).
    pub last_state_ns: f64,
}

/// The schedule of a whole function.
#[derive(Debug, Clone)]
pub struct FunctionSchedule {
    /// Per-block schedules, indexed by block id (`None` for removed blocks).
    blocks: Vec<Option<BlockSchedule>>,
    /// Total states across the function's FSM.
    pub total_states: u32,
}

impl FunctionSchedule {
    /// The schedule of block `bb`, if it is a live block of the function.
    pub fn block(&self, bb: BlockId) -> Option<&BlockSchedule> {
        self.blocks.get(bb.index()).and_then(Option::as_ref)
    }

    /// States of one block (1 for removed/unknown blocks, the minimum).
    pub fn states(&self, bb: BlockId) -> u32 {
        self.block(bb).map_or(1, |b| b.states)
    }
}

/// Per-instruction tables for scheduling one function's blocks, indexed
/// by `InstId`. An entry counts only when its stamp is the current
/// block's, so the tables are filled once per function, not per block.
struct Scratch {
    /// (stamp, state, ns): when the result of an instruction the current
    /// block already scheduled is ready.
    ready: Vec<(u32, u32, f64)>,
    /// The stamp of the last block that used the instruction's result.
    used: Vec<u32>,
}

impl Scratch {
    fn new(f: &Function) -> Scratch {
        Scratch {
            ready: vec![(0, 0, 0.0); f.inst_capacity()],
            used: vec![0; f.inst_capacity()],
        }
    }

    fn ready(&self, id: InstId, stamp: u32) -> Option<(u32, f64)> {
        match self.ready.get(id.index()) {
            Some(&(s, state, ns)) if s == stamp => Some((state, ns)),
            _ => None,
        }
    }
}

/// Schedule every block of a function.
pub fn schedule_function(f: &Function, cfg: &HlsConfig) -> FunctionSchedule {
    let mut scratch = Scratch::new(f);
    let mut blocks = vec![None; f.block_capacity()];
    let mut total = 0;
    for (stamp, bb) in (1..).zip(f.block_ids()) {
        let s = schedule_in(f, bb, cfg, &mut scratch, stamp);
        total += s.states;
        blocks[bb.index()] = Some(s);
    }
    FunctionSchedule {
        blocks,
        total_states: total,
    }
}

/// Schedule one block.
pub fn schedule_block(f: &Function, bb: BlockId, cfg: &HlsConfig) -> BlockSchedule {
    schedule_in(f, bb, cfg, &mut Scratch::new(f), 1)
}

/// Schedule block `bb`, whose entries in `scratch` carry `stamp`.
fn schedule_in(
    f: &Function,
    bb: BlockId,
    cfg: &HlsConfig,
    scratch: &mut Scratch,
    stamp: u32,
) -> BlockSchedule {
    let period = cfg.clock_period_ns;
    let insts = &f.block(bb).insts;
    let mut start_state = Vec::with_capacity(insts.len());
    let mut cur_state: u32 = 0;
    let mut mem_ops_in_state: usize = 0;

    for &iid in insts {
        let inst = f.inst(iid);
        // Earliest start: all operands scheduled earlier in this block ready.
        let mut earliest: (u32, f64) = (0, 0.0);
        inst.for_each_operand(|v| {
            if let Value::Inst(dep) = v {
                if let Some(r) = scratch.ready(dep, stamp) {
                    if r.0 > earliest.0 || (r.0 == earliest.0 && r.1 > earliest.1) {
                        earliest = r;
                    }
                }
            }
        });
        let (mut s, mut t) = if earliest.0 > cur_state {
            (earliest.0, earliest.1)
        } else if earliest.0 == cur_state {
            (cur_state, earliest.1)
        } else {
            (cur_state, 0.0)
        };

        let ready = match timing(inst, cfg) {
            Timing::Free => (s, t),
            Timing::Chain { ns } => {
                // Memory port check for stores (chained memory writes).
                if uses_memory_port(inst) && s == cur_state && mem_ops_in_state >= cfg.memory_ports
                {
                    s += 1;
                    t = 0.0;
                }
                if t + ns > period {
                    s += 1;
                    t = 0.0;
                }
                if s > cur_state {
                    cur_state = s;
                    mem_ops_in_state = 0;
                }
                if uses_memory_port(inst) {
                    mem_ops_in_state += 1;
                }
                (s, t + ns)
            }
            Timing::Multi { states } => {
                // Multi-cycle ops start at a state boundary conceptually;
                // they issue in state `s` and the result is ready at the
                // start of state `s + states`.
                if uses_memory_port(inst) && s == cur_state && mem_ops_in_state >= cfg.memory_ports
                {
                    s += 1;
                }
                if s > cur_state {
                    cur_state = s;
                    mem_ops_in_state = 0;
                }
                if uses_memory_port(inst) {
                    mem_ops_in_state += 1;
                }
                // The block must stay in control until the op finishes
                // (no overlap across the terminator); result consumers land
                // in s + states, and the state counter advances lazily when
                // they are scheduled.
                cur_state = cur_state.max(s + states - 1).max(s);
                (s + states, 0.0)
            }
        };
        start_state.push(s);
        scratch.ready[iid.index()] = (stamp, ready.0, ready.1);
    }

    // One sweep marks every result this block uses.
    for &u in insts {
        f.inst(u).for_each_operand(|v| {
            if let Value::Inst(dep) = v {
                if let Some(mark) = scratch.used.get_mut(dep.index()) {
                    *mark = stamp;
                }
            }
        });
    }
    // The block occupies states 0..=max over everything scheduled. A
    // multi-cycle op whose result is *used* in this block forces the block
    // to wait for it; one at the end (e.g. a trailing load nobody reads)
    // still occupies its issue state only.
    let mut max_state = cur_state;
    for (&iid, &s) in insts.iter().zip(&start_state) {
        if let Timing::Multi { states } = timing(f.inst(iid), cfg) {
            if scratch.used[iid.index()] == stamp {
                max_state = max_state.max(s + states);
            }
        }
    }

    let last_state_ns = insts
        .iter()
        .filter_map(|&iid| scratch.ready(iid, stamp))
        .filter(|&(s, _)| s == max_state)
        .map(|(_, t)| t)
        .fold(0.0, f64::max);

    BlockSchedule {
        states: max_state + 1,
        start_state,
        last_state_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{BinOp, Type};

    fn cfg() -> HlsConfig {
        HlsConfig::default()
    }

    #[test]
    fn empty_ret_block_is_one_state() {
        let mut b = FunctionBuilder::new("f", vec![], Type::Void);
        b.ret(None);
        let f = b.finish();
        let s = schedule_block(&f, f.entry, &cfg());
        assert_eq!(s.states, 1);
    }

    #[test]
    fn independent_adds_chain_into_one_state() {
        // Two independent adds (2ns each) + ret chain into a single 5ns state.
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let x = b.binary(BinOp::Add, b.arg(0), Value::i32(1));
        let y = b.binary(BinOp::Add, b.arg(1), Value::i32(2));
        let _ = y;
        b.ret(Some(x));
        let f = b.finish();
        let s = schedule_block(&f, f.entry, &cfg());
        assert_eq!(s.states, 1);
    }

    #[test]
    fn long_dependent_chain_splits_states() {
        // Five dependent adds = 10ns > 5ns: needs 2+ states.
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let mut v = b.arg(0);
        for i in 0..5 {
            v = b.binary(BinOp::Add, v, Value::i32(i));
        }
        b.ret(Some(v));
        let f = b.finish();
        let s = schedule_block(&f, f.entry, &cfg());
        assert!(s.states >= 2, "states: {}", s.states);
        assert!(s.states <= 3);
    }

    #[test]
    fn dependent_muls_one_state_each() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let m1 = b.binary(BinOp::Mul, b.arg(0), b.arg(0));
        let m2 = b.binary(BinOp::Mul, m1, b.arg(0));
        b.ret(Some(m2));
        let f = b.finish();
        let s = schedule_block(&f, f.entry, &cfg());
        assert_eq!(s.states, 2);
    }

    #[test]
    fn load_use_crosses_state() {
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr], Type::I32);
        let v = b.load(Type::I32, b.arg(0));
        let w = b.binary(BinOp::Add, v, Value::i32(1));
        b.ret(Some(w));
        let f = b.finish();
        let s = schedule_block(&f, f.entry, &cfg());
        // load issues in state 0, data in state 1, add+ret chain there.
        assert_eq!(s.states, 2);
    }

    #[test]
    fn memory_port_limit_serializes_loads() {
        // Three loads with 2 ports: the third starts in the next state.
        let mut b = FunctionBuilder::new("f", vec![Type::Ptr], Type::I32);
        let p = b.arg(0);
        let v1 = b.load(Type::I32, p);
        let g1 = b.gep(p, Value::i32(1));
        let v2 = b.load(Type::I32, g1);
        let g2 = b.gep(p, Value::i32(2));
        let v3 = b.load(Type::I32, g2);
        let s1 = b.binary(BinOp::Add, v1, v2);
        let s2 = b.binary(BinOp::Add, s1, v3);
        b.ret(Some(s2));
        let f = b.finish();
        let sched = schedule_block(&f, f.entry, &cfg());
        let load_states: Vec<u32> = f
            .block(f.entry)
            .insts
            .iter()
            .zip(&sched.start_state)
            .filter(|&(&i, _)| matches!(f.inst(i).op, autophase_ir::Opcode::Load { .. }))
            .map(|(_, &s)| s)
            .collect();
        assert_eq!(load_states.len(), 3);
        assert!(
            load_states[2] > load_states[0],
            "third load must wait for a port: {load_states:?}"
        );
    }

    #[test]
    fn division_dominates_block_latency() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32, Type::I32], Type::I32);
        let d = b.binary(BinOp::SDiv, b.arg(0), b.arg(1));
        let w = b.binary(BinOp::Add, d, Value::i32(1));
        b.ret(Some(w));
        let f = b.finish();
        let s = schedule_block(&f, f.entry, &cfg());
        assert!(s.states >= cfg().div_latency, "states: {}", s.states);
    }

    #[test]
    fn phi_and_casts_are_free() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I64);
        let w = b.cast(autophase_ir::CastOp::SExt, Type::I64, b.arg(0));
        let x = b.cast(autophase_ir::CastOp::Trunc, Type::I32, w);
        let y = b.cast(autophase_ir::CastOp::ZExt, Type::I64, x);
        b.ret(Some(y));
        let f = b.finish();
        let s = schedule_block(&f, f.entry, &cfg());
        assert_eq!(s.states, 1);
    }

    #[test]
    fn slower_clock_allows_deeper_chaining() {
        // At 100 MHz (10ns) the 5-add chain fits one state.
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let mut v = b.arg(0);
        for i in 0..4 {
            v = b.binary(BinOp::Add, v, Value::i32(i));
        }
        b.ret(Some(v));
        let f = b.finish();
        let fast = schedule_block(&f, f.entry, &HlsConfig::default());
        let slow = schedule_block(&f, f.entry, &HlsConfig::at_frequency_mhz(100.0));
        assert!(slow.states <= fast.states);
        assert_eq!(slow.states, 1);
    }

    #[test]
    fn function_schedule_sums_blocks() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        b.counted_loop(b.arg(0), |_, _| {});
        b.ret(Some(Value::i32(0)));
        let f = b.finish();
        let fs = schedule_function(&f, &cfg());
        assert_eq!(
            fs.total_states,
            f.block_ids().map(|bb| fs.states(bb)).sum::<u32>()
        );
        assert!(fs.total_states >= f.num_blocks() as u32);
    }
}
