//! Resource (area) estimation.
//!
//! The paper notes the reward can target area instead of cycles; this
//! module provides the estimate (every report carries it, and the RTL
//! example prints it). Functional units are shared per
//! function per state in real LegUp binding; we approximate binding by
//! charging, for each operation class, the *maximum number of instances
//! needed in any one FSM state* (concurrent ops can't share a unit).

use crate::delay::area_units;
use crate::schedule::FunctionSchedule;
use autophase_ir::{Function, Module, Opcode};
use serde::{Deserialize, Serialize};

/// Estimated FPGA resources.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AreaReport {
    /// LUT-ish logic units for functional units.
    pub logic_units: u64,
    /// Registers: one per instruction result crossing a state boundary
    /// (approximated as one per non-void instruction).
    pub registers: u64,
    /// Memory bits for allocas and globals.
    pub memory_bits: u64,
    /// FSM states (one-hot state register width).
    pub fsm_states: u64,
}

impl AreaReport {
    /// A single scalar "total area".
    pub fn total(&self) -> u64 {
        self.logic_units + self.registers / 2 + self.memory_bits / 64 + self.fsm_states
    }

    /// Accumulate another report into this one. Area composes additively
    /// per function (binding never shares units across functions), which
    /// is what makes per-function area caching exact.
    pub fn merge(&mut self, other: &AreaReport) {
        self.logic_units += other.logic_units;
        self.registers += other.registers;
        self.memory_bits += other.memory_bits;
        self.fsm_states += other.fsm_states;
    }
}

/// Memory bits contributed by module globals (the only non-per-function
/// area term).
pub fn globals_memory_bits(m: &Module) -> u64 {
    m.global_ids()
        .map(|gid| {
            let g = m.global(gid);
            g.elem_ty.bits() as u64 * g.count as u64
        })
        .sum()
}

/// One function's area contribution, given its schedule. Depends only on
/// the function body and the schedule (itself a pure function of body +
/// config), so the result can be cached per function content fingerprint.
pub fn estimate_function_area(f: &Function, sched: &FunctionSchedule) -> AreaReport {
    let mut report = AreaReport::default();
    report.fsm_states += sched.total_states as u64;
    // (op class, start state, units) of every unit-bearing instruction of
    // one block; reused across blocks.
    let mut busy: Vec<(&'static str, u32, u32)> = Vec::new();
    for bb in f.block_ids() {
        let block_sched = sched.block(bb).expect("every live block is scheduled");
        busy.clear();
        for ((_, inst), &state) in f.insts_in(bb).zip(&block_sched.start_state) {
            if !inst.ty.is_void() {
                report.registers += if inst.ty.is_int() { inst.ty.bits() } else { 32 } as u64;
            }
            if let Opcode::Alloca { elem_ty, count } = inst.op {
                report.memory_bits += elem_ty.bits() as u64 * count as u64;
            }
            let units = area_units(inst);
            if units != 0 {
                busy.push((inst.mnemonic(), state, units));
            }
        }
        // Per op class, the most instances that start in one state is the
        // number of units bound (a class's units per instance are fixed).
        busy.sort_unstable();
        for class in busy.chunk_by(|a, b| a.0 == b.0) {
            let most = class.chunk_by(|a, b| a.1 == b.1).map(<[_]>::len).max();
            report.logic_units += most.unwrap_or(0) as u64 * class[0].2 as u64;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule_function;
    use crate::HlsConfig;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::{BinOp, Type};

    /// Module area under `cfg`, as the profiler sums it: every function's
    /// [`estimate_function_area`] plus the module globals' memory bits.
    fn estimate_area(m: &Module, cfg: &HlsConfig) -> AreaReport {
        let mut report = AreaReport::default();
        for fid in m.func_ids() {
            let f = m.func(fid);
            let sched = schedule_function(f, cfg);
            report.merge(&estimate_function_area(f, &sched));
        }
        report.memory_bits += globals_memory_bits(m);
        report
    }

    #[test]
    fn more_multipliers_more_area() {
        let mk = |n: usize| {
            let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
            let mut v = b.arg(0);
            for _ in 0..n {
                // Independent muls to force concurrency.
                let w = b.binary(BinOp::Mul, b.arg(0), b.arg(0));
                v = b.binary(BinOp::Add, v, w);
            }
            b.ret(Some(v));
            let mut m = Module::new("t");
            m.add_function(b.finish());
            m
        };
        let cfg = HlsConfig::default();
        let a1 = estimate_area(&mk(1), &cfg).total();
        let a4 = estimate_area(&mk(4), &cfg).total();
        assert!(a4 > a1);
    }

    #[test]
    fn memories_counted() {
        let mut m = Module::new("t");
        m.add_global(autophase_ir::Global::zeroed("buf", Type::I32, 128));
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let area = estimate_area(&m, &HlsConfig::default());
        assert_eq!(area.memory_bits, 32 * 128);
    }

    #[test]
    fn sequential_muls_share_a_unit() {
        // Two dependent muls end up in different states → 1 unit; two
        // independent muls in the same state → 2 units.
        let dep = {
            let mut b = FunctionBuilder::new("main", vec![Type::I32], Type::I32);
            let m1 = b.binary(BinOp::Mul, b.arg(0), b.arg(0));
            let m2 = b.binary(BinOp::Mul, m1, b.arg(0));
            b.ret(Some(m2));
            let mut m = Module::new("t");
            m.add_function(b.finish());
            m
        };
        let indep = {
            let mut b = FunctionBuilder::new("main", vec![Type::I32, Type::I32], Type::I32);
            let m1 = b.binary(BinOp::Mul, b.arg(0), b.arg(0));
            let m2 = b.binary(BinOp::Mul, b.arg(1), b.arg(1));
            let s = b.binary(BinOp::Add, m1, m2);
            b.ret(Some(s));
            let mut m = Module::new("t");
            m.add_function(b.finish());
            m
        };
        let cfg = HlsConfig::default();
        let dep_area = estimate_area(&dep, &cfg);
        let indep_area = estimate_area(&indep, &cfg);
        assert!(indep_area.logic_units > dep_area.logic_units);
    }
}
