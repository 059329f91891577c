//! Resource (area) estimation.
//!
//! The paper notes the reward can target area instead of cycles; this
//! module provides that objective. Functional units are shared per
//! function per state in real LegUp binding; we approximate binding by
//! charging, for each operation class, the *maximum number of instances
//! needed in any one FSM state* (concurrent ops can't share a unit).

use crate::delay::area_units;
use crate::schedule::FunctionSchedule;
use autophase_ir::{Function, Module, Opcode};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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
    /// A single scalar "total area" used as an optimization objective.
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
    for bb in f.block_ids() {
        // Group instructions per state and op class; the max concurrent
        // count per class across states is the number of units bound.
        let block_sched = &sched.blocks[&bb];
        let mut per_state: HashMap<(u32, &'static str), (u32, u32)> = HashMap::new();
        for (iid, inst) in f.insts_in(bb) {
            if !inst.ty.is_void() {
                report.registers += if inst.ty.is_int() { inst.ty.bits() } else { 32 } as u64;
            }
            if let Opcode::Alloca { elem_ty, count } = inst.op {
                report.memory_bits += elem_ty.bits() as u64 * count as u64;
            }
            let units = area_units(inst);
            if units == 0 {
                continue;
            }
            let state = block_sched.start_state.get(&iid).copied().unwrap_or(0);
            let entry = per_state
                .entry((state, inst.mnemonic()))
                .or_insert((0, units));
            entry.0 += 1;
        }
        let mut class_max: HashMap<&'static str, (u32, u32)> = HashMap::new();
        for ((_, class), (n, units)) in per_state {
            let e = class_max.entry(class).or_insert((0, units));
            e.0 = e.0.max(n);
        }
        for (_, (n, units)) in class_max {
            report.logic_units += n as u64 * units as u64;
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
