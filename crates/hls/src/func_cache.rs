//! Content-addressed per-function schedule/area cache.
//!
//! Scheduling and binding are pure functions of a function's body and the
//! HLS config, so their results can be keyed by the function's content
//! fingerprint and reused across modules, episodes, and programs: a
//! function untouched by the current pass sequence — or restored by a
//! transaction rollback — hits the cache no matter how the module around
//! it changed. Content addressing is also what makes the cache immune to
//! faults: a rolled-back pass leaves the module at a fingerprint that was
//! already cached, and entries for the discarded state are simply never
//! looked up again (and eventually age out).
//!
//! One cache instance is valid for exactly one [`HlsConfig`]; callers
//! that profile under several configs must keep one cache per config
//! (each `compile::Input` of the core crate owns one, matching the one
//! config it profiles under).

use crate::area::{estimate_function_area, AreaReport};
use crate::schedule::{schedule_function, FunctionSchedule};
use crate::HlsConfig;
use autophase_ir::Function;
use autophase_telemetry::{self as telemetry, BoundedMap, MapCounters};
use std::sync::Arc;

/// Cached result of scheduling + binding one function.
#[derive(Debug)]
pub struct FuncEval {
    /// The FSM schedule (per-block state counts and start states).
    pub schedule: FunctionSchedule,
    /// The function's area contribution (excludes module globals).
    pub area: AreaReport,
}

impl FuncEval {
    /// Schedule and bind `f` under `cfg`.
    pub(crate) fn of(f: &Function, cfg: &HlsConfig) -> FuncEval {
        let schedule = schedule_function(f, cfg);
        let area = estimate_function_area(f, &schedule);
        FuncEval { schedule, area }
    }
}

/// Bounded cache of [`FuncEval`]s keyed by function content fingerprint.
#[derive(Debug)]
pub struct ScheduleCache {
    map: BoundedMap<u64, Arc<FuncEval>>,
}

/// Default capacity: comfortably above the distinct function bodies a
/// long training run visits per program corpus, small enough that the
/// worst case (~a few KB per schedule) stays in the tens of MB.
pub const DEFAULT_SCHEDULE_CACHE_CAPACITY: usize = 4096;

impl ScheduleCache {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ScheduleCache {
        ScheduleCache {
            map: BoundedMap::new(capacity, MapCounters::family("hls.sched_cache")),
        }
    }

    /// Look up the evaluation for fingerprint `fp`, scheduling `f` under
    /// `cfg` on a miss. A miss increments `functions_rescheduled_total`;
    /// hit/miss counts also feed `hls.sched_cache{hit|miss}`.
    pub fn get_or_eval(&mut self, fp: u64, f: &Function, cfg: &HlsConfig) -> Arc<FuncEval> {
        if let Some(ev) = self.map.lookup(&fp) {
            return Arc::clone(ev);
        }
        telemetry::incr("functions_rescheduled_total", "", 1);
        let ev = Arc::new(FuncEval::of(f, cfg));
        self.map.insert(fp, Arc::clone(&ev));
        ev
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.map.stats();
        (s.hits, s.misses)
    }
}

impl Default for ScheduleCache {
    fn default() -> ScheduleCache {
        ScheduleCache::new(DEFAULT_SCHEDULE_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::builder::FunctionBuilder;
    use autophase_ir::fingerprint::fingerprint_function;
    use autophase_ir::{BinOp, Type, Value};

    fn func(n: i32) -> Function {
        let mut b = FunctionBuilder::new("main", vec![], Type::I32);
        let v = b.binary(BinOp::Add, Value::i32(n), Value::i32(1));
        b.ret(Some(v));
        b.finish()
    }

    #[test]
    fn hit_returns_same_eval() {
        let cfg = HlsConfig::default();
        let mut c = ScheduleCache::default();
        let f = func(1);
        let fp = fingerprint_function(&f);
        let a = c.get_or_eval(fp, &f, &cfg);
        let b = c.get_or_eval(fp, &f, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn cached_eval_matches_fresh() {
        let cfg = HlsConfig::default();
        let mut c = ScheduleCache::default();
        let f = func(2);
        let ev = c.get_or_eval(fingerprint_function(&f), &f, &cfg);
        let fresh_sched = schedule_function(&f, &cfg);
        assert_eq!(ev.schedule.total_states, fresh_sched.total_states);
        assert_eq!(ev.area, estimate_function_area(&f, &fresh_sched));
    }

    /// The name predates the two-generation map: the oldest *insert* goes
    /// (a hit does not refresh), and rescheduling it gives the same result.
    #[test]
    fn lru_evicts_oldest() {
        let cfg = HlsConfig::default();
        let mut c = ScheduleCache::new(2);
        let fs: Vec<Function> = (0..3).map(func).collect();
        let fps: Vec<u64> = fs.iter().map(fingerprint_function).collect();
        let first = c.get_or_eval(fps[0], &fs[0], &cfg);
        c.get_or_eval(fps[1], &fs[1], &cfg);
        c.get_or_eval(fps[2], &fs[2], &cfg); // the older generation (0) goes
        assert_eq!(c.map.stats().len, 2);
        let again = c.get_or_eval(fps[0], &fs[0], &cfg);
        assert_eq!(c.stats(), (0, 4), "entry 0 was evicted and re-evaluated");
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(again.schedule.total_states, first.schedule.total_states);
        assert_eq!(again.area, first.area);
    }
}
