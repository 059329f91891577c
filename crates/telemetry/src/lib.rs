//! Workspace-wide telemetry: counters, gauges, and histograms.
//!
//! Every layer of the reproduction — pass application, HLS profiling, the
//! evaluation cache, RL training — reports into one global, thread-safe
//! registry through this crate. The design constraints, in order:
//!
//! 1. **Observational only.** Nothing recorded here may feed back into
//!    behaviour. Instruments are write-only from the instrumented code's
//!    point of view; only sinks read them. The workspace's determinism
//!    suites run with telemetry on and off and assert bit-identical
//!    results.
//! 2. **True no-op when disabled.** The hot path pays exactly one relaxed
//!    atomic load ([`enabled`]) and an untaken branch. No clocks are read,
//!    no locks taken, no allocation happens.
//! 3. **Lock-free when enabled (hot instruments).** Counters, gauges, and
//!    histogram recording are a handful of relaxed atomic RMWs. Only
//!    first-time instrument registration takes a write lock.
//! 4. **Self-contained.** The workspace builds offline against vendored
//!    crates only, so this crate uses nothing beyond `std` atomics and
//!    `std::time`.
//!
//! Being the one crate below `hls`, `core` and `serve`, it is also where
//! the std-only pieces they share live: [`lock_recover`],
//! [`faultfs::atomic_write`], [`BoundedMap`], the bounded memo map
//! behind every cache in the workspace (which reports its own
//! hit/miss/evict counters here), and the chaos harnesses' one plan
//! slot, [`Armed`].
//!
//! # Naming conventions
//!
//! Instrument names are static `layer.metric[_unit]` strings — e.g.
//! `pass.apply_ns`, `hls.cycles`, `evalcache.lookups`, `rl.steps` — and
//! the dynamic dimension (pass name, algorithm, worker index) goes in the
//! label: `pass.apply_ns{-gvn}`. Durations are nanoseconds and end in
//! `_ns` (sinks render them human-readable).
//!
//! # Usage
//!
//! ```
//! use autophase_telemetry as telemetry;
//!
//! telemetry::enable();
//! // Cold paths: record through the registry by name.
//! telemetry::incr("demo.requests", "", 1);
//! let t = telemetry::maybe_now();
//! // ... work ...
//! telemetry::observe_since("demo.work_ns", "", t);
//! // Hot paths: fetch the instrument once, then it is a few atomics.
//! let hits = telemetry::counter("demo.hits", "");
//! hits.add(1);
//! println!("{}", telemetry::render_summary());
//! telemetry::reset();
//! telemetry::disable();
//! ```
#![warn(missing_docs)]

pub mod bounded;
pub mod faultfs;
pub mod flight;
pub mod metrics;
pub mod sink;

pub use bounded::{BoundedMap, CacheStats, MapCounters};
pub use flight::{
    Decimal, DumpTrigger, FlightConfig, FlightRecorder, NoteValue, RequestTrace, TraceBuilder,
};
pub use metrics::{
    Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramSnapshot, Registry,
    Snapshot,
};
pub use sink::{render_jsonl, render_metrics_jsonl_from, render_summary, write_artifact};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::time::Instant;

/// Lock `m`, taking the guard even when a thread panicked while holding
/// it. The workspace contains panics (`catch_unwind` around passes,
/// forwards, rollout workers and handler threads) and keeps running, so
/// a poisoned lock must not turn every later use into a second panic.
///
/// Sound only when every critical section leaves the data valid at
/// every point where it can unwind: a single map or queue operation, a
/// whole-value replacement, or state that the next user re-initializes
/// before reading. A section that can panic between two updates that
/// must agree needs `lock().expect(..)` instead.
pub fn lock_recover<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A process-wide slot for one armed fault plan: the one arming
/// mechanism of the chaos harnesses (`autophase_passes::fault::PLAN`
/// for pass faults, [`faultfs::PLAN`] for disk faults). While nothing is
/// armed, [`Armed::current`] is one acquire load.
pub struct Armed<P> {
    active: AtomicBool,
    plan: Mutex<Option<Arc<P>>>,
}

impl<P> Armed<P> {
    /// A disarmed slot.
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Armed<P> {
        Armed {
            active: AtomicBool::new(false),
            plan: Mutex::new(None),
        }
    }

    /// Arm `plan`, replacing any previous one. Returns the shared handle
    /// so the caller can assert on what fired.
    pub fn install(&self, plan: P) -> Arc<P> {
        let plan = Arc::new(plan);
        *lock_recover(&self.plan) = Some(Arc::clone(&plan));
        self.active.store(true, Ordering::Release);
        plan
    }

    /// Disarm: later [`Armed::current`] calls see no plan.
    pub fn clear(&self) {
        self.active.store(false, Ordering::Release);
        *lock_recover(&self.plan) = None;
    }

    /// The armed plan, if any.
    #[inline]
    pub fn current(&self) -> Option<Arc<P>> {
        if !self.active.load(Ordering::Acquire) {
            return None;
        }
        lock_recover(&self.plan).clone()
    }
}

/// Serialize tests that arm an [`Armed`] slot: the slots are
/// process-global, so concurrently running tests that arm different
/// plans would race. Hold the guard for the whole test.
pub fn test_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    lock_recover(&GUARD)
}

/// One SplitMix64 step: advance `state` and return the next output. The
/// stream seeded fault plans are drawn from, so a chaos run is
/// reproducible from one `u64`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Payload of every on-purpose panic (an injected pass panic, an
/// injected engine crash), so [`quiet_panic_hook`] can tell them from
/// real failures. It never reaches a reply or a trace: a contained panic
/// is reported by kind, not by payload.
pub const INJECTED_PANIC_MSG: &str = "injected fault (chaos)";

/// Install (once) a panic hook that swallows panics whose payload is
/// [`INJECTED_PANIC_MSG`] and hands every other one to the previous
/// hook. Chaos tests panic thousands of times on purpose; this keeps
/// their stderr readable without hiding real failures.
pub fn quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == INJECTED_PANIC_MSG);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// The global on/off switch. Relaxed is correct: readers only need *a*
/// recent value, never ordering against other memory.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when telemetry is recording. One relaxed atomic load — this is
/// the entire disabled-path cost of every instrumented call site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn recording off. Instruments keep their values until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `Some(Instant::now())` when enabled, `None` otherwise. The standard
/// idiom for timing a region without paying for the clock when disabled.
#[inline]
pub fn maybe_now() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// The global registry (created on first use, lives for the process).
pub fn registry() -> &'static Registry {
    metrics::global()
}

/// Fetch (registering on first use) a counter. Call sites on hot paths
/// should fetch once and cache the handle.
pub fn counter(name: &'static str, label: &str) -> Arc<Counter> {
    registry().counter(name, label)
}

/// Fetch (registering on first use) a gauge.
pub fn gauge(name: &'static str, label: &str) -> Arc<Gauge> {
    registry().gauge(name, label)
}

/// Fetch (registering on first use) a histogram.
pub fn histogram(name: &'static str, label: &str) -> Arc<Histogram> {
    registry().histogram(name, label)
}

/// Add `n` to a counter by name. No-op when disabled.
pub fn incr(name: &'static str, label: &str, n: u64) {
    if enabled() {
        counter(name, label).add(n);
    }
}

/// Set a gauge by name. No-op when disabled.
pub fn set_gauge(name: &'static str, label: &str, value: f64) {
    if enabled() {
        gauge(name, label).set(value);
    }
}

/// Adjust a gauge by `delta` (negative to decrement). No-op when
/// disabled. Use for level-style gauges maintained concurrently (queue
/// depth, in-flight work), where `set` from multiple threads would lose
/// updates.
pub fn add_gauge(name: &'static str, label: &str, delta: f64) {
    if enabled() {
        gauge(name, label).add(delta);
    }
}

/// Record a value into a histogram by name. No-op when disabled.
pub fn observe(name: &'static str, label: &str, value: u64) {
    if enabled() {
        histogram(name, label).record(value);
    }
}

/// Record the nanoseconds elapsed since `start` (from [`maybe_now`]) into
/// a histogram. No-op when `start` is `None` or telemetry is disabled.
pub fn observe_since(name: &'static str, label: &str, start: Option<Instant>) {
    if let Some(t) = start {
        if enabled() {
            histogram(name, label).record(t.elapsed().as_nanos() as u64);
        }
    }
}

/// Zero every instrument. Registered instruments (and handles call
/// sites cached) stay valid — their values restart from zero. Meant for
/// test isolation and run boundaries.
pub fn reset() {
    registry().reset();
}

/// Snapshot every instrument's current value, sorted by `(name, label)`.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The crate's unit tests share one process and one global registry;
    // serialize the ones that toggle the enable flag.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        lock_recover(&GATE)
    }

    #[test]
    fn disabled_helpers_record_nothing() {
        let _g = lock();
        reset();
        disable();
        incr("test.lib.count", "", 5);
        set_gauge("test.lib.gauge", "", 1.0);
        observe("test.lib.hist", "", 42);
        assert!(maybe_now().is_none());
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .all(|c| c.name != "test.lib.count" || c.value == 0));
    }

    #[test]
    fn enabled_helpers_record() {
        let _g = lock();
        reset();
        enable();
        incr("test.lib.count2", "x", 2);
        incr("test.lib.count2", "x", 3);
        set_gauge("test.lib.gauge2", "", 2.5);
        observe("test.lib.hist2", "", 10);
        let t = maybe_now();
        assert!(t.is_some());
        observe_since("test.lib.hist2_ns", "", t);
        disable();
        let snap = snapshot();
        let c = snap
            .counters
            .iter()
            .find(|c| c.name == "test.lib.count2")
            .expect("counter registered");
        assert_eq!(c.value, 5);
        assert_eq!(c.label, "x");
        let g = snap
            .gauges
            .iter()
            .find(|g| g.name == "test.lib.gauge2")
            .expect("gauge registered");
        assert_eq!(g.value, 2.5);
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.lib.hist2")
            .expect("histogram registered");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 10);
        reset();
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let _g = lock();
        reset();
        enable();
        let c = counter("test.lib.reset", "");
        c.add(7);
        assert_eq!(c.value(), 7);
        reset();
        assert_eq!(c.value(), 0);
        c.add(1); // the cached handle still feeds the registry
        let snap = snapshot();
        let found = snap
            .counters
            .iter()
            .find(|x| x.name == "test.lib.reset")
            .expect("still registered");
        assert_eq!(found.value, 1);
        disable();
        reset();
    }
}
