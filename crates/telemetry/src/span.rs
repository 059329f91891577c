//! Hierarchical timing spans with a RAII guard.
//!
//! A span names a region of work. Spans opened while another span is
//! live on the same thread nest under it: the guard pushes the name onto
//! a thread-local stack at entry and pops it at drop, and the span's
//! *path* is the stack joined with `/` (e.g.
//! `rollout.batch/rollout.worker/rollout.episode` — the worker pool's
//! three levels). Each close records the duration into the `span_ns`
//! histogram labelled with the path, and appends a [`SpanEvent`] to a
//! bounded in-memory log (for the JSONL sink and the nesting tests).
//!
//! Spans are for episode-granularity regions and coarser; per-pass timing
//! uses plain histograms to stay lock-free.

use crate::{lock_recover, metrics};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cap on retained span events; beyond it closes are counted, not stored.
pub const EVENT_CAP: usize = 1 << 16;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// `/`-joined names from the thread's outermost live span to this one.
    pub path: String,
    /// This span's own name (the path's last segment).
    pub name: &'static str,
    /// Nesting depth (1 = no enclosing span).
    pub depth: usize,
    /// Telemetry-assigned id of the recording thread (stable within a
    /// process, dense from 0).
    pub thread: u64,
    /// Start offset from the telemetry epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
static DROPPED: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Pin the epoch all span start offsets are measured from. Idempotent;
/// called by [`crate::enable`].
pub(crate) fn init_epoch() {
    EPOCH.get_or_init(Instant::now);
}

/// Open a span. When telemetry is disabled this is a no-op guard (one
/// relaxed load, no clock read).
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    init_epoch();
    let (path, depth) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        (s.join("/"), s.len())
    });
    SpanGuard {
        live: Some(LiveSpan {
            start: Instant::now(),
            path,
            name,
            depth,
        }),
    }
}

struct LiveSpan {
    start: Instant,
    path: String,
    name: &'static str,
    depth: usize,
}

/// RAII guard returned by [`span`]; records the span when dropped.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let dur_ns = live.start.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        // Record even if telemetry was disabled mid-span: the stack must
        // stay balanced either way, and a half-measured region is still a
        // real measurement.
        metrics::global()
            .histogram("span_ns", &live.path)
            .record(dur_ns);
        let epoch = *EPOCH.get_or_init(Instant::now);
        let start_ns = live.start.duration_since(epoch).as_nanos() as u64;
        let event = SpanEvent {
            path: live.path,
            name: live.name,
            depth: live.depth,
            thread: THREAD_ID.with(|&id| id),
            start_ns,
            dur_ns,
        };
        let mut events = lock_recover(&EVENTS);
        if events.len() < EVENT_CAP {
            events.push(event);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// All retained span events, in close order.
pub fn span_events() -> Vec<SpanEvent> {
    lock_recover(&EVENTS).clone()
}

/// How many span closes were discarded after [`EVENT_CAP`] filled up.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Drop all retained events (used by [`crate::reset`]).
pub(crate) fn clear_events() {
    lock_recover(&EVENTS).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_one_thread() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        {
            let _a = span("outer");
            {
                let _b = span("inner");
            }
            {
                let _c = span("inner");
            }
        }
        crate::disable();
        let events = span_events();
        let inner: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "inner").collect();
        let outer: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "outer").collect();
        assert_eq!(inner.len(), 2);
        assert_eq!(outer.len(), 1);
        assert!(inner
            .iter()
            .all(|e| e.path == "outer/inner" && e.depth == 2));
        assert_eq!(outer[0].path, "outer");
        assert_eq!(outer[0].depth, 1);
        // Children close before the parent and fit inside its interval.
        for e in inner {
            assert!(e.start_ns >= outer[0].start_ns);
            assert!(e.start_ns + e.dur_ns <= outer[0].start_ns + outer[0].dur_ns);
        }
        crate::reset();
    }

    #[test]
    fn disabled_spans_are_noops() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::disable();
        {
            let _a = span("never");
        }
        assert!(span_events().iter().all(|e| e.name != "never"));
    }

    #[test]
    fn sibling_threads_do_not_nest() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        let _outer = span("parent");
        let handle = std::thread::spawn(|| {
            let _s = span("child-thread");
        });
        handle.join().unwrap();
        drop(_outer);
        crate::disable();
        let events = span_events();
        let child = events
            .iter()
            .find(|e| e.name == "child-thread")
            .expect("recorded");
        // A fresh thread has its own empty stack: no inherited parent.
        assert_eq!(child.path, "child-thread");
        assert_eq!(child.depth, 1);
        crate::reset();
    }
}
