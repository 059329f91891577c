//! The flight recorder: request-scoped traces, a fixed-capacity ring of
//! the most recent ones, and crash/slow-path dump artifacts.
//!
//! A [`TraceBuilder`] rides along with one request and records a linear
//! timeline of *stage marks*: `mark("parse")` means "the phase named
//! `parse` just ended (it began at the previous mark, or at the trace's
//! start)". Because stages are consecutive segments of one timeline, the
//! per-stage durations of a finished [`RequestTrace`] sum **exactly** to
//! its total — per-stage histograms built from traces decompose
//! end-to-end latency with nothing missing and nothing counted twice.
//!
//! Completed traces land in a [`FlightRecorder`]: a fixed-capacity ring
//! whose memory bound is `capacity × (one Arc + one trace)` — the ring
//! holds `Arc`s, so readers never copy a trace and writers never block
//! on readers. Slot claiming is a single `fetch_add` (wait-free); each
//! slot is guarded by its own micro-mutex held only for a pointer swap,
//! a clone or an in-place overwrite, so there is no global lock and no
//! tearing: a reader sees either the old trace or the new one, always
//! whole. A trace keeps its stages, notes and outcome inline, and a
//! completed trace overwrites the one a lap older in that trace's own
//! allocation when no reader holds it: a request whose notes are static
//! strings and integers costs the recorder no allocation once the ring
//! has gone round once.
//!
//! When a completed trace looks like trouble — it recorded a fault, its
//! outcome is on the configured dump list (deadline refusals, sheds), or
//! it exceeded the slow threshold — the recorder snapshots the offending
//! trace plus the recent ring contents to a JSONL artifact, so the
//! post-mortem for "why was request 48211 slow at 03:12" needs no repro:
//! the evidence is already on disk. Dumps are rate-limited by
//! [`FlightConfig::max_dumps`] so a failure flood cannot fill the disk.

use crate::lock_recover;
use crate::sink::json_escape;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// An unsigned integer's decimal digits, formatted on the stack.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Decimal {
    digits: [u8; 20],
    start: u8,
}

impl Decimal {
    /// The digits of `n`, most significant first, no sign or padding.
    pub fn new(mut n: u64) -> Decimal {
        let mut digits = [0; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        Decimal {
            digits,
            start: start as u8,
        }
    }

    /// The digits as ASCII bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.digits[self.start as usize..]
    }

    /// The digits as text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("decimal digits are ASCII")
    }
}

impl std::fmt::Debug for Decimal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A trace note's value: a static string, an integer kept as its digits,
/// or an owned string for a caller that already holds one. Only the last
/// allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoteValue {
    /// A string that lives for the whole program (`"hit"`, `"replay"`).
    Static(&'static str),
    /// An integer (a count, a version).
    Int(Decimal),
    /// Any other text.
    Owned(String),
}

impl NoteValue {
    /// The value as the trace's JSON line spells it.
    pub fn as_str(&self) -> &str {
        match self {
            NoteValue::Static(s) => s,
            NoteValue::Int(d) => d.as_str(),
            NoteValue::Owned(s) => s,
        }
    }
}

impl Default for NoteValue {
    fn default() -> NoteValue {
        NoteValue::Static("")
    }
}

impl From<&'static str> for NoteValue {
    fn from(s: &'static str) -> NoteValue {
        NoteValue::Static(s)
    }
}

impl From<String> for NoteValue {
    fn from(s: String) -> NoteValue {
        NoteValue::Owned(s)
    }
}

impl From<u64> for NoteValue {
    fn from(n: u64) -> NoteValue {
        NoteValue::Int(Decimal::new(n))
    }
}

impl From<u32> for NoteValue {
    fn from(n: u32) -> NoteValue {
        NoteValue::Int(Decimal::new(n.into()))
    }
}

impl From<usize> for NoteValue {
    fn from(n: usize) -> NoteValue {
        NoteValue::Int(Decimal::new(n as u64))
    }
}

/// A list that keeps its first `N` entries inline and moves to the heap,
/// whole, only when a push finds it full. It reads as a slice.
#[derive(Clone)]
pub struct Inline<T, const N: usize>(Items<T, N>);

#[derive(Clone)]
enum Items<T, const N: usize> {
    Inline { len: usize, items: [T; N] },
    Heap(Vec<T>),
}

impl<T: Default, const N: usize> Inline<T, N> {
    fn new() -> Inline<T, N> {
        Inline(Items::Inline {
            len: 0,
            items: std::array::from_fn(|_| T::default()),
        })
    }

    fn push(&mut self, item: T) {
        match &mut self.0 {
            Items::Inline { len, items } if *len < N => {
                items[*len] = item;
                *len += 1;
            }
            Items::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * N + 1);
                heap.extend(items.iter_mut().map(std::mem::take));
                heap.push(item);
                self.0 = Items::Heap(heap);
            }
            Items::Heap(heap) => heap.push(item),
        }
    }
}

impl<T, const N: usize> Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Items::Inline { len, items } => &items[..*len],
            Items::Heap(heap) => heap,
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a Inline<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> std::slice::Iter<'a, T> {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for Inline<T, N> {
    fn eq(&self, other: &Inline<T, N>) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for Inline<T, N> {}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A trace's `(stage, duration_ns)` segments. A compile request marks at
/// most nine stages.
pub type Stages = Inline<(&'static str, u64), 10>;

/// A trace's `(key, value)` notes. A compile request writes at most seven.
pub type Notes = Inline<(&'static str, NoteValue), 8>;

/// A request trace under construction. Created by
/// [`FlightRecorder::begin`]; finished with [`TraceBuilder::finish`].
/// Its stages, notes and outcome live inline, so a trace that keeps to
/// static strings and integers allocates nothing.
#[derive(Debug)]
pub struct TraceBuilder {
    id: u64,
    start: Instant,
    start_unix_ms: u64,
    /// Nanoseconds from `start` to the last mark (the next segment's
    /// starting offset).
    last_ns: u64,
    stages: Stages,
    notes: Notes,
    fault_stage: Option<&'static str>,
    outcome: Option<Cow<'static, str>>,
}

impl TraceBuilder {
    fn new(id: u64) -> TraceBuilder {
        TraceBuilder {
            id,
            start: Instant::now(),
            start_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            last_ns: 0,
            stages: Inline::new(),
            notes: Inline::new(),
            fault_stage: None,
            outcome: None,
        }
    }

    /// The trace's monotonic request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The instant the trace began — callers that need a deadline
    /// anchored to "request accepted" use this rather than a second
    /// clock read.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Close the current segment: the phase named `stage` ran from the
    /// previous mark (or the start) until now.
    pub fn mark(&mut self, stage: &'static str) {
        let now_ns = self.start.elapsed().as_nanos() as u64;
        self.stages
            .push((stage, now_ns.saturating_sub(self.last_ns)));
        self.last_ns = now_ns;
    }

    /// Attach a key/value annotation (batch size, pass id, source, …).
    pub fn note(&mut self, key: &'static str, value: impl Into<NoteValue>) {
        self.notes.push((key, value.into()));
    }

    /// Record that a fault surfaced while `stage` was running. The first
    /// fault wins — it is the one that knocked the request off its happy
    /// path.
    pub fn fault(&mut self, stage: &'static str) {
        self.fault_stage.get_or_insert(stage);
    }

    /// Whether a fault has been recorded.
    pub fn faulted(&self) -> bool {
        self.fault_stage.is_some()
    }

    /// Set the request outcome (`ok:store`, `refused:deadline`, …). Last
    /// write wins; unset finishes as `"unknown"`.
    pub fn set_outcome(&mut self, outcome: impl Into<Cow<'static, str>>) {
        self.outcome = Some(outcome.into());
    }

    /// Seal the trace. Total time is the sum of the recorded segments
    /// (i.e. up to the last mark), so stage durations always decompose
    /// the total exactly.
    pub fn finish(self) -> RequestTrace {
        RequestTrace {
            id: self.id,
            start_unix_ms: self.start_unix_ms,
            total_ns: self.last_ns,
            outcome: self.outcome.unwrap_or(Cow::Borrowed("unknown")),
            stages: self.stages,
            notes: self.notes,
            fault_stage: self.fault_stage,
        }
    }
}

/// A completed, immutable request trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Monotonic request id (assigned at [`FlightRecorder::begin`]).
    pub id: u64,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub start_unix_ms: u64,
    /// Total nanoseconds across all stages (exactly the sum of
    /// `stages[..].1`).
    pub total_ns: u64,
    /// What became of the request (`ok:store`, `ok:policy`,
    /// `ok:baseline`, `refused:<kind>`, …).
    pub outcome: Cow<'static, str>,
    /// Consecutive `(stage, duration_ns)` segments, in timeline order.
    pub stages: Stages,
    /// Free-form `(key, value)` annotations.
    pub notes: Notes,
    /// The stage a fault surfaced in, if any.
    pub fault_stage: Option<&'static str>,
}

impl RequestTrace {
    /// Duration of the named stage, if it was recorded (first match).
    pub fn stage_ns(&self, stage: &str) -> Option<u64> {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|&(_, d)| d)
    }

    /// Value of the named note, if recorded (first match).
    pub fn note(&self, key: &str) -> Option<&str> {
        self.notes
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// One JSON object, no trailing newline:
    /// `{"type":"trace","id":…,"stages":[["parse",1234],…],…}`.
    fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(
            out,
            "{{\"type\":\"trace\",\"id\":{},\"start_unix_ms\":{},\"total_ns\":{},\"outcome\":\"{}\"",
            self.id,
            self.start_unix_ms,
            self.total_ns,
            json_escape(&self.outcome)
        );
        match self.fault_stage {
            Some(s) => {
                let _ = write!(out, ",\"fault_stage\":\"{}\"", json_escape(s));
            }
            None => out.push_str(",\"fault_stage\":null"),
        }
        out.push_str(",\"stages\":[");
        for (i, (stage, ns)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[\"{}\",{ns}]", json_escape(stage));
        }
        out.push_str("],\"notes\":[");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "[\"{}\",\"{}\"]",
                json_escape(k),
                json_escape(v.as_str())
            );
        }
        out.push_str("]}");
        out
    }
}

/// Flight-recorder knobs.
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Ring capacity: how many recent traces are kept (the memory bound
    /// is `capacity` traces, each under a kilobyte).
    pub capacity: usize,
    /// A completed trace slower than this triggers a dump (`None`
    /// disables the slow trigger).
    pub slow_threshold: Option<Duration>,
    /// Where dump artifacts are written (`None` disables dumps
    /// entirely; the ring still records).
    pub dump_dir: Option<PathBuf>,
    /// Hard cap on dump artifacts per recorder lifetime — a failure
    /// flood must not fill the disk.
    pub max_dumps: usize,
    /// Rotation: at most this many `flight-*.jsonl` files are kept in
    /// the dump directory; writing a new one deletes the oldest beyond
    /// the cap. Unlike [`max_dumps`](FlightConfig::max_dumps) (which
    /// bounds one recorder's lifetime), this bounds the *directory*
    /// across daemon restarts. 0 disables rotation.
    pub max_dump_files: usize,
    /// Outcomes that trigger a dump on sight (e.g. `refused:deadline`,
    /// `refused:overloaded`). Matched exactly.
    pub dump_outcomes: Vec<String>,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            capacity: 256,
            slow_threshold: None,
            dump_dir: None,
            max_dumps: 32,
            max_dump_files: 64,
            dump_outcomes: Vec::new(),
        }
    }
}

/// Why a dump artifact was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpTrigger {
    /// The trace recorded a fault (`fault_stage` is set).
    Fault,
    /// The trace's outcome is on [`FlightConfig::dump_outcomes`].
    Outcome,
    /// The trace exceeded [`FlightConfig::slow_threshold`].
    Slow,
}

impl DumpTrigger {
    fn as_str(self) -> &'static str {
        match self {
            DumpTrigger::Fault => "fault",
            DumpTrigger::Outcome => "outcome",
            DumpTrigger::Slow => "slow",
        }
    }
}

/// The ring of recent traces plus the dump machinery (see module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    next_id: AtomicU64,
    /// Total completed traces (the ring write head; slot = head % cap).
    head: AtomicU64,
    slots: Vec<Mutex<Option<Arc<RequestTrace>>>>,
    dumps_written: AtomicUsize,
}

impl FlightRecorder {
    /// Build a recorder. Capacity is clamped to at least 1.
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        let capacity = cfg.capacity.max(1);
        FlightRecorder {
            next_id: AtomicU64::new(0),
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            dumps_written: AtomicUsize::new(0),
            cfg: FlightConfig { capacity, ..cfg },
        }
    }

    /// Start a trace with the next monotonic request id.
    pub fn begin(&self) -> TraceBuilder {
        TraceBuilder::new(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Number of traces completed over the recorder's lifetime.
    pub fn completed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Record a completed trace into the ring and fire any dump trigger
    /// it matches. Returns the shared trace (and the dump path, when one
    /// was written).
    pub fn complete(&self, trace: RequestTrace) -> (Arc<RequestTrace>, Option<PathBuf>) {
        let trigger = if trace.fault_stage.is_some() {
            Some(DumpTrigger::Fault)
        } else if self.cfg.dump_outcomes.iter().any(|o| *o == trace.outcome) {
            Some(DumpTrigger::Outcome)
        } else if self
            .cfg
            .slow_threshold
            .is_some_and(|t| trace.total_ns > t.as_nanos() as u64)
        {
            Some(DumpTrigger::Slow)
        } else {
            None
        };
        let idx = (self.head.fetch_add(1, Ordering::AcqRel) as usize) % self.cfg.capacity;
        let trace = {
            let mut slot = lock_recover(&self.slots[idx]);
            // The lap-old trace's allocation takes the new one unless a
            // reader still holds it.
            if let Some(resident) = slot.as_mut().and_then(Arc::get_mut) {
                *resident = trace;
            } else {
                *slot = Some(Arc::new(trace));
            }
            Arc::clone(slot.as_ref().expect("the slot was just filled"))
        };
        crate::incr("flight.completed", "", 1);
        let path = trigger.and_then(|t| self.dump(t, &trace));
        (trace, path)
    }

    /// The most recent completed traces, newest first, at most
    /// `min(k, capacity)` of them.
    pub fn recent(&self, k: usize) -> Vec<Arc<RequestTrace>> {
        let head = self.head.load(Ordering::Acquire);
        let want = k.min(self.cfg.capacity).min(head as usize);
        let mut out = Vec::with_capacity(want);
        for back in 1..=want as u64 {
            let idx = ((head - back) as usize) % self.cfg.capacity;
            let slot = lock_recover(&self.slots[idx]);
            if let Some(t) = slot.as_ref() {
                out.push(Arc::clone(t));
            }
        }
        out
    }

    /// The most recent `k` traces rendered as JSONL, newest first.
    pub fn render_recent(&self, k: usize) -> String {
        let mut out = String::new();
        for t in self.recent(k) {
            out.push_str(&t.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Write a dump artifact: a header line naming the trigger, the
    /// offending trace, then the recent ring contents (newest first).
    /// Returns the path, or `None` when dumps are disabled, the cap is
    /// reached, or the write failed (dumping must never take the
    /// service down).
    fn dump(&self, trigger: DumpTrigger, offending: &Arc<RequestTrace>) -> Option<PathBuf> {
        let dir = self.cfg.dump_dir.as_ref()?;
        // Rate limit: claim a dump slot, give it back on any failure.
        let claimed = self
            .dumps_written
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cfg.max_dumps).then_some(n + 1)
            })
            .is_ok();
        if !claimed {
            crate::incr("flight.dump_suppressed", trigger.as_str(), 1);
            return None;
        }
        let mut body = String::new();
        let _ = writeln!(
            body,
            "{{\"type\":\"flight_dump\",\"trigger\":\"{}\",\"offending_id\":{},\"fault_stage\":{},\"unix_ms\":{}}}",
            trigger.as_str(),
            offending.id,
            match offending.fault_stage {
                Some(s) => format!("\"{}\"", json_escape(s)),
                None => "null".to_string(),
            },
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis())
                .unwrap_or(0)
        );
        body.push_str(&offending.to_json_line());
        body.push('\n');
        for t in self.recent(self.cfg.capacity) {
            if t.id != offending.id {
                body.push_str(&t.to_json_line());
                body.push('\n');
            }
        }
        let file = format!("flight-{:08}-{}.jsonl", offending.id, trigger.as_str());
        let path = crate::sink::write_artifact(dir.to_str()?, &file, &body)?;
        crate::incr("flight.dump", trigger.as_str(), 1);
        rotate_dumps(dir, self.cfg.max_dump_files);
        Some(path)
    }
}

/// Keep the newest `keep` `flight-*.jsonl` artifacts in `dir`, deleting
/// the rest (oldest first, by modification time with the file name as a
/// deterministic tie-break). Deleted files land in the
/// `flight.dump_rotated` counter. Every error is swallowed — rotation is
/// hygiene, and hygiene must never take the service down.
fn rotate_dumps(dir: &std::path::Path, keep: usize) {
    if keep == 0 {
        return;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut dumps: Vec<(std::time::SystemTime, String, PathBuf)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_str()?.to_string();
            if !(name.starts_with("flight-") && name.ends_with(".jsonl")) {
                return None;
            }
            let mtime = e
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(UNIX_EPOCH);
            Some((mtime, name, e.path()))
        })
        .collect();
    if dumps.len() <= keep {
        return;
    }
    dumps.sort();
    let excess = dumps.len() - keep;
    let mut rotated = 0u64;
    for (_, _, path) in dumps.into_iter().take(excess) {
        if std::fs::remove_file(path).is_ok() {
            rotated += 1;
        }
    }
    if rotated > 0 {
        crate::incr("flight.dump_rotated", "", rotated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(
        rec: &FlightRecorder,
        outcome: impl Into<Cow<'static, str>>,
        stages: &[(&'static str, u64)],
    ) -> RequestTrace {
        let mut t = rec.begin();
        for &(s, _) in stages {
            t.mark(s);
        }
        t.set_outcome(outcome);
        t.finish()
    }

    #[test]
    fn stage_durations_sum_exactly_to_total() {
        let rec = FlightRecorder::new(FlightConfig::default());
        let mut t = rec.begin();
        std::thread::sleep(Duration::from_millis(1));
        t.mark("parse");
        std::thread::sleep(Duration::from_millis(1));
        t.mark("store");
        t.mark("reply_write");
        t.set_outcome("ok:store");
        let done = t.finish();
        let sum: u64 = done.stages.iter().map(|&(_, d)| d).sum();
        assert_eq!(sum, done.total_ns);
        assert_eq!(done.stages.len(), 3);
        assert!(done.stage_ns("parse").unwrap() >= 1_000_000);
    }

    #[test]
    fn a_trace_past_its_inline_room_keeps_every_stage_and_note() {
        let rec = FlightRecorder::new(FlightConfig::default());
        let mut t = rec.begin();
        let names = [
            "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
        ];
        for (i, &name) in names.iter().enumerate() {
            t.mark(name);
            t.note(name, i);
        }
        let done = t.finish();
        let marked: Vec<&str> = done.stages.iter().map(|&(s, _)| s).collect();
        assert_eq!(marked, names);
        assert_eq!(
            done.stages.iter().map(|&(_, d)| d).sum::<u64>(),
            done.total_ns
        );
        assert_eq!(done.notes.len(), names.len());
        assert_eq!(done.note("s11"), Some("11"));
        assert_eq!(done.clone(), done);
    }

    #[test]
    fn decimals_spell_every_width() {
        for n in [0, 7, 10, 99, 1_000, 4_294_967_295, u64::MAX] {
            assert_eq!(Decimal::new(n).as_str(), n.to_string());
        }
        assert_eq!(NoteValue::from(12u32).as_str(), "12");
        assert_eq!(NoteValue::from(String::from("x y")).as_str(), "x y");
    }

    /// A completed trace lands in the allocation of the one a lap older,
    /// unless a reader still holds that one: the reader's copy stays as
    /// it was.
    #[test]
    fn a_ring_slot_is_reused_unless_a_reader_holds_it() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 1,
            ..FlightConfig::default()
        });
        let first = Arc::as_ptr(&rec.complete(finished(&rec, "ok:store", &[("a", 0)])).0);
        let (second, _) = rec.complete(finished(&rec, "ok:policy", &[("a", 0)]));
        assert_eq!(
            Arc::as_ptr(&second),
            first,
            "the slot's allocation was reused"
        );
        assert_eq!((second.id, &*second.outcome), (1, "ok:policy"));
        let held = second;
        let (third, _) = rec.complete(finished(&rec, "ok:baseline", &[("a", 0)]));
        assert_ne!(Arc::as_ptr(&third), Arc::as_ptr(&held));
        assert_eq!((held.id, &*held.outcome), (1, "ok:policy"));
        assert_eq!(rec.recent(1)[0].id, 2);
    }

    #[test]
    fn ring_keeps_the_newest_capacity_traces() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 4,
            ..FlightConfig::default()
        });
        for i in 0..10 {
            let done = finished(&rec, format!("ok:{i}"), &[("a", 0)]);
            rec.complete(done);
        }
        let recent = rec.recent(100);
        assert_eq!(recent.len(), 4, "capacity bound violated");
        let ids: Vec<u64> = recent.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![9, 8, 7, 6], "not newest-first");
        assert_eq!(rec.completed(), 10);
        // A smaller ask returns exactly that many.
        assert_eq!(rec.recent(2).len(), 2);
    }

    #[test]
    fn json_lines_are_escaped_and_shaped() {
        let rec = FlightRecorder::new(FlightConfig::default());
        let mut t = rec.begin();
        t.mark("parse");
        t.note("detail", "quote\" and \\slash\nnewline");
        t.fault("parse");
        t.set_outcome("refused:parse");
        let line = t.finish().to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(!line.contains('\n'), "{line}");
        assert!(line.contains("\"fault_stage\":\"parse\""), "{line}");
        assert!(line.contains("quote\\\" and \\\\slash\\nnewline"), "{line}");
    }

    #[test]
    fn fault_first_wins_and_triggers_a_dump() {
        let dir = std::env::temp_dir().join(format!("autophase_flight_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(FlightConfig {
            dump_dir: Some(dir.clone()),
            ..FlightConfig::default()
        });
        // Some context traffic first.
        for _ in 0..3 {
            let done = finished(&rec, "ok:policy", &[("a", 0)]);
            rec.complete(done);
        }
        let mut t = rec.begin();
        t.mark("rollout");
        t.fault("rollout");
        t.fault("profile"); // later fault must not overwrite the first
        t.set_outcome("ok:baseline");
        let (_, path) = rec.complete(t.finish());
        let path = path.expect("fault must dump");
        let body = std::fs::read_to_string(&path).unwrap();
        let mut lines = body.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("\"trigger\":\"fault\""), "{header}");
        assert!(header.contains("\"fault_stage\":\"rollout\""), "{header}");
        // Offending trace first, then the ring context.
        assert!(lines
            .next()
            .unwrap()
            .contains("\"fault_stage\":\"rollout\""));
        assert!(body.lines().count() >= 5, "ring context missing:\n{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_and_outcome_triggers_fire_and_rate_limit_holds() {
        let dir = std::env::temp_dir().join(format!("autophase_flight_rl_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(FlightConfig {
            dump_dir: Some(dir.clone()),
            slow_threshold: Some(Duration::from_nanos(1)),
            dump_outcomes: vec!["refused:deadline".to_string()],
            max_dumps: 2,
            ..FlightConfig::default()
        });
        // Outcome trigger.
        let mut t = rec.begin();
        t.mark("queue_wait");
        t.set_outcome("refused:deadline");
        let (_, p1) = rec.complete(t.finish());
        assert!(p1.is_some(), "outcome trigger did not dump");
        // Slow trigger (1 ns threshold: any real trace exceeds it).
        let mut t = rec.begin();
        std::thread::sleep(Duration::from_millis(1));
        t.mark("rollout");
        t.set_outcome("ok:policy");
        let (_, p2) = rec.complete(t.finish());
        assert!(p2.is_some(), "slow trigger did not dump");
        // Cap reached: further triggers are suppressed, service goes on.
        let mut t = rec.begin();
        std::thread::sleep(Duration::from_millis(1));
        t.mark("rollout");
        t.set_outcome("ok:policy");
        let (_, p3) = rec.complete(t.finish());
        assert!(p3.is_none(), "max_dumps not enforced");
        assert_eq!(rec.dumps_written.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_rotation_keeps_only_the_newest_files() {
        let dir = std::env::temp_dir().join(format!("autophase_flight_rot_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(FlightConfig {
            dump_dir: Some(dir.clone()),
            max_dumps: 16,
            max_dump_files: 3,
            ..FlightConfig::default()
        });
        for _ in 0..6 {
            let mut t = rec.begin();
            t.mark("rollout");
            t.fault("rollout");
            t.set_outcome("ok:baseline");
            let (_, path) = rec.complete(t.finish());
            assert!(path.is_some(), "fault must dump");
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .filter(|n| n.starts_with("flight-") && n.ends_with(".jsonl"))
            .collect();
        names.sort();
        assert_eq!(names.len(), 3, "rotation cap violated: {names:?}");
        // Zero-padded ids sort lexicographically: the survivors are the
        // three newest dumps.
        assert!(
            names[0].starts_with("flight-00000003"),
            "oldest kept was {names:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dumps_disabled_without_a_dir() {
        let rec = FlightRecorder::new(FlightConfig {
            slow_threshold: Some(Duration::from_nanos(1)),
            ..FlightConfig::default()
        });
        let mut t = rec.begin();
        std::thread::sleep(Duration::from_millis(1));
        t.mark("a");
        t.set_outcome("ok:policy");
        let (_, path) = rec.complete(t.finish());
        assert!(path.is_none());
        assert_eq!(rec.dumps_written.load(Ordering::Relaxed), 0);
    }
}
