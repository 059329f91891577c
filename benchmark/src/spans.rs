//! In-memory spans around the benchmark's calls into each layer.
//!
//! One span per public call: name, start, end, the span that caused it,
//! and the request (program index) it belongs to. Spans stay in memory
//! and are written as JSONL when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The public function (or replay phase) the span wraps.
    pub name: &'static str,
    /// Qualifier, e.g. the pass name of an apply; empty when none.
    pub detail: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Request identifier shared by every span of one replayed request.
    pub request: usize,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread; nesting follows the call structure.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, detail: &'static str, request: usize) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            detail,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span and return its result with the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.enter(name, detail, request);
        let out = f();
        self.exit(id);
        (out, self.spans[id].duration_ns())
    }

    /// Every span recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSONL, one object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"request\":{}}}",
                s.name, s.detail, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover. A child is clipped to its parent's interval, so a
/// self time is never negative and the self times of one tree sum to at
/// most the root's duration (exactly, when children lie inside parents).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p];
        let start = s.start_ns.max(parent.start_ns);
        let end = s.end_ns.min(parent.end_ns);
        own[p] = own[p].saturating_sub(end.saturating_sub(start));
    }
    own
}

/// Sum of the self times of every non-root span of each request tree
/// rooted at a span named `root`: the time the replay spent *inside
/// layers*, excluding the replay's own bookkeeping between calls.
/// Returned per request, in root order.
pub fn layer_time_per_request(spans: &[Span], root: &str) -> Vec<(usize, u64)> {
    let own = self_times(spans);
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut out: Vec<(usize, u64)> = Vec::new();
    let mut slot: Vec<Option<usize>> = vec![None; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None if s.name == root => {
                root_of[i] = Some(i);
                slot[i] = Some(out.len());
                out.push((s.request, 0));
            }
            None => {}
            // Parents are created before children, so `root_of[p]` is final.
            Some(p) => {
                root_of[i] = root_of[p];
                if let Some(r) = root_of[i] {
                    out[slot[r].expect("root has a slot")].1 += own[i];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            detail: "",
            start_ns: start,
            end_ns: end,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_times_tile_the_root() {
        // request [0,100) -> parse [10,30), rollout [30,90) -> apply [40,60), apply [60,85)
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("rollout", 30, 90, Some(0)),
            span("apply", 40, 60, Some(2)),
            span("apply", 60, 85, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 20, 15, 20, 25]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        assert_eq!(layer_time_per_request(&spans, "request"), vec![(7, 80)]);
    }

    #[test]
    fn children_never_exceed_their_parent() {
        // A child that (wrongly) outlives its parent is clipped, and a
        // child entirely outside covers nothing: self time stays >= 0.
        let spans = vec![
            span("request", 100, 200, None),
            span("late", 150, 400, Some(0)),
            span("outside", 300, 350, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 50);
        for (s, o) in spans.iter().zip(&own) {
            assert!(*o <= s.duration_ns());
        }
    }

    #[test]
    fn other_roots_do_not_count_toward_the_request() {
        let spans = vec![
            span("request", 0, 50, None),
            span("parse", 0, 40, Some(0)),
            span("open_rollout", 50, 90, None),
            span("apply", 55, 80, Some(2)),
        ];
        assert_eq!(layer_time_per_request(&spans, "request"), vec![(7, 40)]);
        assert_eq!(
            layer_time_per_request(&spans, "open_rollout"),
            vec![(7, 25)]
        );
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new();
        let root = rec.enter("request", "", 3);
        let (v, _) = rec.time("parse", "", 3, || 41 + 1);
        assert_eq!(v, 42);
        rec.exit(root);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
