//! Text sinks: JSONL instrument dump, human summary.
//!
//! Sinks are pure renderers over a registry [`crate::Snapshot`] — they
//! read instruments, never mutate them, and can be called any number of
//! times. The JSON is emitted by hand (this crate is dependency-free);
//! instrument names and labels are short identifier-like strings, but
//! escaping is complete anyway.

use crate::metrics::Snapshot;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Escape a string for a JSON string literal (without the quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a finite `f64` for JSON (NaN/inf become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `name{label}` or bare `name` when the label is empty.
fn display_key(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// Human formatting for a value: durations (names ending in `_ns`) get
/// time units, everything else thousands separators are skipped in favour
/// of plain integers.
fn fmt_value(name: &str, v: u64) -> String {
    if !name.ends_with("_ns") {
        return v.to_string();
    }
    let ns = v as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

fn fmt_mean(name: &str, v: f64) -> String {
    if name.ends_with("_ns") {
        fmt_value(name, v.round() as u64)
    } else {
        format!("{v:.1}")
    }
}

/// Render the end-of-run human summary table from the live registry.
pub fn render_summary() -> String {
    render_summary_from(&crate::snapshot())
}

/// Render the summary table from an explicit snapshot.
///
/// Instruments that never fired (zero-valued counters, zero-count
/// histograms) are omitted — e.g. the pass registry eagerly registers all
/// 46 passes, but a run that only touched a dozen should print a dozen
/// rows. The JSONL sink keeps everything.
fn render_summary_from(snap: &Snapshot) -> String {
    let mut out = String::from("== telemetry summary ==\n");
    let counters: Vec<_> = snap.counters.iter().filter(|c| c.value > 0).collect();
    let histograms: Vec<_> = snap.histograms.iter().filter(|h| h.count > 0).collect();
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for c in &counters {
            let _ = writeln!(
                out,
                "  {:<44} {:>12}",
                display_key(c.name, &c.label),
                c.value
            );
        }
    }
    if !snap.gauges.is_empty() {
        out.push_str("gauges:\n");
        for g in &snap.gauges {
            let _ = writeln!(
                out,
                "  {:<44} {:>12.3}",
                display_key(g.name, &g.label),
                g.value
            );
        }
    }
    if !histograms.is_empty() {
        let _ = writeln!(
            out,
            "histograms: {:<32} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "", "count", "mean", "p50", "p95", "p99", "max"
        );
        for h in &histograms {
            let _ = writeln!(
                out,
                "  {:<42} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                display_key(h.name, &h.label),
                h.count,
                fmt_mean(h.name, h.sum as f64 / h.count as f64),
                fmt_value(h.name, h.p50),
                fmt_value(h.name, h.p95),
                fmt_value(h.name, h.p99),
                fmt_value(h.name, h.max),
            );
        }
    }
    if counters.is_empty() && snap.gauges.is_empty() && histograms.is_empty() {
        out.push_str("(no instruments recorded)\n");
    }
    out
}

/// Render the live registry as JSONL: [`render_metrics_jsonl_from`] over
/// a fresh snapshot. Machine-readable without parsing stdout.
pub fn render_jsonl() -> String {
    render_metrics_jsonl_from(&crate::snapshot())
}

/// JSONL of the registry instruments — one `counter`/`gauge`/`histogram`
/// object per line. This is the wire body a live service answers stats
/// queries with, and the figure binaries' `--telemetry jsonl` artifact.
pub fn render_metrics_jsonl_from(snap: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"label\":\"{}\",\"value\":{}}}",
            json_escape(c.name),
            json_escape(&c.label),
            c.value
        );
    }
    for g in &snap.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"label\":\"{}\",\"value\":{}}}",
            json_escape(g.name),
            json_escape(&g.label),
            json_f64(g.value)
        );
    }
    for h in &snap.histograms {
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|(bound, count)| format!("[{bound},{count}]"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"label\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
            json_escape(h.name),
            json_escape(&h.label),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50,
            h.p90,
            h.p95,
            h.p99,
            buckets.join(",")
        );
    }
    out
}

/// Write `contents` to `dir/file`, creating `dir` if needed. Returns the
/// written path. Errors are reported, not fatal — telemetry must never
/// take a run down.
pub fn write_artifact(dir: &str, file: &str, contents: &str) -> Option<PathBuf> {
    let dir = Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("telemetry: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(file);
    match std::fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("telemetry: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot};

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![CounterSnapshot {
                name: "pass.invocations",
                label: "-gvn".to_string(),
                value: 3,
            }],
            gauges: vec![GaugeSnapshot {
                name: "evalcache.hit_rate",
                label: String::new(),
                value: 0.75,
            }],
            histograms: vec![HistogramSnapshot {
                name: "pass.apply_ns",
                label: "-gvn".to_string(),
                count: 2,
                sum: 3_000,
                min: 1_000,
                max: 2_000,
                p50: 1_000,
                p90: 2_000,
                p95: 2_000,
                p99: 2_000,
                buckets: vec![(1_000, 1), (2_000, 1)],
            }],
        }
    }

    #[test]
    fn summary_lists_every_section() {
        let s = render_summary_from(&sample_snapshot());
        assert!(s.contains("pass.invocations{-gvn}"), "{s}");
        assert!(s.contains("evalcache.hit_rate"), "{s}");
        assert!(s.contains("pass.apply_ns{-gvn}"), "{s}");
        assert!(s.contains("1.5us"), "mean should be humanized: {s}");
    }

    #[test]
    fn summary_omits_instruments_that_never_fired() {
        let mut snap = sample_snapshot();
        snap.counters.push(CounterSnapshot {
            name: "pass.invocations",
            label: "-sccp".to_string(),
            value: 0,
        });
        snap.histograms.push(HistogramSnapshot {
            name: "pass.apply_ns",
            label: "-sccp".to_string(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p95: 0,
            p99: 0,
            buckets: vec![],
        });
        let s = render_summary_from(&snap);
        assert!(!s.contains("-sccp"), "{s}");
        assert!(s.contains("pass.invocations{-gvn}"), "{s}");
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn metrics_jsonl_has_no_spans_or_trailer() {
        let j = render_metrics_jsonl_from(&sample_snapshot());
        for line in j.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(
                ["counter", "gauge", "histogram"]
                    .iter()
                    .any(|t| line.starts_with(&format!("{{\"type\":\"{t}\""))),
                "{line}"
            );
        }
        assert_eq!(j.lines().count(), 3, "one line per instrument: {j}");
        assert!(j.contains("\"buckets\":[[1000,1],[2000,1]]"), "{j}");
        assert!(j.contains("\"p95\":"), "{j}");
    }
}
