//! Client-side view of a `STATS` reply.
//!
//! The wire body is the telemetry registry rendered as metrics JSONL
//! (`autophase_telemetry::render_metrics_jsonl_from`): one
//! `counter`/`gauge`/`histogram` object per line with a fixed key
//! shape. This module parses that body back into lookup tables so the
//! `serve top` dashboard, the benches, and the smoke tests can read a
//! live daemon's instruments without a JSON dependency. Unknown line
//! types and malformed lines are skipped, not fatal — a newer daemon
//! must remain introspectable by an older client.

use std::collections::HashMap;

/// Summary statistics of one histogram instrument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistStat {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Interpolated 50th percentile.
    pub p50: u64,
    /// Interpolated 90th percentile.
    pub p90: u64,
    /// Interpolated 95th percentile.
    pub p95: u64,
    /// Interpolated 99th percentile.
    pub p99: u64,
}

/// A parsed `STATS` body: instruments keyed by `(name, label)`.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Counter values.
    pub counters: HashMap<(String, String), u64>,
    /// Gauge values.
    pub gauges: HashMap<(String, String), f64>,
    /// Histogram summaries.
    pub hists: HashMap<(String, String), HistStat>,
}

impl StatsSnapshot {
    /// Parse a metrics-JSONL body. Never fails: unparseable lines are
    /// skipped.
    pub fn parse(body: &str) -> StatsSnapshot {
        let mut snap = StatsSnapshot::default();
        for line in body.lines() {
            let Some(ty) = get_str(line, "type") else {
                continue;
            };
            let Some(name) = get_str(line, "name") else {
                continue;
            };
            let label = get_str(line, "label").unwrap_or_default();
            let key = (name, label);
            match ty.as_str() {
                "counter" => {
                    if let Some(v) = get_u64(line, "value") {
                        snap.counters.insert(key, v);
                    }
                }
                "gauge" => {
                    if let Some(v) = get_f64(line, "value") {
                        snap.gauges.insert(key, v);
                    }
                }
                "histogram" => {
                    snap.hists.insert(
                        key,
                        HistStat {
                            count: get_u64(line, "count").unwrap_or(0),
                            sum: get_u64(line, "sum").unwrap_or(0),
                            min: get_u64(line, "min").unwrap_or(0),
                            max: get_u64(line, "max").unwrap_or(0),
                            p50: get_u64(line, "p50").unwrap_or(0),
                            p90: get_u64(line, "p90").unwrap_or(0),
                            p95: get_u64(line, "p95").unwrap_or(0),
                            p99: get_u64(line, "p99").unwrap_or(0),
                        },
                    );
                }
                _ => {}
            }
        }
        snap
    }

    /// Counter value, 0 when absent.
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters
            .get(&(name.to_string(), label.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Gauge value, 0.0 when absent.
    pub fn gauge(&self, name: &str, label: &str) -> f64 {
        self.gauges
            .get(&(name.to_string(), label.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Histogram summary, if that instrument exists.
    pub fn hist(&self, name: &str, label: &str) -> Option<HistStat> {
        self.hists
            .get(&(name.to_string(), label.to_string()))
            .copied()
    }

    /// Every label of one histogram family (e.g. the stages of
    /// `serve.stage_ns`), sorted by label.
    pub fn hist_family(&self, name: &str) -> Vec<(String, HistStat)> {
        let mut out: Vec<(String, HistStat)> = self
            .hists
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|((_, l), h)| (l.clone(), *h))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Sum every counter of one family (e.g. all `serve.req` outcomes).
    pub fn counter_family_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }
}

/// One registry (or live-serving) model version from a `MODEL` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelVersionStat {
    /// Registry version number (0 is the daemon's boot policy).
    pub version: u64,
    /// Transitions the learner had ingested when this version published.
    pub samples: u64,
    /// PPO updates behind this version.
    pub updates: u64,
    /// Whether the engine is serving this version.
    pub serving: bool,
    /// Policy-sourced compiles this version answered.
    pub requests: u64,
    /// Of those, how many had an `-O3` reference to compare against
    /// (none without a registry, or when `-O3` could not be profiled).
    pub compared: u64,
    /// Of the compared, how many matched or beat the `-O3` cycle count.
    pub wins: u64,
    /// Of the requests, how many inserted/improved a persistent-store
    /// entry.
    pub store_inserts: u64,
    /// Mean relative improvement over `-O3` across the compared requests
    /// (positive = fewer cycles than `-O3`).
    pub mean_improvement: f64,
}

/// A parsed `MODEL` body: the registry's versions plus what the engine
/// is serving right now.
#[derive(Debug, Clone, Default)]
pub struct ModelsSnapshot {
    /// Every version line, in registry order.
    pub versions: Vec<ModelVersionStat>,
    /// Version currently serving, if any policy is live.
    pub serving: Option<u64>,
    /// Lifetime hot-swaps the engine has applied.
    pub swaps: u64,
    /// Whether the daemon has a model registry at all.
    pub registry: bool,
}

impl ModelsSnapshot {
    /// Parse a `MODEL` JSONL body. Never fails: unparseable lines are
    /// skipped, so a newer daemon stays readable by an older client.
    pub fn parse(body: &str) -> ModelsSnapshot {
        let mut snap = ModelsSnapshot::default();
        for line in body.lines() {
            match get_str(line, "type").as_deref() {
                Some("model") => {
                    let Some(version) = get_u64(line, "version") else {
                        continue;
                    };
                    snap.versions.push(ModelVersionStat {
                        version,
                        samples: get_u64(line, "samples").unwrap_or(0),
                        updates: get_u64(line, "updates").unwrap_or(0),
                        serving: get_u64(line, "serving") == Some(1),
                        requests: get_u64(line, "requests").unwrap_or(0),
                        compared: get_u64(line, "compared").unwrap_or(0),
                        wins: get_u64(line, "wins").unwrap_or(0),
                        store_inserts: get_u64(line, "store_inserts").unwrap_or(0),
                        mean_improvement: get_f64(line, "mean_improvement").unwrap_or(0.0),
                    });
                }
                Some("model_summary") => {
                    snap.serving = get_i64(line, "serving")
                        .filter(|&v| v >= 0)
                        .map(|v| v as u64);
                    snap.swaps = get_u64(line, "swaps").unwrap_or(0);
                    snap.registry = get_u64(line, "registry") == Some(1);
                }
                _ => {}
            }
        }
        snap
    }

    /// The stat line for one version, if present.
    pub fn version(&self, version: u64) -> Option<&ModelVersionStat> {
        self.versions.iter().find(|v| v.version == version)
    }
}

/// Extract `"key":"string"` from a one-line JSON object, unescaping the
/// common escapes the telemetry sink emits.
fn get_str(line: &str, key: &str) -> Option<String> {
    let rest = field(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            _ => out.push(c),
        }
    }
    None
}

fn get_u64(line: &str, key: &str) -> Option<u64> {
    num_prefix(field(line, key)?).parse().ok()
}

fn get_i64(line: &str, key: &str) -> Option<i64> {
    num_prefix(field(line, key)?).parse().ok()
}

fn get_f64(line: &str, key: &str) -> Option<f64> {
    num_prefix(field(line, key)?).parse().ok()
}

/// The value substring starting right after `"key":`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)?;
    Some(&line[i + pat.len()..])
}

/// Longest numeric prefix (digits, sign, dot, exponent).
fn num_prefix(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(s.len());
    &s[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_telemetry as telemetry;

    #[test]
    fn parses_what_the_sink_renders() {
        // Build a snapshot through the real registry so the parser is
        // pinned against the actual wire shape, not a hand-written copy.
        // The instruments are this test's own, so it neither resets nor
        // disables the registry other tests in the process count into.
        telemetry::enable();
        telemetry::incr("stats.test_req", "ok_store", 3);
        telemetry::incr("stats.test_req", "err_parse", 1);
        telemetry::set_gauge("stats.test_depth", "", 2.5);
        for v in [100, 200, 300, 400] {
            telemetry::observe("stats.test_ns", "parse", v);
        }
        let body = telemetry::render_metrics_jsonl_from(&telemetry::snapshot());

        let snap = StatsSnapshot::parse(&body);
        assert_eq!(snap.counter("stats.test_req", "ok_store"), 3);
        assert_eq!(snap.counter("stats.test_req", "err_parse"), 1);
        assert_eq!(snap.counter_family_total("stats.test_req"), 4);
        assert_eq!(snap.counter("stats.test_req", "nope"), 0);
        assert!((snap.gauge("stats.test_depth", "") - 2.5).abs() < 1e-9);
        let h = snap.hist("stats.test_ns", "parse").expect("histogram");
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1000);
        assert_eq!(h.min, 100);
        assert_eq!(h.max, 400);
        assert!(h.p50 > 0 && h.p50 <= h.p99);
        let fam = snap.hist_family("stats.test_ns");
        assert_eq!(fam.len(), 1);
        assert_eq!(fam[0].0, "parse");
    }

    #[test]
    fn parses_model_bodies() {
        let body = "{\"type\":\"model\",\"version\":1,\"samples\":96,\"updates\":2,\"serving\":0,\
                    \"requests\":10,\"compared\":8,\"wins\":7,\"store_inserts\":4,\
                    \"mean_improvement\":0.125000}\n\
                    {\"type\":\"model\",\"version\":2,\"samples\":192,\"updates\":4,\"serving\":1,\
                    \"requests\":3,\"compared\":3,\"wins\":3,\"store_inserts\":1,\
                    \"mean_improvement\":0.200000}\n\
                    garbage line\n\
                    {\"type\":\"model_summary\",\"serving\":2,\"swaps\":5,\"registry\":1}\n";
        let snap = ModelsSnapshot::parse(body);
        assert_eq!(snap.versions.len(), 2);
        assert_eq!(snap.serving, Some(2));
        assert_eq!(snap.swaps, 5);
        assert!(snap.registry);
        let v1 = snap.version(1).expect("v1 present");
        assert!(!v1.serving);
        assert_eq!((v1.requests, v1.compared, v1.wins), (10, 8, 7));
        assert!((v1.mean_improvement - 0.125).abs() < 1e-9);
        assert!(snap.version(2).expect("v2 present").serving);
        assert!(snap.version(9).is_none());

        // A baseline-only daemon: no versions, serving=-1.
        let empty = ModelsSnapshot::parse(
            "{\"type\":\"model_summary\",\"serving\":-1,\"swaps\":0,\"registry\":0}\n",
        );
        assert!(empty.versions.is_empty());
        assert_eq!(empty.serving, None);
        assert!(!empty.registry);
    }

    #[test]
    fn hostile_and_malformed_lines_are_skipped() {
        let body = "not json\n\
                    {\"type\":\"counter\",\"name\":\"a\"}\n\
                    {\"type\":\"counter\",\"name\":\"esc\",\"label\":\"q\\\"uote\\\\\",\"value\":7}\n\
                    {\"type\":\"mystery\",\"name\":\"x\",\"value\":1}\n";
        let snap = StatsSnapshot::parse(body);
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counter("esc", "q\"uote\\"), 7);
    }
}
