//! The flight recorder's text, byte for byte: the trace JSON lines
//! `render_recent` returns (the body of the daemon's `TRACE` reply) and
//! the bytes of a dump artifact, for fixed traces carrying string and
//! numeric notes, a fault stage and every outcome string the daemon seals
//! a trace with. Clock readings (`start_unix_ms`, `total_ns`, a stage's
//! duration, a dump's `unix_ms`) are the only bytes masked, as `T`; that
//! the stages still sum to the total is checked on the unmasked text.

use autophase_telemetry::{FlightConfig, FlightRecorder, TraceBuilder};
use std::time::Duration;

const CLOCK_KEYS: [&str; 3] = ["\"start_unix_ms\":", "\"total_ns\":", "\"unix_ms\":"];

/// `text` with every clock reading replaced by `T`. A stage's duration is
/// the only number that follows `",` (note values are quoted).
fn mask(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        let clock = CLOCK_KEYS.iter().any(|k| out.ends_with(k)) || out.ends_with("\",");
        if c.is_ascii_digit() && clock {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            out.push('T');
            rest = &rest[end..];
        } else {
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    out
}

fn number_after(text: &str, key: &str) -> u64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("{key} missing in {text}"))
        + key.len();
    let digits = &text[at..];
    let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
    digits[..end].parse().unwrap()
}

/// Every trace line's stage durations add up to its `total_ns`.
fn assert_stages_tile(text: &str) {
    for line in text
        .lines()
        .filter(|l| l.starts_with("{\"type\":\"trace\""))
    {
        let total = number_after(line, "\"total_ns\":");
        let stages = &line[line.find("\"stages\":[").unwrap()..line.find("],\"notes\"").unwrap()];
        let sum: u64 = stages
            .split("\",")
            .skip(1)
            .map(|s| s[..s.find(']').unwrap()].parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, total, "{line}");
    }
}

/// The compile traces the daemon writes, one per way a request can end,
/// then two odd ones: no marks and no outcome, and notes that need
/// escaping.
fn record_fixed_traces(rec: &FlightRecorder) {
    let seal = |mut t: TraceBuilder, outcome: &'static str| {
        t.mark("reply_write");
        t.set_outcome(outcome);
        rec.complete(t.finish());
    };

    let mut t = rec.begin();
    t.mark("queue_wait");
    t.note("front", "hit");
    t.mark("parse");
    t.mark("store");
    seal(t, "ok:store");

    let mut t = rec.begin();
    t.mark("queue_wait");
    t.note("front", "miss");
    t.mark("parse");
    t.mark("store");
    t.note("ir", "artifact");
    t.mark("replay");
    seal(t, "ok:store");

    let mut t = rec.begin();
    t.mark("queue_wait");
    t.note("front", "miss");
    t.mark("parse");
    t.mark("store");
    t.mark("baseline_profile");
    t.note("infer_calls", 12u64);
    t.note("infer_wait_ns", 0u64);
    t.note("policy_version", u64::MAX);
    t.note("pass_faults", 1usize);
    t.fault("rollout");
    t.mark("rollout");
    t.mark("profile");
    t.mark("record");
    seal(t, "ok:policy");

    let mut t = rec.begin();
    t.mark("queue_wait");
    t.note("front", "hit");
    t.mark("parse");
    t.mark("store");
    t.note("ir", "replay");
    t.fault("replay");
    t.fault("inference");
    t.mark("replay");
    t.mark("baseline_profile");
    t.mark("rollout");
    seal(t, "ok:baseline");

    for outcome in [
        "refused:overloaded",
        "refused:deadline",
        "refused:parse",
        "refused:bad_request",
        "refused:internal",
    ] {
        let mut t = rec.begin();
        t.mark("queue_wait");
        seal(t, outcome);
    }

    rec.complete(rec.begin().finish());

    let mut t = rec.begin();
    t.note("detail", "quote\" and \\slash\nnewline\ttab");
    t.note("tag", format!("p{}i{}", 3, 14));
    t.mark("parse");
    t.set_outcome("ok:policy");
    rec.complete(t.finish());
}

const RENDERED: &str = concat!(
    r#"{"type":"trace","id":10,"start_unix_ms":T,"total_ns":T,"outcome":"ok:policy","fault_stage":null,"stages":[["parse",T]],"notes":[["detail","quote\" and \\slash\nnewline\ttab"],["tag","p3i14"]]}"#,
    "\n",
    r#"{"type":"trace","id":9,"start_unix_ms":T,"total_ns":T,"outcome":"unknown","fault_stage":null,"stages":[],"notes":[]}"#,
    "\n",
    r#"{"type":"trace","id":8,"start_unix_ms":T,"total_ns":T,"outcome":"refused:internal","fault_stage":null,"stages":[["queue_wait",T],["reply_write",T]],"notes":[]}"#,
    "\n",
    r#"{"type":"trace","id":7,"start_unix_ms":T,"total_ns":T,"outcome":"refused:bad_request","fault_stage":null,"stages":[["queue_wait",T],["reply_write",T]],"notes":[]}"#,
    "\n",
    r#"{"type":"trace","id":6,"start_unix_ms":T,"total_ns":T,"outcome":"refused:parse","fault_stage":null,"stages":[["queue_wait",T],["reply_write",T]],"notes":[]}"#,
    "\n",
    r#"{"type":"trace","id":5,"start_unix_ms":T,"total_ns":T,"outcome":"refused:deadline","fault_stage":null,"stages":[["queue_wait",T],["reply_write",T]],"notes":[]}"#,
    "\n",
    r#"{"type":"trace","id":4,"start_unix_ms":T,"total_ns":T,"outcome":"refused:overloaded","fault_stage":null,"stages":[["queue_wait",T],["reply_write",T]],"notes":[]}"#,
    "\n",
    r#"{"type":"trace","id":3,"start_unix_ms":T,"total_ns":T,"outcome":"ok:baseline","fault_stage":"replay","stages":[["queue_wait",T],["parse",T],["store",T],["replay",T],["baseline_profile",T],["rollout",T],["reply_write",T]],"notes":[["front","hit"],["ir","replay"]]}"#,
    "\n",
    r#"{"type":"trace","id":2,"start_unix_ms":T,"total_ns":T,"outcome":"ok:policy","fault_stage":"rollout","stages":[["queue_wait",T],["parse",T],["store",T],["baseline_profile",T],["rollout",T],["profile",T],["record",T],["reply_write",T]],"notes":[["front","miss"],["infer_calls","12"],["infer_wait_ns","0"],["policy_version","18446744073709551615"],["pass_faults","1"]]}"#,
    "\n",
    r#"{"type":"trace","id":1,"start_unix_ms":T,"total_ns":T,"outcome":"ok:store","fault_stage":null,"stages":[["queue_wait",T],["parse",T],["store",T],["replay",T],["reply_write",T]],"notes":[["front","miss"],["ir","artifact"]]}"#,
    "\n",
    r#"{"type":"trace","id":0,"start_unix_ms":T,"total_ns":T,"outcome":"ok:store","fault_stage":null,"stages":[["queue_wait",T],["parse",T],["store",T],["reply_write",T]],"notes":[["front","hit"]]}"#,
    "\n",
);

#[test]
fn render_recent_is_pinned() {
    let rec = FlightRecorder::new(FlightConfig::default());
    record_fixed_traces(&rec);
    let text = rec.render_recent(usize::MAX);
    assert_stages_tile(&text);
    assert_eq!(mask(&text), RENDERED, "\n{}", mask(&text));
    // A shorter ask is the newest lines of the same text.
    let newest = rec.render_recent(3);
    let want: Vec<&str> = RENDERED.lines().take(3).collect();
    assert_eq!(mask(&newest).lines().collect::<Vec<_>>(), want);
}

const DUMP: &str = concat!(
    r#"{"type":"flight_dump","trigger":"fault","offending_id":3,"fault_stage":"replay","unix_ms":T}"#,
    "\n",
    r#"{"type":"trace","id":3,"start_unix_ms":T,"total_ns":T,"outcome":"ok:baseline","fault_stage":"replay","stages":[["queue_wait",T],["parse",T],["store",T],["replay",T],["baseline_profile",T],["rollout",T],["reply_write",T]],"notes":[["front","hit"],["ir","replay"]]}"#,
    "\n",
    r#"{"type":"trace","id":2,"start_unix_ms":T,"total_ns":T,"outcome":"ok:policy","fault_stage":"rollout","stages":[["queue_wait",T],["parse",T],["store",T],["baseline_profile",T],["rollout",T],["profile",T],["record",T],["reply_write",T]],"notes":[["front","miss"],["infer_calls","12"],["infer_wait_ns","0"],["policy_version","18446744073709551615"],["pass_faults","1"]]}"#,
    "\n",
    r#"{"type":"trace","id":1,"start_unix_ms":T,"total_ns":T,"outcome":"ok:store","fault_stage":null,"stages":[["queue_wait",T],["parse",T],["store",T],["replay",T],["reply_write",T]],"notes":[["front","miss"],["ir","artifact"]]}"#,
    "\n",
    r#"{"type":"trace","id":0,"start_unix_ms":T,"total_ns":T,"outcome":"ok:store","fault_stage":null,"stages":[["queue_wait",T],["parse",T],["store",T],["reply_write",T]],"notes":[["front","hit"]]}"#,
    "\n",
);

#[test]
fn a_dump_file_is_pinned() {
    let dir = std::env::temp_dir().join(format!("autophase_flight_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rec = FlightRecorder::new(FlightConfig {
        capacity: 4,
        dump_dir: Some(dir.clone()),
        dump_outcomes: vec!["refused:deadline".to_string()],
        slow_threshold: Some(Duration::from_secs(3600)),
        ..FlightConfig::default()
    });
    // Eleven traces into a ring of four: one fault dump (id 3) and one
    // outcome dump (id 5) on the way.
    record_fixed_traces(&rec);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "flight-00000002-fault.jsonl",
            "flight-00000003-fault.jsonl",
            "flight-00000005-outcome.jsonl"
        ]
    );
    let body = std::fs::read_to_string(dir.join("flight-00000003-fault.jsonl")).unwrap();
    assert_stages_tile(&body);
    assert_eq!(mask(&body), DUMP, "\n{}", mask(&body));
    let _ = std::fs::remove_dir_all(&dir);
}
