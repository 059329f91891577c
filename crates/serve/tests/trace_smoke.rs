//! Live-introspection smoke: a real daemon under mixed warm/cold/chaos
//! traffic, then everything the observability layer promises, checked
//! over the wire — `STATS` parses and its per-stage percentiles are
//! nonzero, the stage breakdown sums to end-to-end latency, `TRACE`
//! returns well-formed trace JSONL, and the chaos-injected fault left a
//! dump artifact naming the faulting stage.
//!
//! This is the test `make trace-smoke` runs. It is a single test
//! function on purpose: it owns the process's global telemetry registry
//! for its whole run, so no other test in this binary can pollute the
//! snapshot it asserts on.

use autophase_benchmarks::suite;
use autophase_nn::mlp::Mlp;
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::Source;
use autophase_telemetry as telemetry;
use std::time::Duration;

#[test]
fn stats_traces_and_chaos_dump_on_a_live_daemon() {
    telemetry::reset();
    let tmp = std::env::temp_dir().join(format!("autophase_trace_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let store = tmp.join("store.log");
    let dumps = tmp.join("flight");

    let mut cfg = ServerConfig {
        store_path: store.clone(),
        chaos: true,
        ..ServerConfig::default()
    };
    cfg.flight.dump_dir = Some(dumps.clone());
    let policy = Mlp::new(&[serve_obs_dim(), 32, serve_num_actions()], 7);
    let server = Server::start(policy, cfg).expect("server starts");
    let addr = server.addr();

    let programs: Vec<String> = suite()
        .into_iter()
        .map(|b| autophase_ir::printer::print_module(&b.module))
        .collect();

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    // Cold: every program rides the full pipeline (parse → store miss →
    // baseline profile → rollout → profile → record).
    for ir in &programs {
        let reply = client.compile(ir, Some(120_000), false).expect("cold");
        assert_eq!(reply.source, Source::Policy);
    }
    // Warm: the same programs again, all store hits.
    for ir in &programs {
        let reply = client.compile(ir, Some(120_000), false).expect("warm");
        assert_eq!(reply.source, Source::Store);
    }
    // Chaos: inject policy faults, then send unseen programs — they
    // degrade to baseline and their traces must blame inference.
    client.chaos(1_000, 0, 0).expect("chaos accepted");
    let mut degraded = 0;
    for (i, ir) in programs.iter().enumerate() {
        let mut m = autophase_ir::parser::parse_module(ir).unwrap();
        m.name = format!("{}__tracechaos{i}", m.name);
        let renamed = autophase_ir::printer::print_module(&m);
        let reply = client
            .compile(&renamed, Some(120_000), false)
            .expect("chaos");
        if reply.source == Source::Baseline {
            degraded += 1;
        }
    }
    assert!(degraded > 0, "injected faults never reached a request");

    // STATS: parses, and the stage breakdown is real.
    let stats = client.stats().expect("stats");
    let total_reqs = 3 * programs.len() as u64;
    assert_eq!(stats.counter("serve.req", "recv"), total_reqs);
    let stages = stats.hist_family("serve.stage_ns");
    let total = stats
        .hist("serve.stage_ns", "total")
        .expect("total histogram");
    assert_eq!(total.count, total_reqs, "every request must be traced");
    let mut stage_sum = 0u64;
    for (label, h) in &stages {
        if label == "total" {
            continue;
        }
        assert!(h.count > 0, "stage {label} never recorded");
        assert!(
            h.p50 > 0 && h.p50 <= h.p95 && h.p95 <= h.p99,
            "stage {label} percentiles broken: p50={} p95={} p99={}",
            h.p50,
            h.p95,
            h.p99
        );
        stage_sum += h.sum;
    }
    for must in [
        "queue_wait",
        "parse",
        "store",
        "rollout",
        "profile",
        "reply_write",
    ] {
        assert!(
            stages.iter().any(|(l, _)| l == must),
            "stage {must} missing from {:?}",
            stages.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>()
        );
    }
    // The stages tile each request's timeline, so per-stage sums must
    // reconstruct end-to-end latency. The acceptance bar is ±10%; the
    // construction makes it exact.
    let drift = (stage_sum as f64 - total.sum as f64).abs() / total.sum as f64;
    assert!(
        drift < 0.10,
        "stage sums ({stage_sum}) inconsistent with total ({}): {:.1}% off",
        total.sum,
        drift * 100.0
    );

    // TRACE: recent traces come back as parseable JSONL, newest first,
    // with outcomes and tiling stage segments.
    let body = client.traces(16).expect("traces");
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() >= 16, "expected 16 traces, got {}", lines.len());
    for line in &lines {
        assert!(line.starts_with("{\"type\":\"trace\""), "bad line: {line}");
        assert!(line.ends_with('}'), "truncated line: {line}");
        assert!(line.contains("\"outcome\":\""), "no outcome: {line}");
    }
    // The most recent traffic was chaos: at least one trace blames the
    // inference stage and still shows the baseline answer.
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"fault_stage\":\"inference\"")
                && l.contains("\"outcome\":\"ok:baseline\"")),
        "no chaos trace in:\n{body}"
    );

    // Every cold rollout names its layers: forward, pass step (checked
    // applies, verification included) and feature resync, which happen
    // inside the rollout segment and so cannot add up to more than it.
    let all = client.traces(64).expect("traces");
    let cold: Vec<&str> = all
        .lines()
        .filter(|l| l.contains("\"outcome\":\"ok:policy\""))
        .collect();
    assert_eq!(cold.len(), programs.len(), "cold traces in:\n{all}");
    for line in cold {
        let layers: Vec<u64> = ["infer_wait_ns", "pass_ns", "features_ns"]
            .iter()
            .map(|note| number_after(line, note).unwrap_or_else(|| panic!("no {note}: {line}")))
            .collect();
        let rollout = number_after(line, "rollout").expect("a rollout stage");
        assert!(layers[1] > 0, "no pass time: {line}");
        assert!(
            layers.iter().sum::<u64>() <= rollout,
            "rollout notes exceed the segment: {line}"
        );
    }

    // The chaos faults also tripped the flight recorder's fault trigger:
    // a JSONL dump artifact exists, names the faulting stage in its
    // header, and every line parses as one JSON object.
    let dump_files: Vec<_> = std::fs::read_dir(&dumps)
        .expect("dump dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    assert!(!dump_files.is_empty(), "chaos run left no dump artifact");
    let dump = std::fs::read_to_string(&dump_files[0]).unwrap();
    let mut dump_lines = dump.lines();
    let header = dump_lines.next().expect("dump header");
    assert!(header.contains("\"type\":\"flight_dump\""), "{header}");
    assert!(header.contains("\"fault_stage\":\"inference\""), "{header}");
    let rest: Vec<&str> = dump_lines.collect();
    assert!(!rest.is_empty(), "dump has no traces");
    for line in rest {
        assert!(
            line.starts_with("{\"type\":\"trace\"") && line.ends_with('}'),
            "unparseable dump line: {line}"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);
}

/// The number a trace line gives `key`: a stage `["key",n]` or a note
/// `["key","n"]`.
fn number_after(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("[\"{key}\","))? + key.len() + 4;
    let digits: String = line[start..]
        .trim_start_matches('"')
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
