//! The metric tables: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names; a unit test keeps the two in
//! step so a metric cannot be added to one and forgotten in the other.

use autophase_core::env::FILTERED_PASSES;
use autophase_passes::pass_name;

/// End-to-end metrics: what a user of the system pays and gets. Same
/// names on every workload. Both timings are read on the process's
/// user-mode CPU clock, the only one this shared host leaves steady (see
/// README); the wall-clock throughput and latencies are `client.*` layer
/// metrics.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("user_cpu_ms_per_op", "ms"),
    ("speedup_vs_o3_geomean", "ratio"),
];

/// Per-layer metrics with fixed names (the per-pass family is appended
/// by [`per_layer`]).
const PER_LAYER_FIXED: [(&str, &str); 73] = [
    ("client.throughput_ops_s", "1/s"),
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p95_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.latency_max_ms", "ms"),
    ("client.open_p50_ms", "ms"),
    ("client.open_p95_ms", "ms"),
    ("client.generator_late_p95_ms", "ms"),
    ("client.backlog_max", "count"),
    ("client.round_spread", "ratio"),
    ("client.failed_share", "ratio"),
    ("process.cpu_ms_per_op", "ms"),
    ("process.peak_rss_mib", "MiB"),
    ("process.host_steal_share", "ratio"),
    ("quality.one_compilation_rate", "ratio"),
    ("quality.programs", "count"),
    ("serve.protocol.encode_request_us", "us"),
    ("serve.protocol.decode_request_us", "us"),
    ("serve.protocol.encode_reply_us", "us"),
    ("serve.protocol.decode_reply_us", "us"),
    ("serve.protocol.request_bytes", "bytes"),
    ("serve.protocol.reply_bytes", "bytes"),
    ("ir.parse_us", "us"),
    ("ir.verify_us", "us"),
    ("ir.fingerprint_us", "us"),
    ("ir.print_us", "us"),
    ("ir.insts_in", "count"),
    ("ir.insts_out", "count"),
    ("serve.store.lookup_us", "us"),
    ("serve.store.record_us", "us"),
    ("serve.store.record_p95_us", "us"),
    ("serve.store.open_ms", "ms"),
    ("serve.store.bytes_per_record", "bytes"),
    ("serve.store.insert_ratio", "ratio"),
    ("hls.profile_us", "us"),
    ("hls.schedule_us", "us"),
    ("hls.profile_calls", "count"),
    ("features.extract_us", "us"),
    ("features.incremental_update_us", "us"),
    ("nn.forward_b1_us", "us"),
    ("nn.forward_b8_us", "us"),
    ("passes.apply_us", "us"),
    ("passes.apply_calls", "count"),
    ("passes.changed_ratio", "ratio"),
    ("passes.fault_count", "count"),
    ("passes.seq_apply_us", "us"),
    ("serve.engine.rollout_us", "us"),
    ("serve.engine.infer_calls", "count"),
    ("serve.engine.infer_wait_us", "us"),
    ("serve.engine.infer_batch_max", "count"),
    ("serve.stage.queue_wait_us", "us"),
    ("serve.stage.parse_us", "us"),
    ("serve.stage.store_us", "us"),
    ("serve.stage.replay_us", "us"),
    ("serve.stage.baseline_profile_us", "us"),
    ("serve.stage.rollout_us", "us"),
    ("serve.stage.profile_us", "us"),
    ("serve.stage.record_us", "us"),
    ("serve.stage.reply_write_us", "us"),
    ("serve.stage.record_p95_us", "us"),
    ("serve.stage.reply_write_p95_us", "us"),
    ("serve.stage.coverage_ratio", "ratio"),
    ("core.env.reset_us", "us"),
    ("core.env.step_us", "us"),
    ("core.evalcache.hit_ratio", "ratio"),
    ("core.evalcache.evictions", "count"),
    ("rl.collect_ms", "ms"),
    ("rl.update_ms", "ms"),
    ("rl.collect_share", "ratio"),
    ("telemetry.overhead_ratio", "ratio"),
    ("layers.coverage_ratio", "ratio"),
    ("layers.replayed_requests", "count"),
    ("layers.replay_mismatches", "count"),
];

/// The daemon's stage names, as `serve.stage_ns{...}` labels them.
pub const STAGES: [&str; 9] = [
    "queue_wait",
    "parse",
    "store",
    "replay",
    "baseline_profile",
    "rollout",
    "profile",
    "record",
    "reply_write",
];

/// Every per-layer metric with its unit, in print order: the fixed names,
/// then `passes.apply_us.<pass>` for each of the 18 action passes (the
/// pass name without its leading `-`).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for &pass in &FILTERED_PASSES {
        out.push((
            format!(
                "passes.apply_us.{}",
                pass_name(pass).trim_start_matches('-')
            ),
            "us",
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pull `"name": "...", "unit": "..."` pairs out of one array of
    /// BENCHMARK.json without a JSON dependency.
    fn names_and_units(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        let field = |obj: &str, k: &str| {
            let at = obj.find(&format!("\"{k}\"")).expect("field present");
            let rest = &obj[at + k.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_and_units(&json, "end_to_end"), want);
        let want: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names_and_units(&json, "per_layer"), want);
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n));
        for name in all {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
        assert!(seen.len() - END_TO_END.len() <= 128);
    }
}
