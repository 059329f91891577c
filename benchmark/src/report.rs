//! Printing: every metric by name with its unit, the CHStone rows, the
//! failures — and, as the last line of standard output, one JSON object.
//!
//! The full record (provenance, sizes, rounds, both metric families)
//! goes to `<target>/out/result-<workload>.json`, per-program rows to
//! `rows-<workload>.jsonl`. Nothing is ever written outside the build's
//! target directory, so no mode can overwrite a committed file.

use crate::host::{self, escape, Provenance};
use crate::metrics::{per_layer, END_TO_END};
use crate::stats::{quiet_rank, round_spread};
use crate::workloads::{Outcome, RunArgs};
use std::fmt::Write as _;
use std::io::Write as _;

fn ordinal(n: usize) -> String {
    match n {
        1 => "cheapest".to_string(),
        2 => "second cheapest".to_string(),
        3 => "third cheapest".to_string(),
        n => format!("{n}th cheapest"),
    }
}

fn metric_object(pairs: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The metrics a run reports on its last line: every end-to-end metric
/// for an untraced run, every per-layer metric for a traced one (a layer
/// this workload never reaches reads 0).
fn final_metrics(args: &RunArgs, o: &Outcome) -> Vec<(String, f64, &'static str)> {
    if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = o.layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), o.end_to_end[name], unit))
            .collect()
    }
}

/// Print the run and write its files. The last line printed is the
/// result object with exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn print(args: &RunArgs, o: &Outcome) {
    let prov = Provenance::collect();
    let name = args.workload.name();
    println!(
        "autophase-benchmark {name}: seed {} seconds {} trace {} smoke {}",
        args.seed, args.seconds, args.trace as u8, args.smoke
    );
    println!(
        "host: {} x{} | {} | kernel width {} | commit {}",
        prov.cpu_model, prov.nproc, prov.rustc, prov.kernel_width, prov.git_commit
    );
    for (i, s) in o.setups.iter().enumerate() {
        println!(
            "set-up {i}: {:.3} s of user CPU in {:.3} s",
            s.user_cpu_s, s.wall_s
        );
    }
    for (i, r) in o.rounds.iter().enumerate() {
        println!(
            "round {i}: {} ops in {:.3} s = {:.1} ops/s | p50 {:.3} ms p95 {} | user CPU {} s | cpu {:.3} ms/op | steal {:.4} spin {:.2} ms{}",
            r.ops,
            r.secs,
            r.ops as f64 / r.secs,
            r.p50_ms,
            r.p95_ms.map_or("-".to_string(), |v| format!("{v:.3} ms")),
            r.user_cpu_s
                .iter()
                .map(|s| format!("{s:.2}"))
                .collect::<Vec<_>>()
                .join(" "),
            r.cpu_ms / r.ops.max(1) as f64,
            r.host.steal_share,
            r.host.spin_ms,
            if r.host.disturbed { " | DISTURBED" } else { "" }
        );
    }
    let tput: Vec<f64> = o.rounds.iter().map(|r| r.ops as f64 / r.secs).collect();
    println!(
        "rounds: {} | (max-min)/median of round throughput {:.4} | latency samples {}{}",
        o.rounds.len(),
        round_spread(&tput),
        o.latency_samples,
        if o.p95_supported {
            ""
        } else {
            " | tail too short for p95: maximum shown"
        }
    );
    println!(
        "wall clock, not gated (median round; samples pooled): {:.1} ops/s | p50 {:.3} ms | p95 {:.3} ms",
        o.wall.throughput_ops_s, o.wall.latency_p50_ms, o.wall.latency_p95_ms
    );
    println!(
        "user CPU per op: each segment's {} of {} rounds, summed (see README: host noise)",
        ordinal(quiet_rank(o.rounds.len())),
        o.rounds.len()
    );

    println!("CHStone rows (served cycles vs client-side -O3):");
    for row in o.rows.iter().filter(|r| !r.name.starts_with("corpus")) {
        println!(
            "  {:<10} fp {:016x} latency {:>8.3} ms  cycles {:>6}  o3 {:>6}  source {}",
            row.name, row.fingerprint, row.latency_ms, row.cycles, row.o3_cycles, row.source
        );
    }

    println!("end-to-end:");
    for (metric, unit) in END_TO_END {
        println!("  {metric:<28} {:>14.4} {unit}", o.end_to_end[metric]);
    }
    if args.trace {
        println!("per-layer (0 = this workload does not reach the layer):");
        for (metric, unit) in per_layer() {
            let v = o.layers.get(&metric).copied().unwrap_or(0.0);
            println!("  {metric:<36} {v:>14.4} {unit}");
        }
        for (class, layer_us) in &o.layer_time_us {
            let client = o.client_p50_us.get(class).copied().unwrap_or(0.0);
            println!(
                "  layers.coverage_ratio[{class}] = {layer_us:.1} us replayed / {client:.1} us client p50 = {:.3}",
                if client > 0.0 { layer_us / client } else { 0.0 }
            );
        }
        if let Some(path) = &o.trace_file {
            println!("spans: {}", path.display());
        }
    }
    println!("attempted {} failed {}", o.attempted, o.failed);
    for f in &o.failures {
        println!("  FAILED: {f}");
    }

    write_files(args, o, &prov);

    let last = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metric_object(&final_metrics(args, o))
    );
    // Flush explicitly: the result line must reach a piped stdout whole.
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{last}").expect("write the result line");
    stdout.flush().expect("flush stdout");
}

fn write_files(args: &RunArgs, o: &Outcome, prov: &Provenance) {
    let out = host::out_dir();
    let name = args.workload.name();

    let mut rows = String::new();
    for r in &o.rows {
        let _ = writeln!(
            rows,
            "{{\"index\":{},\"name\":\"{}\",\"fingerprint\":\"{:016x}\",\"latency_ms\":{},\
             \"cycles\":{},\"o3_cycles\":{},\"source\":\"{}\"}}",
            r.index,
            escape(&r.name),
            r.fingerprint,
            r.latency_ms,
            r.cycles,
            r.o3_cycles,
            r.source
        );
    }
    std::fs::write(out.join(format!("rows-{name}.jsonl")), rows).expect("write the rows file");

    let rounds: Vec<String> = o
        .rounds
        .iter()
        .map(|r| {
            format!(
                "{{\"ops\":{},\"secs\":{},\"user_cpu_s\":[{}],\"cpu_ms\":{},\"p50_ms\":{},\
                 \"p95_ms\":{},\"steal_share\":{},\"spin_ms\":{},\"disturbed\":{}}}",
                r.ops,
                r.secs,
                r.user_cpu_s
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                r.cpu_ms,
                r.p50_ms,
                r.p95_ms.map_or("null".to_string(), |v| v.to_string()),
                r.host.steal_share,
                r.host.spin_ms,
                r.host.disturbed
            )
        })
        .collect();
    let e2e: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), o.end_to_end[n], u))
        .collect();
    let layers: Vec<(String, f64, &str)> = per_layer()
        .into_iter()
        .filter_map(|(n, u)| o.layers.get(&n).map(|&v| (n, v, u)))
        .collect();
    let failures: Vec<String> = o
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let result = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\
         \"claim\":null,{},\"sizes\":{{{}}},\"setups\":[{}],\"rounds\":[{}],\
         \"wall_clock\":{{\"throughput_ops_s\":{},\"latency_p50_ms\":{},\"latency_p95_ms\":{}}},\
         \"latency_samples\":{},\"p95_supported\":{},\"attempted\":{},\"failed\":{},\
         \"failures\":[{}],\"end_to_end\":{},\"per_layer\":{}}}\n",
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        prov.json_fields(),
        args.sizes().json_fields(),
        o.setups
            .iter()
            .map(|s| {
                format!(
                    "{{\"wall_s\":{},\"user_cpu_s\":{}}}",
                    s.wall_s, s.user_cpu_s
                )
            })
            .collect::<Vec<_>>()
            .join(","),
        rounds.join(","),
        o.wall.throughput_ops_s,
        o.wall.latency_p50_ms,
        o.wall.latency_p95_ms,
        o.latency_samples,
        o.p95_supported,
        o.attempted,
        o.failed,
        failures.join(","),
        metric_object(&e2e),
        metric_object(&layers),
    );
    let tag = if args.trace { "traced-" } else { "" };
    std::fs::write(out.join(format!("result-{tag}{name}.json")), result)
        .expect("write the result file");
}
