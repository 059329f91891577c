//! End-to-end smoke of every workload at `--smoke` scale: real daemon,
//! real training loop, real oracle — just few programs and few rounds.

use autophase_benchmark::metrics::{per_layer, END_TO_END};
use autophase_benchmark::workloads::{run, RunArgs, Workload};

fn smoke(workload: Workload, trace: bool) -> autophase_benchmark::workloads::Outcome {
    run(&RunArgs {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
    })
}

/// One test, run in sequence: the traced runs switch the process-wide
/// telemetry registry on and off, which concurrent tests would share.
#[test]
fn every_workload_runs_clean_at_smoke_scale() {
    untraced_runs_are_clean();
    traced_runs_report_every_layer_and_write_spans();
}

fn untraced_runs_are_clean() {
    for workload in Workload::ALL {
        let o = smoke(workload, false);
        assert_eq!(o.failed, 0, "{}: {:?}", workload.name(), o.failures);
        assert!(o.attempted > 0);
        assert!(o.rounds.len() >= 2, "at least min_rounds rounds");
        // Every round is cut into the same segments, each with CPU time
        // on the clock; the wall-clock numbers ride along ungated.
        let segments = o.rounds[0].user_cpu_s.len();
        assert!(segments >= 2, "{}: {segments} segments", workload.name());
        assert!(o.rounds.iter().all(|r| r.user_cpu_s.len() == segments));
        assert!(o
            .rounds
            .iter()
            .all(|r| r.user_cpu_s.iter().sum::<f64>() > 0.0));
        assert_eq!(o.setups.len(), 1);
        assert!(o.wall.throughput_ops_s > 0.0 && o.wall.latency_p50_ms > 0.0);
        assert!(o.wall.latency_p95_ms >= o.wall.latency_p50_ms);
        for (name, _) in END_TO_END {
            let v = o.end_to_end[name];
            assert!(
                v.is_finite() && v > 0.0,
                "{}: {name} = {v}",
                workload.name()
            );
        }
        // Nine CHStone rows on every workload, each with a reference.
        let chstone = o.rows.iter().filter(|r| !r.name.starts_with("corpus"));
        assert_eq!(chstone.clone().count(), 9, "{}", workload.name());
        assert!(chstone.clone().all(|r| r.cycles > 0 && r.o3_cycles > 0));
    }
}

fn traced_runs_report_every_layer_and_write_spans() {
    for workload in [Workload::MixedIr, Workload::TrainPpo] {
        let o = smoke(workload, true);
        assert_eq!(o.failed, 0, "{}: {:?}", workload.name(), o.failures);
        for (name, _) in per_layer() {
            // Absent means "this workload does not reach the layer" and
            // prints as 0; present values must be real numbers.
            if let Some(v) = o.layers.get(&name) {
                assert!(v.is_finite() && *v >= 0.0, "{name} = {v}");
            }
        }
        let reached = |name: &str| o.layers.get(name).copied().unwrap_or(0.0) > 0.0;
        assert!(reached("client.throughput_ops_s") && reached("client.latency_p95_ms"));
        match workload {
            Workload::MixedIr => {
                assert!(reached("ir.print_us") && reached("serve.store.record_us"));
                assert!(reached("serve.stage.replay_us") && reached("serve.stage.rollout_us"));
                assert!(reached("client.open_p50_ms"));
                assert!(!reached("rl.update_ms") && !reached("core.env.step_us"));
            }
            _ => {
                assert!(reached("rl.update_ms") && reached("core.env.step_us"));
                assert!(reached("passes.apply_us.mem2reg") && reached("nn.forward_b8_us"));
                assert!(!reached("serve.store.record_us") && !reached("ir.parse_us"));
            }
        }
        assert_eq!(o.layers["layers.replay_mismatches"], 0.0);
        let spans = std::fs::read_to_string(o.trace_file.expect("span file")).unwrap();
        assert!(spans.lines().count() > 10);
        assert!(spans
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
