//! The compile-service daemon and its introspection CLI.
//!
//! ```text
//! serve --checkpoint policy.ckpt [--addr 127.0.0.1:7463] [--store serve_store.log]
//!       [--workers 4] [--queue-cap 64] [--deadline-ms 1000] [--chaos]
//!       [--flight-dir results/flight_dumps] [--slow-ms 250] [--flight-capacity 256]
//!       [--registry models/] [--learn] [--auto-promote] [--admin]
//! serve stats --addr 127.0.0.1:7463            # one dashboard snapshot
//! serve top --addr 127.0.0.1:7463 [--interval-ms 1000] [--count N]
//! serve trace --addr 127.0.0.1:7463 [--n 16]   # recent traces, raw JSONL
//! serve models --addr 127.0.0.1:7463           # registry + per-version win rates
//! serve promote --addr 127.0.0.1:7463 --version 3
//! ```
//!
//! Daemon mode loads the policy from an
//! `autophase_rl::checkpoint::PolicyCheckpoint` (train one under
//! `serve_env` and save it with `PolicyCheckpoint::from_ppo`), binds,
//! prints the address, and serves until a client sends `SHUTDOWN`.
//! Without `--checkpoint` a freshly initialized (untrained) policy is
//! used — handy for smoke tests, useless for quality.
//!
//! `--registry <dir>` turns on the online-learning subsystem (versioned
//! model registry + `PROMOTE` accounting); `--learn` additionally runs
//! the in-daemon background learner, which keeps training the policy
//! that is serving (the boot checkpoint, then whatever a promotion
//! installs) on the episodes the daemon serves and publishes versions
//! into the registry. `--auto-promote` lets it hot-swap each version it
//! publishes that beats the serving policy on the programs it recently
//! served (the replay gate). `--admin` accepts the `PROMOTE` verb from
//! clients.
//!
//! `stats` renders one dashboard from a live daemon's `STATS` reply;
//! `top` polls it and refreshes in place (rates are deltas between
//! polls); `trace` prints the flight recorder's recent request traces;
//! `models` lists registry versions with per-version win rates;
//! `promote` hot-swaps a registry version into the live engine, past the
//! replay gate: the operator's override.

use autophase_nn::mlp::{Activation, Mlp};
use autophase_rl::checkpoint::{ArmoredLoad, PolicyCheckpoint};
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::learner::LearnerConfig;
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::stats::StatsSnapshot;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

/// The parsed value of numeric flag `key`, `Ok(None)` when it is absent.
fn parse_flag<T: std::str::FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    arg_value(args, key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{key} got '{v}': expected a non-negative integer"))
        })
        .transpose()
}

/// [`parse_flag`] for `main`: a malformed number names the flag and the
/// rejected value and exits 2, so a typo never starts a daemon (or a
/// poll) with a default the operator did not ask for.
fn number<T: std::str::FromStr>(args: &[String], key: &str) -> Option<T> {
    parse_flag(args, key).unwrap_or_else(|msg| {
        eprintln!("serve: {msg}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: serve [--checkpoint <path>] [--addr <host:port>] [--store <path>] \
             [--workers <n>] [--queue-cap <n>] [--deadline-ms <ms>] [--retry-hint-ms <ms>] \
             [--chaos] [--flight-dir <dir>] [--slow-ms <ms>] [--flight-capacity <n>] \
             [--max-dump-files <n>] [--registry <dir>] [--learn] [--auto-promote] [--admin]\n\
             \x20      serve stats --addr <host:port>\n\
             \x20      serve top --addr <host:port> [--interval-ms <ms>] [--count <n>]\n\
             \x20      serve trace --addr <host:port> [--n <k>]\n\
             \x20      serve models --addr <host:port>\n\
             \x20      serve promote --addr <host:port> --version <n>"
        );
        return;
    }
    match args.get(1).map(String::as_str) {
        Some("stats") => run_stats(&args),
        Some("top") => run_top(&args),
        Some("trace") => run_trace(&args),
        Some("models") => run_models(&args),
        Some("promote") => run_promote(&args),
        _ => run_daemon(&args),
    }
}

fn daemon_cfg(args: &[String]) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    if let Some(addr) = arg_value(args, "--addr") {
        cfg.addr = addr;
    }
    if let Some(store) = arg_value(args, "--store") {
        cfg.store_path = PathBuf::from(store);
    }
    if let Some(w) = number(args, "--workers") {
        cfg.workers = w;
    }
    if let Some(q) = number(args, "--queue-cap") {
        cfg.queue_cap = q;
    }
    if let Some(d) = number(args, "--deadline-ms") {
        cfg.default_deadline = Duration::from_millis(d);
    }
    if let Some(ms) = number(args, "--retry-hint-ms") {
        cfg.retry_hint_ms = ms;
    }
    cfg.chaos = args.iter().any(|a| a == "--chaos");
    if let Some(dir) = arg_value(args, "--flight-dir") {
        cfg.flight.dump_dir = Some(PathBuf::from(dir));
    }
    if let Some(ms) = number(args, "--slow-ms") {
        cfg.flight.slow_threshold = Some(Duration::from_millis(ms));
    }
    if let Some(n) = number(args, "--flight-capacity") {
        cfg.flight.capacity = n;
    }
    if let Some(n) = number(args, "--max-dump-files") {
        cfg.flight.max_dump_files = n;
    }
    cfg.admin = args.iter().any(|a| a == "--admin");
    if let Some(dir) = arg_value(args, "--registry") {
        cfg.registry_dir = Some(PathBuf::from(dir));
    }
    if args.iter().any(|a| a == "--learn") {
        cfg.learner = Some(LearnerConfig {
            auto_promote: args.iter().any(|a| a == "--auto-promote"),
        });
    }
    cfg
}

fn run_daemon(args: &[String]) {
    let cfg = daemon_cfg(args);

    // Checkpoint armor: a *corrupt* checkpoint is quarantined (renamed
    // aside) and the daemon comes up baseline-only — availability over
    // policy quality. A *missing* checkpoint is a configuration error
    // and still refuses to start: there is nothing to quarantine and
    // silently serving without the ordering the operator asked for
    // would hide a typo forever.
    let policy = match arg_value(args, "--checkpoint") {
        Some(path) => {
            let path = PathBuf::from(path);
            match PolicyCheckpoint::load_armored(&path) {
                ArmoredLoad::Loaded(ckpt) => {
                    eprintln!(
                        "serve: loaded {:?} checkpoint {}",
                        ckpt.algo,
                        path.display()
                    );
                    Some(ckpt.policy)
                }
                ArmoredLoad::Quarantined { error, moved_to } => {
                    eprintln!("serve: checkpoint {} is corrupt: {error}", path.display());
                    match moved_to {
                        Some(q) => eprintln!("serve: quarantined to {}", q.display()),
                        None => eprintln!("serve: quarantine rename failed; left in place"),
                    }
                    eprintln!("serve: continuing BASELINE-ONLY (no policy)");
                    None
                }
                ArmoredLoad::Unreadable(e) => {
                    eprintln!("serve: cannot read checkpoint: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            eprintln!("serve: no --checkpoint, using an UNTRAINED policy");
            Some(Mlp::new(
                &[serve_obs_dim(), 32, serve_num_actions()],
                Activation::Tanh,
                7,
            ))
        }
    };

    let started = match policy {
        Some(policy) => Server::start(policy, cfg).or_else(|e| {
            // A checkpoint of the wrong shape or with a non-finite weight
            // is as unusable as a corrupt one: say why, then keep the
            // service up without it.
            eprintln!("serve: {e}");
            eprintln!("serve: continuing BASELINE-ONLY (no policy)");
            Server::start_baseline_only(daemon_cfg(args))
        }),
        None => Server::start_baseline_only(cfg),
    };
    match started {
        Ok(server) => {
            if server.is_baseline_only() {
                eprintln!("serve: baseline-only mode: every reply degrades to store/baseline");
            }
            println!("serve: listening on {}", server.addr());
            server.wait();
            if autophase_telemetry::enabled() {
                print!("{}", autophase_telemetry::render_summary());
            }
            eprintln!("serve: clean shutdown");
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

fn require_addr(args: &[String]) -> String {
    match arg_value(args, "--addr") {
        Some(a) => a,
        None => {
            eprintln!("serve: --addr <host:port> is required for this subcommand");
            std::process::exit(2);
        }
    }
}

fn fetch_stats(addr: &str) -> StatsSnapshot {
    let result = Client::connect(addr).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        c.stats()
    });
    match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

fn run_stats(args: &[String]) {
    let addr = require_addr(args);
    print!("{}", render_dashboard(&fetch_stats(&addr), None));
}

fn run_top(args: &[String]) {
    let addr = require_addr(args);
    let interval = Duration::from_millis(number(args, "--interval-ms").unwrap_or(1000));
    let count: Option<u64> = number(args, "--count");
    let mut prev: Option<(StatsSnapshot, Instant)> = None;
    let mut iterations = 0u64;
    loop {
        let snap = fetch_stats(&addr);
        let now = Instant::now();
        let rates = prev
            .as_ref()
            .map(|(p, t)| (p, now.duration_since(*t).as_secs_f64()));
        // Clear + home, then one dashboard frame.
        print!("\x1b[2J\x1b[H{}", render_dashboard(&snap, rates));
        use std::io::Write;
        let _ = std::io::stdout().flush();
        prev = Some((snap, now));
        iterations += 1;
        if count.is_some_and(|c| iterations >= c) {
            return;
        }
        std::thread::sleep(interval);
    }
}

fn run_models(args: &[String]) {
    let addr = require_addr(args);
    let result = Client::connect(&addr).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        c.models()
    });
    let snap = match result {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    };
    if !snap.registry {
        println!("no model registry (daemon started without --registry)");
    }
    println!(
        "serving v{}   swaps {}",
        snap.serving.map_or("-".into(), |v| v.to_string()),
        snap.swaps
    );
    if snap.versions.is_empty() {
        return;
    }
    // Wins and the mean improvement are over the `compared` requests:
    // those with an -O3 reference.
    println!("version   samples  updates  requests  compared    wins  inserts  mean_impr    role");
    for v in &snap.versions {
        println!(
            "v{:<7} {:>8} {:>8} {:>9} {:>9} {:>7} {:>8} {:>9.2}% {:>7}",
            v.version,
            v.samples,
            v.updates,
            v.requests,
            v.compared,
            v.wins,
            v.store_inserts,
            v.mean_improvement * 100.0,
            if v.serving { "serving" } else { "" }
        );
    }
}

fn run_promote(args: &[String]) {
    if args.iter().any(|a| a == "--ab") {
        eprintln!("serve: promote --ab is not supported: the daemon serves one policy");
        std::process::exit(2);
    }
    let version: u64 = match number(args, "--version") {
        Some(v) => v,
        None => {
            eprintln!("serve: promote needs --version <n>");
            std::process::exit(2);
        }
    };
    let addr = require_addr(args);
    let result = Client::connect(&addr).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        c.promote(version)
    });
    match result {
        Ok(()) => println!("promoted v{version}"),
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

fn run_trace(args: &[String]) {
    let addr = require_addr(args);
    let n = number(args, "--n").unwrap_or(16);
    let result = Client::connect(&addr).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_secs(5)))?;
        c.traces(n)
    });
    match result {
        Ok(body) => print!("{body}"),
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

/// Nanoseconds, human-readable.
fn ns(v: u64) -> String {
    match v {
        0..=9_999 => format!("{v}ns"),
        10_000..=999_999 => format!("{:.1}us", v as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", v as f64 / 1e6),
        _ => format!("{:.2}s", v as f64 / 1e9),
    }
}

/// One text frame of the dashboard. `rates` is the previous snapshot
/// plus the seconds since it was taken — present only in `top` mode,
/// where counter deltas become rates.
fn render_dashboard(snap: &StatsSnapshot, rates: Option<(&StatsSnapshot, f64)>) -> String {
    let mut out = String::new();
    let recv = snap.counter("serve.req", "recv");
    let ok_store = snap.counter("serve.req", "ok_store");
    let ok_policy = snap.counter("serve.req", "ok_policy");
    let ok_baseline = snap.counter("serve.req", "ok_baseline");
    let degraded = snap.counter("serve.req", "degraded_to_baseline");
    let hits = snap.counter("serve.store", "hit");
    let misses = snap.counter("serve.store", "miss");
    let refused: u64 = [
        "err_overloaded",
        "err_deadline",
        "err_parse",
        "err_bad_request",
        "err_internal",
    ]
    .iter()
    .map(|l| snap.counter("serve.req", l))
    .sum();

    let _ = writeln!(out, "autophase-serve dashboard");
    match rates {
        Some((prev, dt)) if dt > 0.0 => {
            let rps = (recv.saturating_sub(prev.counter("serve.req", "recv"))) as f64 / dt;
            let _ = writeln!(out, "  req/s      {rps:10.1}   (over the last {dt:.1}s)");
        }
        _ => {
            let _ = writeln!(
                out,
                "  req/s      {:>10}   (one snapshot; use `top` for rates)",
                "-"
            );
        }
    }
    let lookups = hits + misses;
    let hit_rate = if lookups > 0 {
        hits as f64 / lookups as f64 * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  requests   {recv:10}   ok store/policy/baseline {ok_store}/{ok_policy}/{ok_baseline}   refused {refused}"
    );
    let _ = writeln!(
        out,
        "  store      {hit_rate:9.1}%   hit rate ({hits}/{lookups} lookups)   IR artifact/replayed {}/{}",
        snap.counter("serve.store", "ir_artifact"),
        snap.counter("serve.store", "ir_replayed")
    );
    let _ = writeln!(
        out,
        "  queue      {:10.0}   waiting now   degraded-to-baseline {degraded}",
        snap.gauge("serve.queue_depth", "")
    );
    let _ = writeln!(
        out,
        "  flight     {:10}   traces completed   dumps {}",
        snap.counter("flight.completed", ""),
        snap.counter_family_total("flight.dump")
    );

    let stages = snap.hist_family("serve.stage_ns");
    if !stages.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "  {:<18} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "stage", "count", "p50", "p95", "p99", "mean"
        );
        // `total` last: it is the sum the per-stage rows decompose.
        let (totals, mut rows): (Vec<_>, Vec<_>) =
            stages.into_iter().partition(|(l, _)| l == "total");
        rows.extend(totals);
        for (label, h) in rows {
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<18} {:>9} {:>9} {:>9} {:>9} {:>9}",
                label,
                h.count,
                ns(h.p50),
                ns(h.p95),
                ns(h.p99),
                ns(mean)
            );
        }
    }
    if let Some(h) = snap.hist("serve.engine_ns", "forward") {
        let _ = writeln!(
            out,
            "\n  inference  forwards {}   forward p95 {}",
            h.count,
            ns(h.p95)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_formatting_is_scaled() {
        assert_eq!(ns(980), "980ns");
        assert_eq!(ns(42_000), "42.0us");
        assert_eq!(ns(7_300_000), "7.3ms");
        assert_eq!(ns(12_000_000_000), "12.00s");
    }

    #[test]
    fn malformed_numbers_are_rejected_by_name() {
        let args = |flag: &str, v: &str| ["serve", flag, v].map(String::from);
        assert_eq!(
            parse_flag(&args("--workers", "8"), "--workers"),
            Ok(Some(8usize))
        );
        assert_eq!(
            parse_flag::<usize>(&args("--chaos", "8"), "--workers"),
            Ok(None)
        );
        for (flag, bad) in [
            ("--workers", "abc"),
            ("--deadline-ms", "1s"),
            ("--queue-cap", "-1"),
        ] {
            let err = parse_flag::<usize>(&args(flag, bad), flag).unwrap_err();
            assert!(err.contains(flag) && err.contains(bad), "{err}");
        }
    }

    #[test]
    fn dashboard_renders_without_instruments() {
        let empty = StatsSnapshot::default();
        let frame = render_dashboard(&empty, None);
        assert!(frame.contains("autophase-serve dashboard"));
        // No stage table without stage histograms, no panic either.
        assert!(!frame.contains("p99 "));
    }
}
