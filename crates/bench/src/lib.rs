//! Shared helpers for the experiment binaries.
//!
//! Each paper table/figure has a binary target:
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table1` | Table 1 (pass list) |
//! | `table2` | Table 2 (feature list) |
//! | `table3` | Table 3 (algorithm spaces) |
//! | `fig5` | Figure 5 (feature-importance heat map) |
//! | `fig6` | Figure 6 (pass-history-importance heat map) |
//! | `fig7` | Figure 7 (per-program speedups + samples) |
//! | `fig8` | Figure 8 (learning curves) |
//! | `fig9` | Figure 9 (generalization) |
//! | `generalize_random` | §6.2's random-program generalization number |
//!
//! Run with `--scale small|medium|paper` (default `small`); `paper`
//! approaches the paper's sample counts and takes correspondingly long.
//!
//! Every binary also takes `--telemetry off|summary|jsonl` (default
//! `off`). Either enabled mode records counters/gauges/histograms across
//! the whole stack and writes them, one JSON object per line, to
//! `results/<bin>_telemetry.jsonl` at exit; `summary` additionally
//! prints the human table. An unknown value for either flag exits 2.
//!
//! Performance is not measured here: the stack-wide benchmark is the
//! standalone `benchmark/` package (`BENCHMARK.json`), and the criterion
//! micro-benches are `benches/pipeline.rs`.

use autophase_telemetry as telemetry;

/// The value following `flag` in `args`, `Ok(None)` when the flag is
/// absent, an error when it is the last argument.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// Run `parse` over the process's argv. A command-line mistake says what
/// was accepted and exits 2, so a typo never runs a different experiment
/// than the one asked for.
fn from_argv<T>(parse: fn(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    })
}

/// Experiment scale from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke run.
    Small,
    /// Minutes-scale run with meaningful statistics.
    Medium,
    /// Hours-scale run approaching the paper's sample counts.
    Paper,
}

impl Scale {
    /// Parse `--scale <s>` out of `args` (defaults to `Small` when the
    /// flag is absent); an unknown value is an error naming the accepted
    /// ones.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        match flag_value(args, "--scale")? {
            None | Some("small") => Ok(Scale::Small),
            Some("medium") => Ok(Scale::Medium),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(format!(
                "--scale {other}: unknown scale (accepted: small, medium, paper)"
            )),
        }
    }

    /// [`Scale::parse`] over the process's argv; exits 2 on a bad value.
    pub fn from_args() -> Scale {
        from_argv(Scale::parse)
    }

    /// Scale-dependent pick.
    pub fn pick<T>(self, small: T, medium: T, paper: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Medium => medium,
            Scale::Paper => paper,
        }
    }
}

/// How an experiment binary reports telemetry, from `--telemetry <mode>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Telemetry disabled: the instrumented call sites pay one relaxed
    /// atomic load each and record nothing.
    Off,
    /// Record and print the end-of-run human summary table.
    Summary,
    /// Record and write only the JSONL event log.
    Jsonl,
}

impl TelemetryMode {
    /// Parse `--telemetry <mode>` out of `args` (defaults to `Off` when
    /// the flag is absent); an unknown value is an error naming the
    /// accepted ones.
    pub fn parse(args: &[String]) -> Result<TelemetryMode, String> {
        match flag_value(args, "--telemetry")? {
            None | Some("off") => Ok(TelemetryMode::Off),
            Some("summary") => Ok(TelemetryMode::Summary),
            Some("jsonl") => Ok(TelemetryMode::Jsonl),
            Some(other) => Err(format!(
                "--telemetry {other}: unknown mode (accepted: off, summary, jsonl)"
            )),
        }
    }
}

/// RAII wrapper for the `--telemetry` lifecycle every experiment binary
/// shares: parse the flag, enable recording, and flush the artifacts when
/// the session ends (explicitly via [`TelemetrySession::finish`] or on
/// drop, so early returns still leave the event log behind).
///
/// ```no_run
/// let session = autophase_bench::TelemetrySession::start("mybench");
/// // ... run the experiment ...
/// session.finish();
/// ```
#[must_use = "dropping the session immediately would flush telemetry before the run"]
pub struct TelemetrySession {
    bin: &'static str,
    mode: TelemetryMode,
    finished: bool,
}

impl TelemetrySession {
    /// Parse `--telemetry` (default `off`; exits 2 on a bad value) and
    /// start recording.
    pub fn start(bin: &'static str) -> TelemetrySession {
        let mode = from_argv(TelemetryMode::parse);
        if mode != TelemetryMode::Off {
            telemetry::enable();
        }
        TelemetrySession {
            bin,
            mode,
            finished: false,
        }
    }

    /// Flush artifacts now (idempotent; drop would do the same).
    pub fn finish(mut self) {
        self.flush();
    }

    /// Write `results/<bin>_telemetry.jsonl` (so every binary that prints
    /// partial results also leaves structured data behind) and, for
    /// [`TelemetryMode::Summary`], print the human table. A no-op for
    /// [`TelemetryMode::Off`].
    fn flush(&mut self) {
        if self.finished || self.mode == TelemetryMode::Off {
            return;
        }
        self.finished = true;
        if let Some(p) = telemetry::write_artifact(
            "results",
            &format!("{}_telemetry.jsonl", self.bin),
            &telemetry::render_jsonl(),
        ) {
            eprintln!("telemetry: wrote {}", p.display());
        }
        if self.mode == TelemetryMode::Summary {
            print!("{}", telemetry::render_summary());
        }
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        self.flush();
    }
}

/// The benchmark suite as `(name, module)` pairs for the experiment APIs.
pub fn named_suite() -> Vec<(String, autophase_ir::Module)> {
    autophase_benchmarks::suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.module))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn scale_accepts_its_three_tiers_and_defaults_to_small() {
        assert_eq!(Scale::parse(&args(&["fig7"])), Ok(Scale::Small));
        for (word, want) in [
            ("small", Scale::Small),
            ("medium", Scale::Medium),
            ("paper", Scale::Paper),
        ] {
            assert_eq!(Scale::parse(&args(&["fig7", "--scale", word])), Ok(want));
        }
    }

    #[test]
    fn a_scale_typo_is_an_error_naming_the_accepted_values() {
        for bad in ["meduim", "large", ""] {
            let err = Scale::parse(&args(&["fig7", "--scale", bad])).unwrap_err();
            assert!(err.contains("small, medium, paper"), "{err}");
        }
        assert!(Scale::parse(&args(&["fig7", "--scale"])).is_err());
    }

    #[test]
    fn telemetry_mode_rejects_what_it_does_not_know() {
        assert_eq!(
            TelemetryMode::parse(&args(&["fig5"])),
            Ok(TelemetryMode::Off)
        );
        for (word, want) in [
            ("off", TelemetryMode::Off),
            ("summary", TelemetryMode::Summary),
            ("jsonl", TelemetryMode::Jsonl),
        ] {
            let parsed = TelemetryMode::parse(&args(&["fig5", "--telemetry", word]));
            assert_eq!(parsed, Ok(want));
        }
        for bad in ["prom", "sumary"] {
            let err = TelemetryMode::parse(&args(&["fig5", "--telemetry", bad])).unwrap_err();
            assert!(err.contains("off, summary, jsonl"), "{err}");
        }
        assert!(TelemetryMode::parse(&args(&["fig5", "--telemetry"])).is_err());
    }
}
