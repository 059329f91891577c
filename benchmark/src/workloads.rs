//! The four workloads: what each one sends, checks and reports.
//!
//! * `cold-corpus` — closed loop; every program once, into an empty store.
//! * `warm-replay` — closed loop; a pre-seeded store replayed many times.
//! * `mixed-ir`    — closed loop; hits and misses, some asking for the
//!   optimized IR back (one open-loop round in a traced run).
//! * `train-ppo`   — the paper's training loop; no daemon at all.
//!
//! A run is rounds of identical work (the same request list, a fresh
//! daemon and store directory each round), repeated until `--seconds`
//! have been measured. The gated timing is user-mode CPU time per
//! operation, read per segment of the list and combined over rounds by
//! [`quiet_sum`]; wall-clock latencies pool over rounds and wall-clock
//! throughput is the median round, both reported but not gated.

use crate::host::{self, HostMark, HostVerdict, Scratch};
use crate::inputs::{
    self, chstone, corpus_programs, o3_reference, policy_training_set, reference_policy,
    unseen_corpus, Program, Sizes, SplitMix, Trainer, LANES, TRAIN_CORPUS,
};
use crate::load::{self, Request, Round, Sample};
use crate::metrics::STAGES;
use crate::oracle;
use crate::replay::{Class, Layers, Replay, ReplayRequest};
use crate::spans::Recorder;
use crate::stats::{
    geomean, mean, median, percentile, percentile_or_max, quiet_sum, quiet_value, round_spread,
    sorted,
};
use autophase_core::experiment::infer_sequence;
use autophase_hls::profile::profile_module;
use autophase_nn::Mlp;
use autophase_serve::client::CompileReply;
use autophase_serve::engine::{serve_env_config, SERVE_EPISODE_LEN};
use autophase_serve::protocol::Source;
use autophase_serve::stats::StatsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every program once into an empty store.
    ColdCorpus,
    /// A seeded store replayed.
    WarmReplay,
    /// Closed loop, hits and misses, IR replies.
    MixedIr,
    /// PPO training, no daemon.
    TrainPpo,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ColdCorpus,
        Workload::WarmReplay,
        Workload::MixedIr,
        Workload::TrainPpo,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCorpus => "cold-corpus",
            Workload::WarmReplay => "warm-replay",
            Workload::MixedIr => "mixed-ir",
            Workload::TrainPpo => "train-ppo",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured rounds.
    pub seconds: f64,
    /// Also run traced rounds and the layer replay.
    pub trace: bool,
    /// Smoke scale.
    pub smoke: bool,
}

impl RunArgs {
    /// The frozen sizes for this run's scale.
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// One row of `rows-<workload>.jsonl`: a distinct program's result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Position in the workload's program list.
    pub index: usize,
    /// Program name.
    pub name: String,
    /// Store key.
    pub fingerprint: u64,
    /// Median client latency over this program's requests.
    pub latency_ms: f64,
    /// Served cycle count.
    pub cycles: u64,
    /// Client-side `-O3` cycle count.
    pub o3_cycles: u64,
    /// Where the first answer came from.
    pub source: &'static str,
}

/// One measured round, summarized.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    /// Operations completed.
    pub ops: usize,
    /// Wall seconds of the round.
    pub secs: f64,
    /// Latency samples the round took.
    pub samples: usize,
    /// Median latency of the round's samples.
    pub p50_ms: f64,
    /// The round's own p95, when it has the tail to support one.
    pub p95_ms: Option<f64>,
    /// Host readings around the round.
    pub host: HostVerdict,
    /// CPU milliseconds, user plus system, the process (daemon and
    /// clients, every thread) used in the round.
    pub cpu_ms: f64,
    /// User-mode CPU seconds the process used in each segment of the
    /// round's work list, in list order.
    pub user_cpu_s: Vec<f64>,
}

/// One performance of the whole set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    /// Wall seconds it took.
    pub wall_s: f64,
    /// User-mode CPU seconds the process used meanwhile.
    pub user_cpu_s: f64,
}

impl SetUp {
    /// Perform `set_up`, reading both clocks around it.
    fn time<T>(set_up: impl FnOnce() -> T) -> (T, SetUp) {
        let (t, cpu0) = (Instant::now(), host::process_user_cpu_ms());
        let made = set_up();
        let taken = SetUp {
            wall_s: t.elapsed().as_secs_f64(),
            user_cpu_s: (host::process_user_cpu_ms() - cpu0) / 1e3,
        };
        (made, taken)
    }
}

/// What the clients saw on the wall clock. On this host it follows the
/// co-tenants more than the code (see README), so it is reported, as
/// per-layer metrics, and not gated.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock {
    /// Operations per second of the median round.
    pub throughput_ops_s: f64,
    /// Median latency, samples pooled over the rounds.
    pub latency_p50_ms: f64,
    /// 95th percentile latency, samples pooled over the rounds.
    pub latency_p95_ms: f64,
}

impl WallClock {
    fn insert_into(&self, layers: &mut Layers) {
        layers.insert("client.throughput_ops_s".into(), self.throughput_ops_s);
        layers.insert("client.latency_p50_ms".into(), self.latency_p50_ms);
        layers.insert("client.latency_p95_ms".into(), self.latency_p95_ms);
    }
}

/// Everything a run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: Layers,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The first few failures, as text.
    pub failures: Vec<String>,
    /// Per-program rows.
    pub rows: Vec<Row>,
    /// Untraced rounds.
    pub rounds: Vec<RoundSummary>,
    /// Every performance of the set-up; `setup_s` is the cheapest.
    pub setups: Vec<SetUp>,
    /// Wall-clock throughput and latency of the untraced rounds.
    pub wall: WallClock,
    /// Latency samples pooled.
    pub latency_samples: usize,
    /// Whether the pooled p95 had the tail to support it.
    pub p95_supported: bool,
    /// Median layer time per request class (traced runs), microseconds.
    pub layer_time_us: BTreeMap<&'static str, f64>,
    /// Client p50 per request class (untraced rounds), microseconds.
    pub client_p50_us: BTreeMap<&'static str, f64>,
    /// Span file written by a traced run.
    pub trace_file: Option<PathBuf>,
}

/// User-mode CPU milliseconds per operation of rounds of identical work:
/// the list's [`quiet_sum`] over its operations.
fn user_cpu_ms_per_op(rounds: &[RoundSummary]) -> f64 {
    let ops = rounds.first().map_or(0, |r| r.ops);
    let cells: Vec<Vec<f64>> = rounds.iter().map(|r| r.user_cpu_s.clone()).collect();
    quiet_sum(&cells) * 1e3 / ops.max(1) as f64
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Record one round of identical work.
    fn push_round(&mut self, round: RoundSummary) {
        if let Some(first) = self.rounds.first() {
            assert_eq!(
                (first.ops, first.user_cpu_s.len()),
                (round.ops, round.user_cpu_s.len()),
                "rounds do identical work"
            );
        }
        self.latency_samples += round.samples;
        self.rounds.push(round);
    }

    /// The timings from the recorded rounds and set-ups: the gated ones on
    /// the user-mode CPU clock, the wall-clock ones beside them.
    /// `pooled_ms` is every round's latency samples.
    fn timing_metrics(&mut self, pooled_ms: &[f64], smoke: bool) {
        let lat = sorted(pooled_ms);
        let (p95, supported) = percentile_or_max(&lat, 0.95);
        self.p95_supported = supported;
        if !supported && !smoke {
            self.fail(format!(
                "p95 refused: only {} latency samples",
                pooled_ms.len()
            ));
        }
        self.wall = WallClock {
            throughput_ops_s: median(&self.round_throughputs()),
            latency_p50_ms: median(&lat),
            latency_p95_ms: p95,
        };
        let setups: Vec<f64> = self.setups.iter().map(|s| s.user_cpu_s).collect();
        let e = &mut self.end_to_end;
        e.insert("setup_s".into(), quiet_value(&setups));
        e.insert(
            "user_cpu_ms_per_op".into(),
            user_cpu_ms_per_op(&self.rounds),
        );
    }

    fn round_throughputs(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.ops as f64 / r.secs).collect()
    }
}

/// Run one workload.
pub fn run(args: &RunArgs) -> Outcome {
    let scratch = Scratch::new(args.workload.name());
    match args.workload {
        Workload::TrainPpo => run_train(args, &scratch),
        _ => run_serve(args, &scratch),
    }
}

// ---------------------------------------------------------------- serve

/// The generated inputs of a serve workload.
pub(crate) struct ServeInputs {
    /// Every program a request may name; CHStone first.
    pub(crate) programs: Vec<Program>,
    /// Programs `0..seeded` are in the store before a round starts.
    pub(crate) seeded: usize,
    /// One round's request list.
    pub(crate) requests: Vec<Request>,
    /// Client connections, and daemon workers to match.
    pub(crate) connections: usize,
    /// Requests per segment of the list.
    pub(crate) segment: usize,
}

impl ServeInputs {
    fn expected(&self, program: usize) -> Source {
        if program < self.seeded {
            Source::Store
        } else {
            Source::Policy
        }
    }
}

fn serve_inputs(workload: Workload, seed: u64, sizes: &Sizes, measured: &[Program]) -> ServeInputs {
    let mut rng = SplitMix(seed ^ 0x5EED_0001);
    let mut programs = chstone();
    match workload {
        Workload::ColdCorpus => {
            programs.extend_from_slice(&measured[..sizes.cold_programs]);
            let mut requests: Vec<Request> = (0..programs.len())
                .map(|program| Request {
                    program,
                    want_ir: false,
                })
                .collect();
            rng.shuffle(&mut requests);
            ServeInputs {
                programs,
                seeded: 0,
                requests,
                connections: sizes.connections,
                segment: sizes.cold_segment,
            }
        }
        Workload::WarmReplay => {
            programs.extend_from_slice(&measured[..sizes.warm_programs - programs.len()]);
            let mut order: Vec<usize> = (0..programs.len()).collect();
            rng.shuffle(&mut order);
            let requests = (0..sizes.warm_replays)
                .flat_map(|_| order.iter())
                .map(|&program| Request {
                    program,
                    want_ir: false,
                })
                .collect();
            ServeInputs {
                seeded: programs.len(),
                programs,
                requests,
                connections: sizes.connections,
                segment: sizes.warm_segment,
            }
        }
        Workload::MixedIr => {
            let seeded = sizes.mixed_seeded;
            let misses = sizes.mixed_requests * sizes.mixed_miss_per_100 / 100;
            programs.extend_from_slice(&measured[..seeded - programs.len() + misses]);
            let mut hits: Vec<usize> = (0..seeded).collect();
            rng.shuffle(&mut hits);
            let mut picks: Vec<usize> = (seeded..seeded + misses)
                .chain(hits.into_iter().cycle().take(sizes.mixed_requests - misses))
                .collect();
            rng.shuffle(&mut picks);
            // An exact share asks for IR, at seeded positions (so neither
            // connection, nor hits or misses, get more than their share).
            let with_ir = sizes.mixed_requests * sizes.mixed_ir_per_100 / 100;
            let mut want_ir: Vec<bool> = (0..sizes.mixed_requests).map(|i| i < with_ir).collect();
            rng.shuffle(&mut want_ir);
            ServeInputs {
                programs,
                seeded,
                requests: picks
                    .into_iter()
                    .zip(want_ir)
                    .map(|(program, want_ir)| Request { program, want_ir })
                    .collect(),
                connections: sizes.mixed_connections,
                segment: sizes.mixed_segment,
            }
        }
        Workload::TrainPpo => unreachable!("train-ppo has no serve inputs"),
    }
}

/// How many unseen corpus programs a workload measures.
fn corpus_needed(workload: Workload, sizes: &Sizes) -> usize {
    let chstone = autophase_benchmarks::suite().len();
    match workload {
        Workload::ColdCorpus => sizes.cold_programs,
        Workload::WarmReplay => sizes.warm_programs - chstone,
        Workload::MixedIr => {
            sizes.mixed_seeded - chstone + sizes.mixed_requests * sizes.mixed_miss_per_100 / 100
        }
        Workload::TrainPpo => 0,
    }
}

/// What set-up leaves behind for the measured rounds.
pub(crate) struct Prepared {
    pub(crate) inputs: ServeInputs,
    pub(crate) policy: Mlp,
    /// Directory holding the seeded store, when the workload has one.
    template: Option<PathBuf>,
}

/// The whole set-up, timed as `setup_s`: build the corpus, train the
/// reference policy, round-trip its checkpoint, start a daemon, seed the
/// store.
pub(crate) fn prepare(args: &RunArgs, scratch: &Scratch) -> Prepared {
    let sizes = args.sizes();
    let train = policy_training_set();
    let measured = unseen_corpus(args.seed, corpus_needed(args.workload, &sizes), &train);
    let inputs = serve_inputs(args.workload, args.seed, &sizes, &measured);
    let ckpt = scratch.fresh_dir("checkpoint").join("policy.ckpt");
    let (_, policy) = reference_policy(&train, &sizes, &ckpt);
    let dir = scratch.fresh_dir("seeded-store");

    let server = load::start_daemon(&policy, &dir, inputs.connections, false);
    let template = if inputs.seeded > 0 {
        let seeding: Vec<Request> = (0..inputs.seeded)
            .map(|program| Request {
                program,
                want_ir: false,
            })
            .collect();
        let round = load::closed_round(
            server.addr(),
            &inputs.programs,
            &seeding,
            inputs.connections,
            seeding.len(),
        );
        let cold = round
            .samples
            .iter()
            .filter(|s| matches!(&s.reply, Ok(r) if r.source == Source::Policy))
            .count();
        assert_eq!(
            cold, inputs.seeded,
            "seeding did not compile every program cold"
        );
        assert_eq!(server.store_len(), inputs.seeded, "seeded store is short");
        Some(dir)
    } else {
        load::connect(server.addr()).ping().expect("daemon answers");
        None
    };
    server.shutdown();
    Prepared {
        inputs,
        policy,
        template,
    }
}

pub(crate) struct MeasuredRound {
    pub(crate) round: Round,
    pub(crate) store_len: usize,
    stats: Option<StatsSnapshot>,
    host: HostVerdict,
    cpu_ms: f64,
}

pub(crate) fn serve_round(
    prep: &Prepared,
    scratch: &Scratch,
    telemetry: bool,
    open_rate: Option<f64>,
    spin_ms: f64,
) -> MeasuredRound {
    let inputs = &prep.inputs;
    let dir = scratch.fresh_dir("round");
    if let Some(template) = &prep.template {
        load::copy_store(template, &dir);
    }
    let server = load::start_daemon(&prep.policy, &dir, inputs.connections, telemetry);
    let before = HostMark::take();
    let cpu0 = host::process_total_cpu_ms();
    let (addr, n) = (server.addr(), inputs.connections);
    let round = match open_rate {
        None => load::closed_round(addr, &inputs.programs, &inputs.requests, n, inputs.segment),
        Some(rate) => load::open_round(addr, &inputs.programs, &inputs.requests, n, rate),
    };
    let cpu_ms = host::process_total_cpu_ms() - cpu0;
    let host = host::judge(before, HostMark::take(), spin_ms);
    let stats = telemetry.then(|| load::fetch_stats(server.addr()));
    let store_len = server.store_len();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    MeasuredRound {
        round,
        store_len,
        stats,
        host,
        cpu_ms,
    }
}

impl MeasuredRound {
    fn summary(&self) -> RoundSummary {
        let round = &self.round;
        let lat = sorted(
            &round
                .samples
                .iter()
                .map(|s| ms(s.latency_ns))
                .collect::<Vec<_>>(),
        );
        RoundSummary {
            ops: lat.len(),
            secs: round.wall_ns as f64 / 1e9,
            samples: lat.len(),
            p50_ms: median(&lat),
            p95_ms: percentile(&lat, 0.95),
            host: self.host,
            cpu_ms: self.cpu_ms,
            // One segment between each pair of marks.
            user_cpu_s: round
                .marks
                .windows(2)
                .map(|w| (w[1].user_cpu_ms - w[0].user_cpu_ms) / 1e3)
                .collect(),
        }
    }
}

/// Run rounds until `seconds` have passed, and at least `min_rounds`.
fn rounds_until<T>(seconds: f64, min_rounds: usize, mut one: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        out.push(one());
    }
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run_serve(args: &RunArgs, scratch: &Scratch) -> Outcome {
    let sizes = args.sizes();
    let mut out = Outcome::default();
    let spin_ms = host::calibrate_spin_ms();

    // The whole set-up, several times over: `setup_s` is the cheapest.
    let mut prep = None;
    for _ in 0..sizes.setups {
        let (made, taken) = SetUp::time(|| prepare(args, scratch));
        out.setups.push(taken);
        prep = Some(made);
    }
    let prep = prep.expect("at least one set-up");
    let inputs = &prep.inputs;

    // Reference, client-side and off the clock.
    let o3 = o3_reference(&inputs.programs);

    let (untraced_secs, traced_secs) = if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    };
    autophase_telemetry::disable();
    let untraced = rounds_until(untraced_secs, sizes.min_rounds, || {
        serve_round(&prep, scratch, false, None, spin_ms)
    });

    // ---- Check every reply of every round; pool the samples.
    let mut first: Vec<Option<CompileReply>> = vec![None; inputs.programs.len()];
    let mut per_program_ms: Vec<Vec<f64>> = vec![Vec::new(); inputs.programs.len()];
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut policy_replies = 0usize;
    let mut inserted = 0usize;
    for m in &untraced {
        out.push_round(m.summary());
        inserted += m.store_len - inputs.seeded;
        for s in &m.round.samples {
            out.attempted += 1;
            latencies_ms.push(ms(s.latency_ns));
            per_program_ms[s.program].push(ms(s.latency_ns));
            check_sample(&mut out, inputs, s, &mut first);
            if let Ok(r) = &s.reply {
                policy_replies += usize::from(r.source == Source::Policy);
                by_class
                    .entry(Class::of(r.source).label())
                    .or_default()
                    .push(s.latency_ns as f64 / 1e3);
            }
        }
    }
    out.client_p50_us = by_class.iter().map(|(c, v)| (*c, median(v))).collect();

    // ---- Output oracle, after the timed rounds.
    run_oracle(&mut out, &prep, scratch, &first, &sizes);

    // ---- End-to-end metrics.
    out.timing_metrics(&latencies_ms, args.smoke);
    let lat = sorted(&latencies_ms);
    let round_tput = out.round_throughputs();
    out.rows = serve_rows(&inputs.programs, &first, &o3, &per_program_ms);
    let (speedup, one_compilation_rate) = quality(&out.rows);
    out.end_to_end
        .insert("speedup_vs_o3_geomean".into(), speedup);

    if !args.trace {
        return out;
    }

    // ---- Client- and process-side layer metrics, from the untraced rounds.
    let l = &mut out.layers;
    let ops: usize = out.rounds.iter().map(|r| r.ops).sum();
    l.insert(
        "client.latency_p99_ms".into(),
        percentile_or_max(&lat, 0.99).0,
    );
    l.insert(
        "client.latency_max_ms".into(),
        lat.last().copied().unwrap_or(0.0),
    );
    l.insert("client.round_spread".into(), round_spread(&round_tput));
    out.wall.insert_into(l);
    l.insert(
        "process.cpu_ms_per_op".into(),
        untraced.iter().map(|m| m.cpu_ms).sum::<f64>() / ops.max(1) as f64,
    );
    l.insert(
        "process.host_steal_share".into(),
        mean(
            &out.rounds
                .iter()
                .map(|r| r.host.steal_share)
                .collect::<Vec<_>>(),
        ),
    );
    l.insert("quality.one_compilation_rate".into(), one_compilation_rate);
    l.insert("quality.programs".into(), out.rows.len() as f64);
    l.insert(
        "serve.store.insert_ratio".into(),
        inserted as f64 / policy_replies.max(1) as f64,
    );

    // ---- Traced rounds: same work, daemon telemetry on.
    autophase_telemetry::reset();
    let traced = rounds_until(traced_secs, sizes.min_rounds, || {
        serve_round(&prep, scratch, true, None, spin_ms)
    });
    autophase_telemetry::disable();
    let traced_rounds: Vec<RoundSummary> = traced.iter().map(MeasuredRound::summary).collect();
    let traced_mean_us = mean(
        &traced
            .iter()
            .flat_map(|m| m.round.samples.iter().map(|s| s.latency_ns as f64 / 1e3))
            .collect::<Vec<_>>(),
    );
    for m in &traced {
        for s in &m.round.samples {
            out.attempted += 1;
            check_sample(&mut out, inputs, s, &mut first);
        }
    }
    let l = &mut out.layers;
    l.insert(
        "telemetry.overhead_ratio".into(),
        user_cpu_ms_per_op(&out.rounds) / user_cpu_ms_per_op(&traced_rounds),
    );
    // The registry is process-wide and was reset before the traced
    // rounds, so the last round's STATS covers all of them.
    let stats = traced.last().and_then(|m| m.stats.as_ref());
    let total = stats.and_then(|s| s.hist("serve.stage_ns", "total"));
    let mut stage_sum_us = 0.0;
    for stage in STAGES {
        // A stage the daemon no longer reports reads as absent (0).
        let h = stats.and_then(|s| s.hist("serve.stage_ns", stage));
        // Mean over *all* requests, so the stage means add up to the
        // mean request even for stages only some requests reach.
        let mean_us = match (h, total) {
            (Some(h), Some(t)) if t.count > 0 => h.sum as f64 / t.count as f64 / 1e3,
            _ => 0.0,
        };
        stage_sum_us += mean_us;
        l.insert(format!("serve.stage.{stage}_us"), mean_us);
        if stage == "record" || stage == "reply_write" {
            l.insert(
                format!("serve.stage.{stage}_p95_us"),
                h.map_or(0.0, |h| h.p95 as f64 / 1e3),
            );
        }
    }
    l.insert(
        "serve.stage.coverage_ratio".into(),
        stage_sum_us / traced_mean_us.max(f64::MIN_POSITIVE),
    );

    // ---- One open-loop round (mixed-ir only): the same list offered on a
    // fixed schedule instead of as fast as replies return. Reported as
    // layer metrics only: below saturation an open loop on this box
    // mostly measures how long the hypervisor takes to wake an idle
    // vCPU, which is why the end-to-end numbers come from closed loops.
    if args.workload == Workload::MixedIr {
        let open = serve_round(&prep, scratch, false, Some(sizes.open_rate as f64), spin_ms);
        let lat = sorted(
            &open
                .round
                .samples
                .iter()
                .map(|s| ms(s.latency_ns))
                .collect::<Vec<_>>(),
        );
        let late = sorted(
            &open
                .round
                .samples
                .iter()
                .map(|s| ms(s.late_ns))
                .collect::<Vec<_>>(),
        );
        for s in &open.round.samples {
            out.attempted += 1;
            check_sample(&mut out, inputs, s, &mut first);
        }
        let l = &mut out.layers;
        l.insert("client.open_p50_ms".into(), median(&lat));
        l.insert("client.open_p95_ms".into(), percentile_or_max(&lat, 0.95).0);
        l.insert(
            "client.generator_late_p95_ms".into(),
            percentile_or_max(&late, 0.95).0,
        );
        l.insert("client.backlog_max".into(), open.round.backlog_max as f64);
    }

    // ---- Layer replay on a seeded sample of the round's requests.
    let sample = replay_sample(inputs, &first, args.seed, sizes.replay_sample);
    let mut replay = Replay::new(&prep.policy);
    replay.serve_requests(&sample, &scratch.fresh_dir("replay"));
    for m in replay.mismatches().to_vec() {
        out.attempted += 1;
        out.fail(format!("layer replay: {m}"));
    }
    out.attempted += sample.len() as u64;
    out.layer_time_us = replay.layer_time_us_by_class();
    let mut layers = replay.layers();
    // Coverage: replayed layer time over the client's p50, per class,
    // weighted by how many sampled requests each class had.
    let (mut num, mut den) = (0.0, 0.0);
    for (class, layer_us) in &out.layer_time_us {
        let weight = sample
            .iter()
            .filter(|r| Class::of(r.served.source).label() == *class)
            .count() as f64;
        num += weight * layer_us;
        den += weight * out.client_p50_us.get(class).copied().unwrap_or(0.0);
    }
    layers.insert(
        "layers.coverage_ratio".into(),
        if den > 0.0 { num / den } else { 0.0 },
    );
    layers.insert("layers.replayed_requests".into(), sample.len() as f64);
    layers.insert(
        "layers.replay_mismatches".into(),
        replay.mismatches().len() as f64,
    );
    out.layers.extend(layers);
    out.layers
        .insert("process.peak_rss_mib".into(), host::peak_rss_mib());
    out.layers.insert(
        "client.failed_share".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    let path = host::out_dir().join(format!("trace-{}.jsonl", args.workload.name()));
    replay.rec.write_jsonl(&path).expect("write the span file");
    out.trace_file = Some(path);
    out
}

/// One row per answered program, in list order; `latencies_ms[p]` holds
/// program `p`'s client latencies (its median is the row's latency).
pub(crate) fn serve_rows(
    programs: &[Program],
    first: &[Option<CompileReply>],
    o3: &[u64],
    latencies_ms: &[Vec<f64>],
) -> Vec<Row> {
    first
        .iter()
        .enumerate()
        .filter_map(|(p, reply)| {
            reply.as_ref().map(|reply| Row {
                index: p,
                name: programs[p].name.clone(),
                fingerprint: programs[p].fingerprint,
                latency_ms: median(&latencies_ms[p]),
                cycles: reply.cycles,
                o3_cycles: o3[p],
                source: reply.source.as_str(),
            })
        })
        .collect()
}

/// Geometric-mean speedup over `-O3` and the share of programs served at
/// or under their `-O3` cycle count (the Fig. 9 one-compilation rate),
/// over distinct programs in list order.
pub(crate) fn quality(rows: &[Row]) -> (f64, f64) {
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.o3_cycles as f64 / r.cycles.max(1) as f64)
        .collect();
    let wins = rows.iter().filter(|r| r.cycles <= r.o3_cycles).count();
    (geomean(&ratios), wins as f64 / rows.len().max(1) as f64)
}

/// A seeded sample of the round's requests, one per distinct program,
/// each paired with what the daemon answered.
pub(crate) fn replay_sample<'a>(
    inputs: &'a ServeInputs,
    first: &'a [Option<CompileReply>],
    seed: u64,
    count: usize,
) -> Vec<ReplayRequest<'a>> {
    let mut order: Vec<usize> = (0..inputs.requests.len()).collect();
    SplitMix(seed ^ 0x5EED_0002).shuffle(&mut order);
    let mut seen = vec![false; inputs.programs.len()];
    order
        .into_iter()
        .map(|i| inputs.requests[i])
        .filter(|r| !std::mem::replace(&mut seen[r.program], true))
        .filter_map(|r| {
            first[r.program].as_ref().map(|served| ReplayRequest {
                program: &inputs.programs[r.program],
                index: r.program,
                want_ir: r.want_ir,
                served,
            })
        })
        .take(count)
        .collect()
}

/// A reply fails when it is an error, comes from the wrong rung, or
/// disagrees with the first reply for the same program (same input, same
/// policy, same store contents: the answer must repeat).
fn check_sample(
    out: &mut Outcome,
    inputs: &ServeInputs,
    s: &Sample,
    first: &mut [Option<CompileReply>],
) {
    let name = &inputs.programs[s.program].name;
    match &s.reply {
        Err(e) => out.fail(format!("{name}: {e}")),
        Ok(r) if r.source != inputs.expected(s.program) => out.fail(format!(
            "{name}: answered from {}, expected {}",
            r.source.as_str(),
            inputs.expected(s.program).as_str()
        )),
        Ok(r) => match &mut first[s.program] {
            slot @ None => *slot = Some(r.clone()),
            Some(f) if f.cycles != r.cycles || f.passes != r.passes => out.fail(format!(
                "{name}: answer changed between requests ({} vs {} cycles)",
                f.cycles, r.cycles
            )),
            Some(f) => match (&f.ir, &r.ir) {
                (Some(a), Some(b)) if a != b => {
                    out.fail(format!("{name}: served IR changed between requests"))
                }
                // Keep the reply that carries IR, for the oracle.
                (None, Some(_)) => *f = r.clone(),
                _ => {}
            },
        },
    }
}

/// The output oracle. `mixed-ir` replies that asked for IR carry it:
/// check every distinct one. The other serve workloads ask `want_ir=0`, so a seeded
/// one-in-`oracle_stride` sample is re-requested with `want_ir=1` from a
/// fresh daemon on the same store contents, and must also agree with
/// what the timed rounds served.
fn run_oracle(
    out: &mut Outcome,
    prep: &Prepared,
    scratch: &Scratch,
    first: &[Option<CompileReply>],
    sizes: &Sizes,
) {
    let programs = &prep.inputs.programs;
    let mut to_check: Vec<(usize, CompileReply)> = Vec::new();
    if prep.inputs.requests.iter().any(|r| r.want_ir) {
        for (p, reply) in first.iter().enumerate() {
            if let Some(reply) = reply.as_ref().filter(|r| r.ir.is_some()) {
                to_check.push((p, reply.clone()));
            }
        }
    } else {
        let picks: Vec<Request> = (0..programs.len())
            .filter(|p| first[*p].is_some())
            .step_by(sizes.oracle_stride)
            .map(|program| Request {
                program,
                want_ir: true,
            })
            .collect();
        let dir = scratch.fresh_dir("oracle");
        if let Some(template) = &prep.template {
            load::copy_store(template, &dir);
        }
        let n = prep.inputs.connections;
        let server = load::start_daemon(&prep.policy, &dir, n, false);
        let round = load::closed_round(server.addr(), programs, &picks, n, picks.len());
        server.shutdown();
        for s in round.samples {
            let name = &programs[s.program].name;
            match (s.reply, &first[s.program]) {
                (Ok(r), Some(f)) if r.cycles == f.cycles && r.passes == f.passes => {
                    to_check.push((s.program, r));
                }
                (Ok(r), _) => {
                    out.attempted += 1;
                    out.fail(format!(
                        "{name}: want_ir=1 answer ({} cycles) differs from the timed one",
                        r.cycles
                    ));
                }
                (Err(e), _) => {
                    out.attempted += 1;
                    out.fail(format!("{name}: oracle request failed: {e}"));
                }
            }
        }
    }
    // The checks interpret and re-profile: spread them over the cores.
    let verdicts: Vec<Result<(), String>> = {
        let chunk = to_check.len().div_ceil(LANES).max(1);
        let mut verdicts = Vec::with_capacity(to_check.len());
        std::thread::scope(|scope| {
            let lanes: Vec<_> = to_check
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(move || {
                        part.iter()
                            .map(|(p, reply)| oracle::check_reply(&programs[*p], reply))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for lane in lanes {
                verdicts.extend(lane.join().expect("oracle lane panicked"));
            }
        });
        verdicts
    };
    for ((p, _), verdict) in to_check.iter().zip(verdicts) {
        out.attempted += 1;
        if let Err(e) = verdict {
            out.fail(format!("{}: oracle: {e}", programs[*p].name));
        }
    }
}

// ---------------------------------------------------------------- train

/// One `train-ppo` round's results.
pub(crate) struct TrainRound {
    iter_ms: Vec<f64>,
    /// [`host::process_user_cpu_ms`] read before every `ppo_segment`-th
    /// iteration and after the last.
    user_cpu_marks_ms: Vec<f64>,
    collect_ms: Vec<f64>,
    update_ms: Vec<f64>,
    pub(crate) steps: usize,
    short_iters: usize,
    pub(crate) chstone_cycles: Vec<u64>,
    pub(crate) hit_ratio: f64,
    evictions: u64,
    finite: bool,
    host: HostVerdict,
    cpu_ms: f64,
}

pub(crate) fn train_round(
    train: &[autophase_ir::Module],
    chstone: &[Program],
    seed: u64,
    sizes: &Sizes,
    spin_ms: f64,
) -> TrainRound {
    let mut trainer = Trainer::new(train, seed);
    let mut rec = Recorder::new();
    let before = HostMark::take();
    let cpu0 = host::process_total_cpu_ms();
    let mut r = TrainRound {
        iter_ms: Vec::with_capacity(sizes.ppo_iters),
        user_cpu_marks_ms: Vec::new(),
        collect_ms: Vec::with_capacity(sizes.ppo_iters),
        update_ms: Vec::with_capacity(sizes.ppo_iters),
        steps: 0,
        short_iters: 0,
        chstone_cycles: Vec::new(),
        hit_ratio: 0.0,
        evictions: 0,
        finite: true,
        host: host::judge(before, before, spin_ms),
        cpu_ms: 0.0,
    };
    for i in 0..sizes.ppo_iters {
        if i.is_multiple_of(sizes.ppo_segment.max(1)) {
            r.user_cpu_marks_ms.push(host::process_user_cpu_ms());
        }
        let cost = trainer.iterate(sizes.ppo_episodes_per_iter, &mut rec);
        r.iter_ms.push(ms(cost.collect_ns + cost.update_ns));
        r.collect_ms.push(ms(cost.collect_ns));
        r.update_ms.push(ms(cost.update_ns));
        r.steps += cost.steps;
        r.short_iters += usize::from(cost.steps != sizes.ppo_episodes_per_iter * SERVE_EPISODE_LEN);
    }
    r.user_cpu_marks_ms.push(host::process_user_cpu_ms());
    r.cpu_ms = host::process_total_cpu_ms() - cpu0;
    r.host = host::judge(before, HostMark::take(), spin_ms);
    let cache = trainer.cache.stats();
    r.hit_ratio = cache.hit_rate();
    r.evictions = trainer.cache.evictions();
    r.finite = trainer
        .agent
        .policy
        .parameters()
        .iter()
        .chain(&trainer.agent.value.parameters())
        .all(|p| p.is_finite());
    // Quality: the greedy policy after the fixed iterations, one
    // compilation per CHStone program (the Fig. 9 protocol).
    let cfg = serve_env_config();
    r.chstone_cycles = chstone
        .iter()
        .map(|p| infer_sequence(&trainer.agent, &cfg, &p.module).1)
        .collect();
    r
}

/// `train-ppo`'s training programs for a seed: CHStone plus
/// [`TRAIN_CORPUS`] corpus programs.
pub(crate) fn train_set(seed: u64) -> Vec<autophase_ir::Module> {
    chstone()
        .into_iter()
        .chain(corpus_programs(seed, TRAIN_CORPUS))
        .map(|p| p.module)
        .collect()
}

/// The CHStone programs' rows for a trained policy's served cycles.
pub(crate) fn chstone_rows(chs: &[Program], cycles: &[u64], o3: &[u64]) -> Vec<Row> {
    chs.iter()
        .zip(cycles.iter().zip(o3))
        .enumerate()
        .map(|(index, (p, (&cycles, &o3_cycles)))| Row {
            index,
            name: p.name.clone(),
            fingerprint: p.fingerprint,
            latency_ms: 0.0,
            cycles,
            o3_cycles,
            source: "policy",
        })
        .collect()
}

impl TrainRound {
    /// The round's summary: its seconds are the iterations' (collect +
    /// update), summed; one latency sample per iteration; one segment
    /// between each pair of CPU marks.
    fn summary(&self) -> RoundSummary {
        let lat = sorted(&self.iter_ms);
        RoundSummary {
            ops: self.steps,
            secs: self.iter_ms.iter().sum::<f64>() / 1e3,
            samples: lat.len(),
            p50_ms: median(&lat),
            p95_ms: percentile(&lat, 0.95),
            host: self.host,
            cpu_ms: self.cpu_ms,
            user_cpu_s: self
                .user_cpu_marks_ms
                .windows(2)
                .map(|w| (w[1] - w[0]) / 1e3)
                .collect(),
        }
    }
}

fn run_train(args: &RunArgs, scratch: &Scratch) -> Outcome {
    let sizes = args.sizes();
    let mut out = Outcome::default();
    let spin_ms = host::calibrate_spin_ms();

    // Set-up, as for the serve workloads: the reference policy (whose
    // one-compilation quality on CHStone is this workload's quality
    // number: what the training loop yields from a fixed seed), plus this
    // seed's training programs and one throw-away iteration, so lazy
    // initialisation is paid before the clock starts.
    let chs = chstone();
    let mut set_up = None;
    for _ in 0..sizes.setups {
        let (made, taken) = SetUp::time(|| {
            let (reference, _) = reference_policy(
                &policy_training_set(),
                &sizes,
                &scratch.fresh_dir("checkpoint").join("policy.ckpt"),
            );
            let train = train_set(args.seed);
            Trainer::new(&train, args.seed)
                .iterate(sizes.ppo_episodes_per_iter, &mut Recorder::new());
            (reference, train)
        });
        out.setups.push(taken);
        set_up = Some(made);
    }
    let (reference, train) = set_up.expect("at least one set-up");
    let cfg = serve_env_config();
    let reference_cycles: Vec<u64> = chs
        .iter()
        .map(|p| infer_sequence(&reference, &cfg, &p.module).1)
        .collect();
    let o3 = o3_reference(&chs);

    let (untraced_secs, traced_secs) = if args.trace {
        (args.seconds / 2.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    };
    let run_rounds = |seconds: f64| {
        rounds_until(seconds, sizes.min_rounds, || {
            train_round(&train, &chs, args.seed, &sizes, spin_ms)
        })
    };
    autophase_telemetry::disable();
    let rounds = run_rounds(untraced_secs);

    let mut iter_ms = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        out.push_round(r.summary());
        out.attempted += r.steps as u64;
        iter_ms.extend_from_slice(&r.iter_ms);
        for _ in 0..r.short_iters {
            out.fail(format!(
                "round {i}: an iteration collected fewer steps than asked"
            ));
        }
        out.attempted += 2;
        if !r.finite {
            out.fail(format!("round {i}: trained parameters are not finite"));
        }
        // Same seed, same programs, fresh agent: every round must end at
        // the same policy, hence the same served cycles.
        if r.chstone_cycles != rounds[0].chstone_cycles {
            out.fail(format!("round {i}: trained policy differs from round 0's"));
        }
    }
    out.timing_metrics(&iter_ms, args.smoke);
    let lat = sorted(&iter_ms);
    let round_tput = out.round_throughputs();
    out.rows = chstone_rows(&chs, &reference_cycles, &o3);
    let (speedup, one_compilation_rate) = quality(&out.rows);
    out.end_to_end
        .insert("speedup_vs_o3_geomean".into(), speedup);
    if !args.trace {
        return out;
    }

    let collect: Vec<f64> = rounds.iter().flat_map(|r| r.collect_ms.clone()).collect();
    let update: Vec<f64> = rounds.iter().flat_map(|r| r.update_ms.clone()).collect();
    let ops: usize = out.rounds.iter().map(|r| r.ops).sum();
    let l = &mut out.layers;
    l.insert(
        "client.latency_p99_ms".into(),
        percentile_or_max(&lat, 0.99).0,
    );
    l.insert(
        "client.latency_max_ms".into(),
        lat.last().copied().unwrap_or(0.0),
    );
    l.insert("client.round_spread".into(), round_spread(&round_tput));
    out.wall.insert_into(l);
    l.insert(
        "process.cpu_ms_per_op".into(),
        rounds.iter().map(|r| r.cpu_ms).sum::<f64>() / ops.max(1) as f64,
    );
    l.insert(
        "process.host_steal_share".into(),
        mean(
            &out.rounds
                .iter()
                .map(|r| r.host.steal_share)
                .collect::<Vec<_>>(),
        ),
    );
    l.insert("quality.one_compilation_rate".into(), one_compilation_rate);
    l.insert("quality.programs".into(), out.rows.len() as f64);
    l.insert("rl.collect_ms".into(), median(&collect));
    l.insert("rl.update_ms".into(), median(&update));
    l.insert(
        "rl.collect_share".into(),
        collect.iter().sum::<f64>() / (collect.iter().sum::<f64>() + update.iter().sum::<f64>()),
    );
    l.insert("core.evalcache.hit_ratio".into(), rounds[0].hit_ratio);
    l.insert(
        "core.evalcache.evictions".into(),
        rounds[0].evictions as f64,
    );

    // Traced rounds: the same loop with the stack's telemetry registry on.
    autophase_telemetry::reset();
    autophase_telemetry::enable();
    let traced = run_rounds(traced_secs);
    autophase_telemetry::disable();
    let traced_rounds: Vec<RoundSummary> = traced.iter().map(TrainRound::summary).collect();
    out.layers.insert(
        "telemetry.overhead_ratio".into(),
        user_cpu_ms_per_op(&out.rounds) / user_cpu_ms_per_op(&traced_rounds),
    );

    // Layer replay: one more round of the loop with a span around each
    // phase, then each layer's public calls on the training programs
    // under the policy that round produced.
    let mut trainer = Trainer::new(&train, args.seed);
    let mut rec = Recorder::new();
    for i in 0..sizes.ppo_iters {
        let root = rec.enter("ppo_iteration", "", i);
        trainer.iterate(sizes.ppo_episodes_per_iter, &mut rec);
        rec.exit(root);
    }
    let mut replay = Replay::new(&trainer.agent.policy);
    replay.rec = rec;
    let hls = inputs::serve_hls();
    for (id, module) in train.iter().enumerate() {
        replay.open_rollout(module, id);
        replay.program_layers(module, id);
        replay.rec.time("profile_module", "input", id, || {
            profile_module(module, &hls)
                .expect("training program profiles")
                .cycles
        });
    }
    replay.env_episodes(&train);
    replay.note_requests(train.len());
    out.attempted += train.len() as u64;
    let mut layers = replay.layers();
    layers.insert("layers.replayed_requests".into(), train.len() as f64);
    layers.insert(
        "layers.replay_mismatches".into(),
        replay.mismatches().len() as f64,
    );
    // One env step is the unit of work here: compare the replayed step
    // with the loop's own collect time per step.
    let step_us = layers.get("core.env.step_us").copied().unwrap_or(0.0);
    let collect_us_per_step = collect.iter().sum::<f64>() * 1e3 * LANES as f64 / ops.max(1) as f64;
    layers.insert(
        "layers.coverage_ratio".into(),
        if collect_us_per_step > 0.0 {
            step_us / collect_us_per_step
        } else {
            0.0
        },
    );
    out.layers.extend(layers);
    out.layers
        .insert("process.peak_rss_mib".into(), host::peak_rss_mib());
    out.layers.insert(
        "client.failed_share".into(),
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let path = host::out_dir().join(format!("trace-{}.jsonl", args.workload.name()));
    replay.rec.write_jsonl(&path).expect("write the span file");
    out.trace_file = Some(path);
    out
}
