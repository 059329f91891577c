//! The layer replay: perform a sample of the workload's requests
//! *ourselves*, in the daemon's order, with one span per public call.
//!
//! Spans live in this file, around the calls into each layer — no crate
//! is edited. The replay re-does the request's real work (real parse,
//! real rollout through a real `InferenceEngine`, real fsync'd
//! `BestStore::record` into a scratch directory), so each layer's number
//! is that layer's public function timed on the workload's own inputs,
//! and the per-request layer times can be summed and compared with what
//! the client saw end to end.

use crate::inputs::{serve_hls, Program};
use crate::spans::{self, Recorder, Span};
use crate::stats::{mean, median, percentile_or_max, sorted};
use autophase_core::env::FILTERED_PASSES;
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::Quarantine;
use autophase_features::{extract, inst_count_filtered, IncrementalFeatures};
use autophase_hls::profile::profile_module;
use autophase_hls::schedule_function;
use autophase_ir::parser::parse_module;
use autophase_ir::printer::print_module;
use autophase_ir::verify::verify_module;
use autophase_ir::Module;
use autophase_nn::{BatchWorkspace, Mlp, SoaMlp};
use autophase_passes::checked::{apply_checked, apply_checked_changeset, FuelBudget};
use autophase_passes::pass_name;
use autophase_rl::env::Environment;
use autophase_serve::client::CompileReply;
use autophase_serve::engine::{
    serve_env, serve_layout, EngineConfig, InferenceEngine, SERVE_EPISODE_LEN,
};
use autophase_serve::protocol::{self, Reply, Request, Source};
use autophase_serve::store::{BestEntry, BestStore};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer numbers by metric name.
pub type Layers = BTreeMap<String, f64>;

/// The request classes a serve workload is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Never-seen program: the full cold path.
    Miss,
    /// Stored program: lookup and reply.
    Hit,
}

impl Class {
    /// Span detail / report label.
    pub fn label(self) -> &'static str {
        match self {
            Class::Miss => "miss",
            Class::Hit => "hit",
        }
    }

    /// The class of a reply, by where it was answered from.
    pub fn of(source: Source) -> Class {
        match source {
            Source::Store => Class::Hit,
            Source::Policy | Source::Baseline => Class::Miss,
        }
    }
}

/// One request to replay: the program, how it was asked, and what the
/// daemon answered (the replay must reproduce it).
#[derive(Debug, Clone)]
pub struct ReplayRequest<'a> {
    /// The input program.
    pub program: &'a Program,
    /// Position in the workload's program list (the span `request` id).
    pub index: usize,
    /// Whether the client asked for IR.
    pub want_ir: bool,
    /// The daemon's reply to this request in the measured rounds.
    pub served: &'a CompileReply,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
struct Counts {
    requests: usize,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    insts_in: Vec<f64>,
    insts_out: Vec<f64>,
    apply_calls: usize,
    apply_changed: usize,
    apply_faults: usize,
    infer_calls: Vec<f64>,
    infer_wait_us: Vec<f64>,
    infer_batch_max: u32,
    seq_apply_ns: Vec<f64>,
    bytes_per_record: f64,
    mismatches: Vec<String>,
}

/// The replay's recorder, counters and the engine it drives.
pub struct Replay {
    /// Every span recorded.
    pub rec: Recorder,
    counts: Counts,
    policy: Mlp,
    soa: SoaMlp,
    ws: BatchWorkspace,
    fuel: FuelBudget,
}

fn pass_label(pass: usize) -> &'static str {
    pass_name(pass).trim_start_matches('-')
}

fn argmax_first(logits: &[f64]) -> usize {
    // The engine's rule: strictly greater wins, so the first maximum.
    let mut best = 0;
    for (a, &s) in logits.iter().enumerate() {
        if s > logits[best] {
            best = a;
        }
    }
    best
}

impl Replay {
    /// A replay driving `policy`.
    pub fn new(policy: &Mlp) -> Replay {
        Replay {
            rec: Recorder::new(),
            counts: Counts::default(),
            policy: policy.clone(),
            soa: SoaMlp::from_mlp(policy),
            ws: BatchWorkspace::new(),
            fuel: FuelBudget::default(),
        }
    }

    /// Replay serve requests in the daemon's order against a scratch
    /// store in `store_dir` (pre-loaded with the stored answers of every
    /// hit-class request, so lookups hit as they did in the daemon).
    pub fn serve_requests(&mut self, requests: &[ReplayRequest], store_dir: &Path) {
        let hls = serve_hls();
        let store_path = store_dir.join("store.log");
        let mut store = BestStore::open(&store_path).expect("open the replay store");
        for r in requests {
            if Class::of(r.served.source) == Class::Hit {
                let entry = BestEntry {
                    cycles: r.served.cycles,
                    baseline_cycles: r.served.baseline_cycles,
                    seq: r.served.passes.iter().map(|&p| p as u16).collect(),
                };
                store
                    .record(r.program.fingerprint, entry)
                    .expect("pre-load the replay store");
            }
        }
        let engine = InferenceEngine::start(self.policy.clone(), EngineConfig::default())
            .expect("engine starts");
        let quarantine = Quarantine::default();

        for r in requests {
            let class = Class::of(r.served.source);
            let id = r.index;
            self.counts.requests += 1;
            let root = self.rec.enter("request", class.label(), id);

            // Wire: encode as the client does, decode as the daemon does.
            let req = Request::Compile {
                ir: r.program.ir.clone(),
                deadline_ms: Some(crate::load::DEADLINE.as_millis() as u64),
                want_ir: r.want_ir,
            };
            let (wire, _) = self.rec.time("write_request", "", id, || {
                let mut buf = Vec::with_capacity(r.program.ir.len() + 64);
                protocol::write_request(&mut buf, &req).expect("encode request");
                buf
            });
            self.counts.request_bytes.push(wire.len() as f64);
            let (decoded, _) = self.rec.time("read_request", "", id, || {
                protocol::read_request(&mut &wire[..]).expect("decode request")
            });
            let Some(Request::Compile { ir, .. }) = decoded else {
                panic!("request did not round-trip");
            };

            let (module, _) = self.rec.time("parse_module", "", id, || {
                parse_module(&ir).expect("parses")
            });
            self.rec.time("verify_module", "", id, || {
                verify_module(&module).expect("verifies")
            });
            let (fp, _) = self
                .rec
                .time("fingerprint_module", "", id, || fingerprint_module(&module));
            let (hit, _) = self
                .rec
                .time("BestStore::lookup", "", id, || store.lookup(fp).cloned());
            self.counts.insts_in.push(module.num_insts() as f64);

            let reply = match (class, hit) {
                (Class::Hit, Some(entry)) => {
                    let passes: Vec<usize> = entry.seq.iter().map(|&p| p as usize).collect();
                    let ir_out = r.want_ir.then(|| {
                        let mut m = module.clone();
                        let seq = self.rec.enter("replay_passes", "", id);
                        for &p in &passes {
                            self.apply(&mut m, p, id, "apply_checked");
                        }
                        self.rec.exit(seq);
                        self.counts
                            .seq_apply_ns
                            .push(self.rec.spans()[seq].duration_ns() as f64);
                        self.counts.insts_out.push(m.num_insts() as f64);
                        self.rec.time("print_module", "", id, || print_module(&m)).0
                    });
                    Reply::Compiled {
                        source: Source::Store,
                        cycles: entry.cycles,
                        baseline_cycles: entry.baseline_cycles,
                        passes,
                        ir: ir_out,
                    }
                }
                (Class::Miss, None) => {
                    let (base, _) = self.rec.time("profile_module", "baseline", id, || {
                        profile_module(&module, &hls)
                            .expect("input profiles")
                            .cycles
                    });
                    let mut optimized = module.clone();
                    let (report, _) = self.rec.time("choose_sequence_report", "", id, || {
                        engine
                            .choose_sequence_report(&mut optimized, fp, &quarantine, &self.fuel)
                            .expect("policy path answers")
                    });
                    let (cycles, _) = self.rec.time("profile_module", "optimized", id, || {
                        profile_module(&optimized, &hls)
                            .expect("output profiles")
                            .cycles
                    });
                    let entry = BestEntry {
                        cycles,
                        baseline_cycles: base,
                        seq: report.applied.iter().map(|&p| p as u16).collect(),
                    };
                    let (inserted, _) = self.rec.time("BestStore::record", "", id, || {
                        store.record(fp, entry).expect("record")
                    });
                    if !inserted {
                        self.counts.mismatches.push(format!(
                            "{}: first record of a never-seen program was not inserted",
                            r.program.name
                        ));
                    }
                    self.counts.infer_calls.push(report.infer_calls as f64);
                    self.counts
                        .infer_wait_us
                        .push(report.infer_wait_ns as f64 / 1e3);
                    self.counts.infer_batch_max =
                        self.counts.infer_batch_max.max(report.infer_batch_max);
                    self.counts.apply_faults += report.pass_faults as usize;
                    self.counts.insts_out.push(optimized.num_insts() as f64);
                    let ir_out = r.want_ir.then(|| {
                        self.rec
                            .time("print_module", "", id, || print_module(&optimized))
                            .0
                    });
                    Reply::Compiled {
                        source: Source::Policy,
                        cycles,
                        baseline_cycles: base,
                        passes: report.applied,
                        ir: ir_out,
                    }
                }
                (class, hit) => {
                    self.counts.mismatches.push(format!(
                        "{}: replay store {} but the daemon answered as a {}",
                        r.program.name,
                        if hit.is_some() { "hit" } else { "missed" },
                        class.label()
                    ));
                    self.rec.exit(root);
                    continue;
                }
            };

            let (rwire, _) = self.rec.time("write_reply", "", id, || {
                let mut buf = Vec::new();
                protocol::write_reply(&mut buf, &reply).expect("encode reply");
                buf
            });
            self.counts.reply_bytes.push(rwire.len() as f64);
            let (back, _) = self.rec.time("read_reply", "", id, || {
                protocol::read_reply(&mut &rwire[..]).expect("decode reply")
            });
            self.rec.exit(root);

            // The replay only explains the daemon if it did the same work.
            if let Reply::Compiled { cycles, passes, .. } = &back {
                if *cycles != r.served.cycles || *passes != r.served.passes {
                    self.counts.mismatches.push(format!(
                        "{}: replay got {cycles} cycles via {passes:?}, the daemon served {} via {:?}",
                        r.program.name, r.served.cycles, r.served.passes
                    ));
                }
            }

            // Diagnostics outside the request tree (they repeat work the
            // rollout span already covers, so they must not be summed in).
            if class == Class::Miss {
                let walked = self.open_rollout(&module, id);
                if walked != r.served.passes {
                    self.counts.mismatches.push(format!(
                        "{}: open rollout chose {walked:?}, the daemon served {:?}",
                        r.program.name, r.served.passes
                    ));
                }
                self.program_layers(&module, id);
            }
        }

        // Store accounting, then a timed reopen of what the replay wrote.
        drop(store);
        let (reopened, _) = self.rec.time("BestStore::open", "", 0, || {
            BestStore::open(&store_path).expect("reopen the replay store")
        });
        let st = reopened.stats();
        self.counts.bytes_per_record =
            (st.tail_bytes + st.snapshot_bytes) as f64 / st.entries.max(1) as f64;
    }

    fn apply(&mut self, m: &mut Module, pass: usize, id: usize, name: &'static str) -> bool {
        let fuel = self.fuel.clone();
        let (res, _) = self
            .rec
            .time(name, pass_label(pass), id, || apply_checked(m, pass, &fuel));
        self.counts.apply_calls += 1;
        match res {
            Ok(changed) => {
                self.counts.apply_changed += usize::from(changed);
                changed
            }
            Err(_) => {
                self.counts.apply_faults += 1;
                false
            }
        }
    }

    /// The serving rollout re-walked step by step with the policy's SoA
    /// mirror, so each step's feature resync, forward and pass apply get
    /// their own spans. Bit-identical kernels make it choose exactly what
    /// the engine chose; returns the effective ordering.
    pub fn open_rollout(&mut self, module: &Module, id: usize) -> Vec<usize> {
        let layout = serve_layout();
        let mut m = module.clone();
        let root = self.rec.enter("open_rollout", "", id);
        let (mut inc, _) = self.rec.time("IncrementalFeatures::new", "", id, || {
            IncrementalFeatures::new(&m)
        });
        let mut feats = inst_count_filtered(&inc.total());
        let mut histogram = vec![0.0f64; layout.num_actions()];
        let mut applied = Vec::new();
        let mut apply_ns = 0u64;
        for _ in 0..SERVE_EPISODE_LEN {
            let obs = layout.compose(&feats, &histogram);
            let (action, _) = self.rec.time("SoaMlp::forward_one", "", id, || {
                argmax_first(self.soa.forward_one(&obs, &mut self.ws))
            });
            let pass = FILTERED_PASSES[action];
            let fuel = self.fuel.clone();
            let (res, ns) = self
                .rec
                .time("apply_checked_changeset", pass_label(pass), id, || {
                    apply_checked_changeset(&mut m, pass, &fuel)
                });
            apply_ns += ns;
            self.counts.apply_calls += 1;
            match res {
                Ok((true, cs)) => {
                    self.counts.apply_changed += 1;
                    applied.push(pass);
                    if cs.needs_full_rebuild() {
                        self.rec
                            .time("IncrementalFeatures::rebuild", "", id, || inc.rebuild(&m));
                    } else {
                        self.rec.time("IncrementalFeatures::update", "", id, || {
                            inc.update(&m, &cs.dirty_funcs)
                        });
                    }
                    feats = inst_count_filtered(&inc.total());
                }
                Ok((false, _)) => {}
                // The engine's own count already covers a serve replay.
                Err(_) => {}
            }
            histogram[action] += 1.0;
        }
        self.rec.exit(root);
        self.counts.seq_apply_ns.push(apply_ns as f64);
        applied
    }

    /// Program-level layer calls that the request path only reaches
    /// through other layers: a full feature extraction, FSM scheduling of
    /// every function, a batch-of-8 forward, and each of the 18 action
    /// passes applied once to the pristine input.
    pub fn program_layers(&mut self, module: &Module, id: usize) {
        let hls = serve_hls();
        let root = self.rec.enter("program_layers", "", id);
        let (feats, _) = self.rec.time("extract", "", id, || extract(module));
        self.rec.time("schedule_function", "all", id, || {
            for f in module.func_ids() {
                std::hint::black_box(schedule_function(module.func(f), &hls));
            }
        });
        let layout = serve_layout();
        let obs = layout.compose(
            &inst_count_filtered(&feats),
            &vec![0.0; layout.num_actions()],
        );
        self.rec.time("SoaMlp::forward_batch", "b8", id, || {
            self.ws.begin(&self.soa);
            for _ in 0..8 {
                self.ws.push_input(&obs);
            }
            self.soa.forward_batch(&mut self.ws);
            std::hint::black_box(self.ws.logits(7)[0]);
        });
        for &pass in &FILTERED_PASSES {
            let mut m = module.clone();
            let fuel = self.fuel.clone();
            self.rec.time("pass_sweep", pass_label(pass), id, || {
                std::hint::black_box(apply_checked_changeset(&mut m, pass, &fuel).is_ok())
            });
        }
        self.rec.exit(root);
    }

    /// A sampled `PhaseOrderEnv` episode per program in the serving
    /// configuration: `reset`, then greedy steps under the policy.
    pub fn env_episodes(&mut self, programs: &[Module]) {
        let mut env = serve_env(programs.to_vec());
        for id in 0..programs.len() {
            let root = self.rec.enter("env_episode", "", id);
            let (mut obs, _) = self
                .rec
                .time("PhaseOrderEnv::reset", "", id, || env.reset());
            for _ in 0..SERVE_EPISODE_LEN {
                let action = argmax_first(self.soa.forward_one(&obs, &mut self.ws));
                let (step, _) = self
                    .rec
                    .time("PhaseOrderEnv::step", "", id, || env.step(action));
                obs = step.observation;
                if step.done {
                    break;
                }
            }
            self.rec.exit(root);
        }
    }

    /// Count `n` replayed units that did not come through
    /// [`Replay::serve_requests`] (the training programs of `train-ppo`),
    /// so per-request counts have their denominator.
    pub fn note_requests(&mut self, n: usize) {
        self.counts.requests += n;
    }

    /// Checks the replay failed: it did not reproduce the daemon's work.
    pub fn mismatches(&self) -> &[String] {
        &self.counts.mismatches
    }

    fn durations_us(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        self.rec
            .spans()
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name, None))
    }

    /// Median layer time per request class: the sum of the self times of
    /// every layer span under a `request` root, in microseconds.
    pub fn layer_time_us_by_class(&self) -> BTreeMap<&'static str, f64> {
        let spans: &[Span] = self.rec.spans();
        let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let roots: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == "request")
            .collect();
        for (root, (_, ns)) in roots
            .iter()
            .zip(spans::layer_time_per_request(spans, "request"))
        {
            by_class
                .entry(root.detail)
                .or_default()
                .push(ns as f64 / 1e3);
        }
        by_class.into_iter().map(|(c, v)| (c, median(&v))).collect()
    }

    /// Fill in every per-layer metric the replay can speak for. A layer
    /// the sampled requests never reached reads 0: "not exercised by this
    /// workload", the prediction for a workload that bypasses it.
    pub fn layers(&self) -> Layers {
        let c = &self.counts;
        let n = c.requests.max(1) as f64;
        let mut out = Layers::new();
        let mut put = |k: &str, v: f64| {
            out.insert(k.to_string(), v);
        };
        put(
            "serve.protocol.encode_request_us",
            self.median_us("write_request"),
        );
        put(
            "serve.protocol.decode_request_us",
            self.median_us("read_request"),
        );
        put(
            "serve.protocol.encode_reply_us",
            self.median_us("write_reply"),
        );
        put(
            "serve.protocol.decode_reply_us",
            self.median_us("read_reply"),
        );
        put("serve.protocol.request_bytes", median(&c.request_bytes));
        put("serve.protocol.reply_bytes", median(&c.reply_bytes));

        put("ir.parse_us", self.median_us("parse_module"));
        put("ir.verify_us", self.median_us("verify_module"));
        put("ir.fingerprint_us", self.median_us("fingerprint_module"));
        put("ir.print_us", self.median_us("print_module"));
        put("ir.insts_in", median(&c.insts_in));
        put("ir.insts_out", median(&c.insts_out));

        let record = sorted(&self.durations_us("BestStore::record", None));
        put("serve.store.lookup_us", self.median_us("BestStore::lookup"));
        put("serve.store.record_us", median(&record));
        put(
            "serve.store.record_p95_us",
            percentile_or_max(&record, 0.95).0,
        );
        put(
            "serve.store.open_ms",
            self.median_us("BestStore::open") / 1e3,
        );
        put("serve.store.bytes_per_record", c.bytes_per_record);

        put("hls.profile_us", self.median_us("profile_module"));
        put("hls.schedule_us", self.median_us("schedule_function"));
        put(
            "hls.profile_calls",
            self.durations_us("profile_module", None).len() as f64 / n,
        );

        put("features.extract_us", self.median_us("extract"));
        put(
            "features.incremental_update_us",
            self.median_us("IncrementalFeatures::update"),
        );
        put("nn.forward_b1_us", self.median_us("SoaMlp::forward_one"));
        put("nn.forward_b8_us", self.median_us("SoaMlp::forward_batch"));

        let mut applies = self.durations_us("apply_checked_changeset", None);
        applies.extend(self.durations_us("apply_checked", None));
        put("passes.apply_us", median(&applies));
        put("passes.apply_calls", c.apply_calls as f64 / n);
        put(
            "passes.changed_ratio",
            c.apply_changed as f64 / c.apply_calls.max(1) as f64,
        );
        put("passes.fault_count", c.apply_faults as f64);
        put("passes.seq_apply_us", median(&c.seq_apply_ns) / 1e3);
        for &pass in &FILTERED_PASSES {
            let label = pass_label(pass);
            put(
                &format!("passes.apply_us.{label}"),
                median(&self.durations_us("pass_sweep", Some(label))),
            );
        }

        put(
            "serve.engine.rollout_us",
            self.median_us("choose_sequence_report"),
        );
        put("serve.engine.infer_calls", mean(&c.infer_calls));
        put("serve.engine.infer_wait_us", mean(&c.infer_wait_us));
        put("serve.engine.infer_batch_max", c.infer_batch_max as f64);

        put("core.env.reset_us", self.median_us("PhaseOrderEnv::reset"));
        // The mean: steps are bimodal (a pass that changes nothing is a
        // sub-microsecond cache hit, one that does takes 100-500 us), so
        // their median jumps between the two modes from policy to policy.
        put(
            "core.env.step_us",
            mean(&self.durations_us("PhaseOrderEnv::step", None)),
        );
        out
    }
}
