//! The daemon: TCP listener, bounded admission, and the request pipeline.
//!
//! Each connection gets a handler thread that reads framed requests in a
//! loop (keep-alive); connections beyond `max_conns` are refused with a
//! typed `overloaded` reply so the thread count stays bounded. Admission
//! per request is a counting gate: `workers` requests
//! execute concurrently, at most `queue_cap` more may wait, and anything
//! beyond that is shed immediately with a typed `overloaded` reply —
//! the queue never grows without bound, and the wait is bounded by the
//! request's deadline (a request whose deadline expires while queued is
//! answered `deadline`, not silently dropped).
//!
//! The compile pipeline walks the degradation ladder:
//!
//! 1. **store** — fingerprint the parsed module and serve the persistent
//!    best-known ordering: no inference, no profiling, O(1). A hit that
//!    must carry IR serves the text kept beside the store for that very
//!    entry (`artifacts`), printed once when the answer was computed. With
//!    no such text it replays the stored passes, and its print becomes
//!    the entry's artifact; if a pass no longer applies cleanly the entry
//!    is retired and the request recomputes cold, so a reply's IR always
//!    matches its reported numbers. A text this process has already
//!    accepted byte for byte skips the front end too: the `front` memo
//!    remembers its fingerprint, and it is parsed again only if a replay
//!    or the cold path needs its module. A restarted daemon's memo starts
//!    with the request text of every answer the sidecar keeps.
//! 2. **policy** — greedy rollout on this handler thread
//!    ([`crate::engine::InferenceEngine::choose_sequence_report`]), every pass
//!    applied transactionally with quarantine bookkeeping.
//! 3. **baseline** — if the policy path faults, fall back to the fixed
//!    fault-isolated -O3 ordering (`autophase_passes::o3::o3_checked`)
//!    and still answer inside the deadline.
//!
//! Every cold answer is scored by the one rule
//! (`autophase_core::compile::Input::score`) against the input's own
//! profile, taken once per request.
//! An answer that does not return the input's result is never sent back,
//! stored, kept as IR or learned from: a policy answer drops to -O3, and
//! a wrong -O3 to the input itself with no passes (`source=baseline`
//! either way, `serve.semcheck{mismatch}` counted, the trace faulted at
//! `semcheck`).
//!
//! # Request tracing
//!
//! Every compile request carries a [`telemetry::TraceBuilder`] with a
//! monotonic id. Stage marks (`queue_wait → parse → store → [replay |
//! baseline_profile → rollout → profile → [semcheck] → record] →
//! reply_write`) close
//! consecutive segments of the request's timeline, so per-stage
//! durations sum *exactly* to the end-to-end time. Completed traces are
//! recorded into per-stage `serve.stage_ns{...}` histograms (plus
//! `serve.stage_ns{total}`) and pushed into the flight recorder's ring,
//! where the `TRACE` verb reads them and fault/refusal/slow triggers
//! dump them (with ring context) to JSONL artifacts. `STATS` answers
//! with the registry snapshot as metrics JSONL. Both introspection verbs
//! bypass the admission gate — they must answer precisely when the
//! daemon is drowning. Every reply a handler writes is counted in
//! `serve.req{ok_<source>|err_<kind>}` by the one reply → outcome mapping
//! that also names its trace's outcome; the waiting count lives in the
//! `serve.queue_depth` gauge.
//!
//! The online-learning half — registry, learner, per-version ledger and
//! the one promotion gate — is [`crate::learner`]'s.

use crate::artifacts::{sidecar_path, IrArtifacts};
use crate::engine::{EngineConfig, InferenceEngine};
use crate::front::FrontMemo;
use crate::learner::{LearnerConfig, Online};
use crate::protocol::{self, refuse, ErrKind, Incoming, Reply, Request, RequestBuffers, Source};
use crate::store::{BestEntry, BestStore};
use autophase_core::compile::{Input, UNPROFILEABLE_CYCLES};
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::Quarantine;
use autophase_hls::HlsConfig;
use autophase_ir::parser::parse_module;
use autophase_ir::printer::print_module;
use autophase_ir::verify::verify_module;
use autophase_ir::Module;

use autophase_nn::mlp::Mlp;
use autophase_passes::checked::{apply_checked, FuelBudget};
use autophase_passes::o3::{o3_checked, O3_SEQUENCE};
use autophase_rl::online::Experience;
use autophase_telemetry::{
    self as telemetry, lock_recover, FlightConfig, FlightRecorder, TraceBuilder,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Concurrent in-flight compile requests.
    pub workers: usize,
    /// Requests allowed to wait for a worker before shedding.
    pub queue_cap: usize,
    /// Concurrent connections (each costs a handler thread). Connections
    /// beyond the cap are refused with a typed `overloaded` reply rather
    /// than spawning without bound.
    pub max_conns: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Fuel for transactional pass applications.
    pub fuel: FuelBudget,
    /// Interpreter budget per profile (untrusted designs must not spin).
    pub profile_fuel: u64,
    /// Path of the persistent best-ordering log.
    pub store_path: PathBuf,
    /// How long recording stays disabled after the disk fills. While
    /// down, compiles still answer (store reads, policy, baseline) —
    /// only persistence is skipped; after the backoff the next record
    /// retries.
    pub store_retry: Duration,
    /// `retry_ms=` hint attached to `overloaded`/`deadline` refusals —
    /// how long a well-behaved client should back off before retrying.
    pub retry_hint_ms: u64,
    /// Accept the `CHAOS` verb (tests/benches only).
    pub chaos: bool,
    /// Turn the telemetry registry on at startup (required for `STATS`
    /// to answer anything useful; traces are recorded either way).
    pub telemetry: bool,
    /// Flight-recorder knobs: ring capacity, slow threshold, dump
    /// directory and triggers. The default keeps the ring but writes no
    /// dump artifacts (`dump_dir: None`).
    pub flight: FlightConfig,
    /// Accept the admin-gated `PROMOTE` verb. Off by default: a daemon
    /// exposed to untrusted clients must not let them pick its policy.
    pub admin: bool,
    /// Directory of the versioned model registry. `None` disables the
    /// online-learning subsystem entirely (no registry, no `PROMOTE`,
    /// no per-version win accounting).
    pub registry_dir: Option<PathBuf>,
    /// Run the in-daemon background learner (requires `registry_dir`).
    pub learner: Option<LearnerConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            max_conns: 256,
            default_deadline: Duration::from_millis(1000),
            fuel: FuelBudget::default(),
            profile_fuel: 4_000_000,
            store_path: PathBuf::from("serve_store.log"),
            store_retry: Duration::from_secs(2),
            retry_hint_ms: 50,
            chaos: false,
            telemetry: true,
            flight: FlightConfig {
                dump_outcomes: vec![
                    "refused:deadline".to_string(),
                    "refused:overloaded".to_string(),
                ],
                ..FlightConfig::default()
            },
            admin: false,
            registry_dir: None,
            learner: None,
        }
    }
}

/// Counting gate: `permits` run, at most `queue_cap` wait, the rest shed.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    queue_cap: usize,
}

struct GateState {
    permits: usize,
    waiting: usize,
}

impl Gate {
    fn new(permits: usize, queue_cap: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState {
                permits: permits.max(1),
                waiting: 0,
            }),
            cv: Condvar::new(),
            queue_cap,
        }
    }

    /// Take a slot, waiting until `deadline` at most: `Overloaded` when
    /// the queue is full, `Deadline` when the wait runs out.
    fn acquire(&self, deadline: Instant) -> Result<PermitGuard<'_>, ErrKind> {
        let mut s = lock_recover(&self.state);
        if s.permits > 0 {
            s.permits -= 1;
            return Ok(PermitGuard(self));
        }
        if s.waiting >= self.queue_cap {
            return Err(ErrKind::Overloaded);
        }
        s.waiting += 1;
        telemetry::add_gauge("serve.queue_depth", "", 1.0);
        let admitted = loop {
            let now = Instant::now();
            if s.permits > 0 {
                s.permits -= 1;
                break Ok(PermitGuard(self));
            }
            if now >= deadline {
                break Err(ErrKind::Deadline);
            }
            let wait = self.cv.wait_timeout(s, deadline - now);
            s = wait.unwrap_or_else(PoisonError::into_inner).0;
        };
        s.waiting -= 1;
        telemetry::add_gauge("serve.queue_depth", "", -1.0);
        admitted
    }

    fn release(&self) {
        let mut s = lock_recover(&self.state);
        s.permits += 1;
        self.cv.notify_one();
    }
}

/// A granted slot of the gate; dropping it gives the slot back.
struct PermitGuard<'a>(&'a Gate);

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// State shared by every handler thread. All of its locks recover from
/// poisoning (`lock_recover` for the mutexes): a panic in one handler
/// must degrade that one request, not wedge every later one, and the
/// data stays consistent across unwinds (the store appends before it
/// acks; the maps are updated in place).
struct Shared {
    cfg: ServerConfig,
    engine: Arc<InferenceEngine>,
    /// Request text → fingerprint, probed before the parser runs. Probes
    /// take its read lock: 95 % of warm traffic is probes, so they must
    /// not serialize.
    front: FrontMemo,
    store: Mutex<BestStore>,
    /// Each answer's optimized IR, beside the store. Its own lock: reads
    /// and unsynced appends never wait on a record's fsync.
    artifacts: IrArtifacts,
    /// While `Some(t)` and `now < t`, recording is down (the disk
    /// filled): compiles keep answering but skip persistence until the
    /// backoff elapses, then the next record retries the disk.
    record_down_until: Mutex<Option<Instant>>,
    quarantine: Quarantine,
    gate: Gate,
    hls: HlsConfig,
    flight: FlightRecorder,
    shutting_down: AtomicBool,
    /// Live connection streams, so shutdown can unblock parked reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    active_conns: AtomicUsize,
    local_addr: SocketAddr,
    /// Registry, learner, per-version ledger and the promotion gate.
    online: Online,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        // Unblock handler threads parked in read_request.
        let conns = lock_recover(&self.conns);
        for stream in conns.values() {
            let _ = stream.shutdown(NetShutdown::Both);
        }
    }
}

/// Failure bringing the daemon up.
#[derive(Debug)]
pub struct StartError(pub String);

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serve start error: {}", self.0)
    }
}

impl std::error::Error for StartError {}

/// A running daemon. Dropping the handle does NOT stop it; call
/// [`Server::shutdown`] (or send the protocol `SHUTDOWN`, then
/// [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, open the store, install the policy, and start accepting
    /// connections.
    ///
    /// # Errors
    ///
    /// Bad bind address, unopenable store, or a policy that cannot serve:
    /// its shape does not match the serving observation layout, or a
    /// weight is not finite.
    pub fn start(policy: Mlp, cfg: ServerConfig) -> Result<Server, StartError> {
        let engine = InferenceEngine::start(policy, EngineConfig::default())
            .map_err(|e| StartError(e.to_string()))?;
        Server::start_with_engine(engine, cfg)
    }

    /// Bring the daemon up with *no* policy: every request degrades to
    /// the store or the fixed baseline ordering. This is the survival
    /// mode behind checkpoint armor — a corrupt checkpoint quarantines,
    /// and the service keeps answering instead of dying.
    ///
    /// # Errors
    ///
    /// Bad bind address or an unopenable store.
    pub fn start_baseline_only(cfg: ServerConfig) -> Result<Server, StartError> {
        telemetry::incr("serve.engine", "baseline_only", 1);
        Server::start_with_engine(InferenceEngine::start_baseline_only(), cfg)
    }

    fn start_with_engine(engine: InferenceEngine, cfg: ServerConfig) -> Result<Server, StartError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| StartError(format!("bind {}: {e}", cfg.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| StartError(format!("local_addr: {e}")))?;
        if cfg.telemetry {
            telemetry::enable();
        }
        let store = BestStore::open(&cfg.store_path)
            .map_err(|e| StartError(format!("store {}: {e}", cfg.store_path.display())))?;
        if store.dropped_on_open() {
            telemetry::incr("serve.store", "torn_tail_dropped", 1);
        }
        // The sidecar, opened against the live store, seeds the front memo
        // with the request text of every answer it keeps.
        let opened = telemetry::maybe_now();
        let ir_path = sidecar_path(&cfg.store_path);
        let (artifacts, requests) = IrArtifacts::open(&ir_path, |fp| store.lookup(fp))
            .map_err(|e| StartError(format!("store {}: {e}", ir_path.display())))?;
        let front = FrontMemo::new();
        telemetry::incr("serve.front", "preloaded", requests.len() as u64);
        let bytes = front.preload(requests);
        telemetry::set_gauge("serve.front_bytes", "", bytes as f64);
        telemetry::observe_since("serve.store_ns", "ir_open", opened);
        let hls = HlsConfig::default().with_profile_fuel(cfg.profile_fuel);
        let engine = Arc::new(engine);
        let online = Online::start(&cfg, &engine, &hls)?;
        let shared = Arc::new(Shared {
            gate: Gate::new(cfg.workers, cfg.queue_cap),
            flight: FlightRecorder::new(cfg.flight.clone()),
            cfg,
            engine,
            front,
            store: Mutex::new(store),
            artifacts,
            online,
            record_down_until: Mutex::new(None),
            quarantine: Quarantine::default(),
            hls,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            local_addr,
        });
        let listener_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| StartError(format!("spawn: {e}")))?
        };
        Ok(Server {
            shared,
            listener_thread: Some(listener_thread),
        })
    }

    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Programs currently in the persistent store.
    pub fn store_len(&self) -> usize {
        lock_recover(&self.shared.store).len()
    }

    /// Whether this daemon is serving without a policy (checkpoint armor
    /// fell back to [`Server::start_baseline_only`]).
    pub fn is_baseline_only(&self) -> bool {
        self.shared.engine.is_baseline_only()
    }

    /// Block until the daemon shuts down (a client sent the protocol
    /// `SHUTDOWN`). In-process embedders that decide the lifetime
    /// themselves use [`Server::shutdown`] instead.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Stop accepting, unblock and drain connections, and join every
    /// daemon thread.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        // Handler threads are detached; they exit promptly once their
        // streams are shut down. Bounded drain so a wedged peer cannot
        // hang shutdown forever.
        let drain_deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active_conns.load(Ordering::SeqCst) > 0 && Instant::now() < drain_deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Stop the learner after the connections drain: late cold-path
        // experiences still land in the queue and get trained on.
        self.shared.online.stop();
        // Graceful shutdown folds the tail into a snapshot, so the next
        // open replays O(live entries) instead of the whole history.
        // Best-effort: a failed compaction leaves a valid tail behind.
        if lock_recover(&self.shared.store).compact_if_dirty().is_err() {
            telemetry::incr("serve.store", "compaction_error", 1);
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // Accept errors such as EMFILE tend to persist; a brief
                // back-off keeps this loop from busy-spinning while the
                // condition clears.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        // A reply larger than the writer's buffer leaves in two writes;
        // with Nagle on, the second waits out the peer's delayed ACK
        // (~40 ms on Linux). Best effort: a socket that refuses the
        // option still works.
        let _ = stream.set_nodelay(true);
        if shared.shutting_down.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client): refuse politely.
            let mut w = BufWriter::new(stream);
            let _ =
                protocol::write_reply(&mut w, &refuse(ErrKind::Internal, None, "shutting down"));
            return;
        }
        if shared.active_conns.load(Ordering::SeqCst) >= shared.cfg.max_conns {
            // Thread-per-connection must not be unbounded: past the cap,
            // answer `overloaded` once and hang up instead of spawning.
            telemetry::incr("serve.req", "conn_refused", 1);
            let msg = format!("connection limit ({}) reached", shared.cfg.max_conns);
            let refusal = refuse(ErrKind::Overloaded, Some(shared.cfg.retry_hint_ms), msg);
            let _ = protocol::write_reply(&mut BufWriter::new(stream), &refusal);
            continue;
        }
        shared.active_conns.fetch_add(1, Ordering::SeqCst);
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || {
                handle_conn(&conn_shared, stream);
                conn_shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // The closure (stream included) was dropped without running.
            shared.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) {
    let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        lock_recover(&shared.conns).insert(conn_id, clone);
    }
    if let Ok(reader) = stream.try_clone() {
        let mut reader = BufReader::new(reader);
        let mut writer = BufWriter::new(stream);
        // Kept from request to request: the decode buffers, and a store
        // hit's copy of its entry.
        let mut buffers = RequestBuffers::default();
        let mut hit = BestEntry {
            cycles: 0,
            baseline_cycles: 0,
            seq: Vec::new(),
        };
        loop {
            let req = match buffers.read(&mut reader) {
                Ok(Some(r)) => Ok(r),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(e),
                Err(_) => break,
            };
            // Framing is unrecoverable after a malformed header: answer
            // once, then hang up.
            let hang_up = req.is_err();
            let shutdown = matches!(req, Ok(Incoming::Verb(Request::Shutdown)));
            let (answer, trace) = match req {
                Ok(req) => answer(shared, req, &mut hit),
                Err(e) => {
                    let refusal = refuse(ErrKind::BadRequest, None, e.to_string());
                    (Answer::Reply(refusal), None)
                }
            };
            // Every reply a handler sends is written here, so here is where
            // its outcome is counted and its trace sealed — both from the
            // one mapping.
            let outcome = answer.outcome();
            if let Some((label, _)) = outcome {
                telemetry::incr("serve.req", label, 1);
            }
            let write_ok = answer.write(&mut writer, &hit).is_ok();
            if let Some(mut tr) = trace {
                tr.mark("reply_write");
                tr.set_outcome(outcome.map_or("unknown", |(_, traced)| traced));
                complete_trace(shared, tr);
            }
            if shutdown {
                shared.begin_shutdown();
            }
            if hang_up || !write_ok || shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
        }
    }
    lock_recover(&shared.conns).remove(&conn_id);
}

/// What a handler writes back: a reply, or a store hit, written from the
/// connection's copy of its entry without building a [`Reply`].
enum Answer {
    Reply(Reply),
    /// The entry copied into the handler's `hit`, with its IR when the
    /// request asked for it.
    Stored {
        ir: Option<String>,
    },
}

impl Answer {
    fn outcome(&self) -> Option<(&'static str, &'static str)> {
        match self {
            Answer::Reply(reply) => outcome(reply),
            Answer::Stored { .. } => Some(source_outcome(Source::Store)),
        }
    }

    fn write<W: Write>(&self, w: &mut W, hit: &BestEntry) -> io::Result<()> {
        match self {
            Answer::Reply(reply) => protocol::write_reply(w, reply),
            Answer::Stored { ir } => {
                let passes = hit.seq.iter().map(|&p| usize::from(p));
                let (cycles, baseline) = (hit.cycles, hit.baseline_cycles);
                protocol::write_compiled(w, Source::Store, cycles, baseline, passes, ir.as_deref())
            }
        }
    }
}

/// Answer one request; only a compile carries a trace. Introspection
/// bypasses the admission gate: exactly when the daemon is drowning is
/// when it must still answer.
fn answer(
    shared: &Shared,
    req: Incoming<'_>,
    hit: &mut BestEntry,
) -> (Answer, Option<TraceBuilder>) {
    let req = match req {
        Incoming::Compile {
            ir,
            deadline_ms,
            want_ir,
        } => return compile_traced(shared, ir, deadline_ms, want_ir, hit),
        Incoming::Verb(req) => req,
    };
    let reply = match req {
        Request::Ping | Request::Shutdown => Reply::Ack,
        Request::Chaos {
            faults,
            crashes,
            swaps,
        } if shared.cfg.chaos => {
            shared.engine.inject_faults(faults);
            shared.engine.inject_crashes(crashes);
            shared.online.arm_chaos_swaps(swaps);
            Reply::Ack
        }
        Request::Chaos { .. } => refuse(ErrKind::BadRequest, None, "chaos disabled"),
        Request::Stats => Reply::Stats {
            body: telemetry::render_metrics_jsonl_from(&telemetry::snapshot()),
        },
        Request::Trace { n } => Reply::Traces {
            body: shared.flight.render_recent(n),
        },
        Request::Model => Reply::Models {
            body: shared.online.listing(),
        },
        Request::Promote { .. } if !shared.cfg.admin => {
            let msg = "promotion disabled (daemon not started with admin)";
            refuse(ErrKind::BadRequest, None, msg)
        }
        Request::Promote { version } => shared.online.promote(version),
        Request::Compile {
            ir,
            deadline_ms,
            want_ir,
        } => return compile_traced(shared, &ir, deadline_ms, want_ir, hit),
    };
    (Answer::Reply(reply), None)
}

/// Answer one `COMPILE` under a fresh trace.
fn compile_traced(
    shared: &Shared,
    ir: &str,
    deadline_ms: Option<u64>,
    want_ir: bool,
    hit: &mut BestEntry,
) -> (Answer, Option<TraceBuilder>) {
    let mut trace = shared.flight.begin();
    let answer = compile(shared, &mut trace, ir, deadline_ms, want_ir, hit);
    (answer.unwrap_or_else(Answer::Reply), Some(trace))
}

/// The one reply → outcome mapping: the `serve.req` label a reply is
/// counted under and the outcome its trace is sealed with. Acks and
/// introspection bodies count nowhere.
fn outcome(reply: &Reply) -> Option<(&'static str, &'static str)> {
    Some(match reply {
        Reply::Compiled { source, .. } => source_outcome(*source),
        Reply::Err { kind, .. } => match kind {
            ErrKind::Overloaded => ("err_overloaded", "refused:overloaded"),
            ErrKind::Deadline => ("err_deadline", "refused:deadline"),
            ErrKind::Parse => ("err_parse", "refused:parse"),
            ErrKind::BadRequest => ("err_bad_request", "refused:bad_request"),
            ErrKind::Internal => ("err_internal", "refused:internal"),
        },
        Reply::Ack | Reply::Stats { .. } | Reply::Traces { .. } | Reply::Models { .. } => {
            return None
        }
    })
}

/// [`outcome`] of a compile answer from `source`.
fn source_outcome(source: Source) -> (&'static str, &'static str) {
    match source {
        Source::Store => ("ok_store", "ok:store"),
        Source::Policy => ("ok_policy", "ok:policy"),
        Source::Baseline => ("ok_baseline", "ok:baseline"),
    }
}

/// Seal a compile trace: feed its stage segments into the
/// `serve.stage_ns{...}` histograms (they tile the timeline, so the
/// per-stage sums add up to `serve.stage_ns{total}` exactly) and hand it
/// to the flight recorder, which fires any dump trigger it matches.
fn complete_trace(shared: &Shared, trace: TraceBuilder) {
    let done = trace.finish();
    for &(stage, ns) in &done.stages {
        telemetry::observe("serve.stage_ns", stage, ns);
    }
    telemetry::observe("serve.stage_ns", "total", done.total_ns);
    shared.flight.complete(done);
}

/// Persist a best-known ordering, degrading gracefully on disk faults.
///
/// Any append error is non-fatal — the reply is already computed, only
/// persistence failed. A *full disk* additionally disables recording
/// for [`ServerConfig::store_retry`]: while down, compiles skip the
/// write entirely (`serve.store{record_skipped}`) instead of hammering
/// a disk known to be full; after the backoff the next record retries
/// (`serve.store{record_retry}`) and re-arms the backoff if the disk is
/// still full.
///
/// Returns whether the entry was actually inserted (new program or an
/// improvement over the stored best) — the store-insert rate is one of
/// the per-version signals behind the `MODEL` verb.
fn record_best(shared: &Shared, fp: u64, entry: BestEntry) -> bool {
    let now = Instant::now();
    {
        let mut down = lock_recover(&shared.record_down_until);
        match *down {
            Some(until) if now < until => {
                telemetry::incr("serve.store", "record_skipped", 1);
                return false;
            }
            Some(_) => {
                *down = None;
                telemetry::incr("serve.store", "record_retry", 1);
            }
            None => {}
        }
    }
    match lock_recover(&shared.store).record(fp, entry) {
        Ok(inserted) => inserted,
        Err(e) => {
            telemetry::incr("serve.store", "append_error", 1);
            if autophase_telemetry::faultfs::is_disk_full(&e) {
                telemetry::incr("serve.store", "enospc", 1);
                *lock_recover(&shared.record_down_until) = Some(now + shared.cfg.store_retry);
            }
            false
        }
    }
}

/// Keep `text` beside the store as the IR of `entry`, the answer for `fp`,
/// and `request`, the text it was computed for (which parsed, verified
/// and fingerprinted as `fp`). Unsynced and never part of an
/// acknowledgment: a failed append is counted
/// (`serve.store{ir_append_error}`) and costs a later hit one replay, or
/// a restarted daemon one first sight, never this request its record or
/// its reply.
fn keep_ir(shared: &Shared, fp: u64, entry: &BestEntry, request: &str, text: &str) {
    if shared.artifacts.put(fp, entry, request, text).is_err() {
        telemetry::incr("serve.store", "ir_append_error", 1);
    }
}

/// The optimized IR of a store hit. The text kept beside the store for
/// this very entry is served as it is (`ir=artifact`): it is the IR whose
/// cycles the entry reports, so nothing is parsed, replayed or checked
/// against today's fuel and quarantine, exactly as for a numbers-only hit.
/// With none kept (a store older than its sidecar, a lost sidecar, an
/// entry recorded by hand) the stored passes are replayed (`ir=replay`)
/// and the print is kept for the next hit. `None` when a replayed pass
/// faults or runs out of fuel: the entry can no longer back its numbers.
fn stored_ir(
    shared: &Shared,
    trace: &mut TraceBuilder,
    fp: u64,
    entry: &BestEntry,
    text: &str,
    module: Option<&Module>,
) -> Option<String> {
    let kept = shared.artifacts.get(fp, entry);
    if kept.is_some() {
        telemetry::incr("serve.store", "ir_artifact", 1);
        trace.note("ir", "artifact");
        return kept;
    }
    telemetry::incr("serve.store", "ir_replayed", 1);
    trace.note("ir", "replay");
    // A first sight's module stays intact for the cold path; a memoized
    // text was never parsed.
    let mut m = match module {
        Some(m) => m.clone(),
        None => parse_text(text, false).ok()?,
    };
    for &p in &entry.seq {
        apply_checked(&mut m, p as usize, &shared.cfg.fuel).ok()?;
    }
    let out = print_module(&m);
    keep_ir(shared, fp, entry, text, &out);
    Some(out)
}

/// Parse request text, and verify it unless these exact bytes are already
/// known to verify. The parser is total on untrusted text with a
/// module-wide arena budget, and the verifier total on parser output, so
/// hostile input costs a bounded amount of work and an error reply —
/// never a crash or a runaway allocation.
fn parse_text(ir: &str, verify: bool) -> Result<Module, String> {
    let module = parse_module(ir).map_err(|e| e.to_string())?;
    if verify {
        verify_module(&module).map_err(|e| format!("verify: {e}"))?;
    }
    Ok(module)
}

/// The one deadline rule (the admission gate's too): at or past its
/// deadline a request starts no more work and is refused `deadline`.
fn within(shared: &Shared, deadline: Instant, stage: &str) -> Result<(), Reply> {
    if Instant::now() < deadline {
        return Ok(());
    }
    let msg = format!("deadline expired {stage}");
    Err(refuse(
        ErrKind::Deadline,
        Some(shared.cfg.retry_hint_ms),
        msg,
    ))
}

/// Answer one `COMPILE` down the ladder; `Err` is the typed refusal. A
/// store hit's entry is copied into `hit`, the connection's own.
fn compile(
    shared: &Shared,
    trace: &mut TraceBuilder,
    ir: &str,
    deadline_ms: Option<u64>,
    want_ir: bool,
    hit: &mut BestEntry,
) -> Result<Answer, Reply> {
    telemetry::incr("serve.req", "recv", 1);
    let deadline = trace.start()
        + deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(shared.cfg.default_deadline);

    let permit = shared.gate.acquire(deadline);
    trace.mark("queue_wait");
    let _permit = permit.map_err(|kind| {
        let msg = match kind {
            ErrKind::Overloaded => format!("queue full (cap {})", shared.cfg.queue_cap),
            _ => "deadline expired while queued".to_string(),
        };
        refuse(kind, Some(shared.cfg.retry_hint_ms), msg)
    })?;

    // A request that arrives (or is granted a permit) already past its
    // deadline gets the typed refusal before any pipeline work.
    within(shared, deadline, "before parse")?;

    // Front memo: bytes this process (or the one that recorded them beside
    // the store) has already parsed, verified and fingerprinted need their
    // module again only to replay or to recompute cold. First sight runs
    // the whole front end. The text is hashed once, for the probe and the
    // insert.
    let digest = shared.front.digest(ir);
    let known_fp = shared.front.get(digest, ir);
    trace.note("front", if known_fp.is_some() { "hit" } else { "miss" });
    let parsed = match known_fp {
        Some(_) => Ok(None),
        None => parse_text(ir, true).map(Some),
    };
    trace.mark("parse");
    let module = parsed.map_err(|msg| refuse(ErrKind::Parse, None, msg))?;

    // Store rung: a known program answers from the index. A first sight's
    // functions are hashed once, for the key here and the cold path's
    // profile memo alike: each hash is a fact of its function's version.
    let fp = known_fp.unwrap_or_else(|| {
        let fp = fingerprint_module(module.as_ref().expect("a first sight is always parsed"));
        // An exact-size copy: the memo charges an entry its capacity.
        let bytes = shared.front.insert(digest, ir.to_owned(), fp);
        telemetry::set_gauge("serve.front_bytes", "", bytes as f64);
        fp
    });
    // The entry is copied into the connection's `hit` under the lock,
    // into storage the connection keeps: a hit clones nothing.
    let found = {
        let store = lock_recover(&shared.store);
        let entry = store.lookup(fp);
        if let Some(entry) = entry {
            hit.cycles = entry.cycles;
            hit.baseline_cycles = entry.baseline_cycles;
            hit.seq.clear();
            hit.seq.extend_from_slice(&entry.seq);
        }
        entry.is_some()
    };
    trace.mark("store");
    if found {
        let replayed = if want_ir {
            let out = stored_ir(shared, trace, fp, hit, ir, module.as_ref());
            trace.mark("replay");
            out.map(Some)
        } else {
            Some(None)
        };
        match replayed {
            Some(ir_out) => {
                telemetry::incr("serve.store", "hit", 1);
                return Ok(Answer::Stored { ir: ir_out });
            }
            None => {
                trace.fault("replay");
                lock_recover(&shared.store).remove(fp);
                telemetry::incr("serve.store", "stale_dropped", 1);
            }
        }
    } else {
        telemetry::incr("serve.store", "miss", 1);
    }

    // The cold pipeline is the expensive part; do not start it for a
    // request that can no longer make its deadline.
    within(shared, deadline, "before rollout")?;

    // A memoized text that found no store entry (never recorded, or
    // retired since) goes cold like any miss, so it is parsed after all —
    // on the `baseline_profile` segment.
    let module = match module {
        Some(parsed) => parsed,
        None => parse_text(ir, false).map_err(|msg| refuse(ErrKind::Parse, None, msg))?,
    };

    // Cold: profile the input once (the baseline number, the store
    // record, the semantic check and every `-O3` reference need it), then
    // walk policy → baseline.
    let mut input = Input::new(&module, &shared.hls);
    trace.mark("baseline_profile");
    let baseline_cycles = input
        .report()
        .map_err(|e| refuse(ErrKind::Parse, None, format!("unprofileable input: {e}")))?
        .cycles;

    let mut optimized = module.clone();
    let (mut source, mut passes, mut episode) = match shared.engine.choose_sequence_report(
        &mut optimized,
        fp,
        &shared.quarantine,
        &shared.cfg.fuel,
    ) {
        Ok(report) => {
            trace.note("infer_calls", report.infer_calls);
            trace.note("infer_wait_ns", report.infer_wait_ns);
            trace.note("pass_ns", report.pass_ns);
            trace.note("features_ns", report.features_ns);
            trace.note("policy_version", report.policy_version);
            if report.pass_faults > 0 {
                // Quarantined and skipped inside the rollout: the answer
                // is still policy-sourced, but the trace names the stage
                // so the dump points at the offender.
                trace.note("pass_faults", report.pass_faults);
                trace.fault("rollout");
            }
            let episode = Some((report.policy_version, report.steps));
            (Source::Policy, report.applied, episode)
        }
        Err(_fault) => {
            // Degradation rung 3: fixed fault-isolated -O3. The trace
            // blames inference — that is where the fault surfaced (real
            // forward-pass panic or injected chaos).
            trace.fault("inference");
            telemetry::incr("serve.req", "degraded_to_baseline", 1);
            optimized = module.clone();
            let seq = o3_checked(&mut optimized, &shared.cfg.fuel);
            (Source::Baseline, seq, None)
        }
    };
    trace.mark("rollout");

    let mut cycles = input.score(&optimized);
    trace.mark("profile");

    // The mismatch rung: an answer that does not return the input's
    // result (another one, or none within the profiler's fuel) is never
    // sent back, stored, kept as IR or learned from. A policy answer
    // drops to -O3, and a wrong -O3 to the input itself.
    if cycles == UNPROFILEABLE_CYCLES {
        telemetry::incr("serve.semcheck", "mismatch", 1);
        trace.fault("semcheck");
        let o3 = (source == Source::Policy)
            .then(|| input.compile(O3_SEQUENCE, &shared.cfg.fuel))
            .filter(|(_, _, o3)| *o3 != UNPROFILEABLE_CYCLES);
        (optimized, passes, cycles) =
            o3.unwrap_or_else(|| (module.clone(), Vec::new(), baseline_cycles));
        (source, episode) = (Source::Baseline, None);
        trace.mark("semcheck");
    }

    // Persist if this beats the best known answer (first answer always
    // does — there was no entry). Record *before* the deadline check:
    // the computed ordering is valid regardless of how long it took, and
    // storing it turns the next identical request into an O(1) hit
    // instead of a from-scratch recompute.
    let entry = BestEntry {
        cycles,
        baseline_cycles,
        seq: passes.iter().map(|&p| p as u16).collect(),
    };
    let inserted = record_best(shared, fp, entry.clone());
    // A recorded answer's IR is printed once, here: kept beside the store
    // for every later hit that wants it, and this reply's IR if it asked.
    let ir_out = inserted.then(|| {
        let text = print_module(&optimized);
        keep_ir(shared, fp, &entry, ir, &text);
        text
    });
    trace.mark("record");

    // Strictly after the answer is computed: credit the policy version
    // that produced it and hand its episode and program to the learner.
    if let Some((version, steps)) = episode {
        let exp = Experience {
            steps,
            cycles,
            baseline_cycles,
        };
        shared
            .online
            .record(version, fp, &module, exp, inserted, || {
                let (_, _, o3) = input.compile(O3_SEQUENCE, &shared.cfg.fuel);
                (o3 != UNPROFILEABLE_CYCLES).then_some(o3)
            });
    }

    within(shared, deadline, "mid-pipeline")?;
    Ok(Answer::Reply(Reply::Compiled {
        source,
        cycles,
        baseline_cycles,
        passes,
        ir: want_ir.then(|| ir_out.unwrap_or_else(|| print_module(&optimized))),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    /// Poison one of the daemon's mutexes (PR 8: every daemon lock
    /// recovers from poisoning), make one request, and wait for the
    /// handler to give its connection slot back: a handler that died on
    /// the poisoned lock would keep it, and `max_conns` such connections
    /// would wedge the daemon.
    fn survives_poisoning(
        tag: &str,
        poison: fn(&Shared),
        request: fn(&mut Client),
    ) -> (Server, std::path::PathBuf) {
        let store = std::env::temp_dir().join(format!(
            "autophase_serve_poisoned_{tag}_{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&store);
        let server = Server::start_baseline_only(ServerConfig {
            store_path: store.clone(),
            ..ServerConfig::default()
        })
        .expect("server starts");

        let poisoner = Arc::clone(&server.shared);
        let poisoned = std::thread::spawn(move || poison(&poisoner)).join();
        assert!(poisoned.is_err());

        let mut client = Client::connect(server.addr()).expect("connect");
        request(&mut client);
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.shared.active_conns.load(Ordering::SeqCst) > 0 {
            assert!(
                Instant::now() < deadline,
                "the handler died without releasing its connection slot"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        (server, store)
    }

    #[test]
    fn connection_teardown_survives_a_poisoned_connection_table() {
        let (server, store) = survives_poisoning(
            "conns",
            |shared| {
                let _guard = shared.conns.lock().unwrap();
                panic!("poison the connection table");
            },
            |client| client.ping().expect("ping on a poisoned table"),
        );
        assert!(server.shared.conns.is_poisoned());
        assert!(lock_recover(&server.shared.conns).is_empty());
        server.shutdown();
        let _ = std::fs::remove_file(&store);
    }

    /// The admission gate is the one lock every `COMPILE` takes twice.
    #[test]
    fn compile_survives_a_poisoned_admission_gate() {
        let (server, store) = survives_poisoning(
            "gate",
            |shared| {
                let _guard = shared.gate.state.lock().unwrap();
                panic!("poison the admission gate");
            },
            |client| {
                let ir = "; module m\n\n; f0\ndefine i32 @main() {\nb0:\n  ret i32 0\n}\n";
                client
                    .compile(ir, None, false)
                    .expect("compile through a poisoned gate");
            },
        );
        assert!(server.shared.gate.state.is_poisoned());
        server.shutdown();
        let _ = std::fs::remove_file(&store);
    }

    /// A policy with one NaN weight passes the shape check yet would
    /// serve NaN logits: boot refuses it like a wrong-shaped one, and
    /// `bin/serve.rs` then comes up baseline-only.
    #[test]
    fn start_refuses_a_non_finite_policy() {
        use crate::engine::{serve_num_actions, serve_obs_dim};
        let mut policy = Mlp::new(&[serve_obs_dim(), 8, serve_num_actions()], 7);
        let mut params = policy.parameters();
        params[0] = f64::NAN;
        policy.set_parameters(&params);
        let cfg = ServerConfig {
            store_path: std::env::temp_dir().join("autophase_serve_never_opened.log"),
            ..ServerConfig::default()
        };
        match Server::start(policy, cfg) {
            Err(StartError(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
            Ok(_) => panic!("a NaN policy must not serve"),
        }
    }

    /// Every reply variant and every refusal kind maps to the wire name
    /// its counter label and trace outcome are spelled from; acks and
    /// introspection bodies map to nothing.
    #[test]
    fn every_reply_has_one_outcome() {
        let compiled = |source| Reply::Compiled {
            source,
            cycles: 1,
            baseline_cycles: 1,
            passes: Vec::new(),
            ir: None,
        };
        let sources = [Source::Store, Source::Policy, Source::Baseline];
        let kinds = [
            ErrKind::Overloaded,
            ErrKind::Deadline,
            ErrKind::Parse,
            ErrKind::BadRequest,
            ErrKind::Internal,
        ];
        let counted = (sources
            .map(|s| (compiled(s), "ok_", "ok:", s.as_str()))
            .into_iter())
        .chain(kinds.map(|k| (refuse(k, None, ""), "err_", "refused:", k.as_str())));
        for (reply, label, traced, wire) in counted {
            let (got_label, got_traced) = outcome(&reply).expect("counted");
            assert_eq!(got_label, format!("{label}{wire}"));
            assert_eq!(got_traced, format!("{traced}{wire}"));
        }
        let body = String::new;
        for reply in [
            Reply::Ack,
            Reply::Stats { body: body() },
            Reply::Traces { body: body() },
            Reply::Models { body: body() },
        ] {
            assert_eq!(outcome(&reply), None, "{reply:?}");
        }
    }

    /// The memo holds a fingerprint, never an answer: a memoized text
    /// that asks for numbers only and finds its store entry gone is parsed
    /// after all, recomputes cold, and lands on the answer it got before.
    #[test]
    fn a_memoized_text_with_no_store_entry_recomputes_cold() {
        let store = std::env::temp_dir().join(format!(
            "autophase_serve_front_no_entry_{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&store);
        let server = Server::start_baseline_only(ServerConfig {
            store_path: store.clone(),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let ir = "; module m\n\n; f0\ndefine i32 @main() {\nb0:\n  ret i32 0\n}\n";
        let fp = fingerprint_module(&parse_module(ir).unwrap());
        let mut client = Client::connect(server.addr()).expect("connect");
        let front_of_last = || {
            let last = server.shared.flight.recent(1);
            last[0].note("front").map(str::to_string)
        };

        let first = client.compile(ir, Some(60_000), false).expect("cold");
        assert_eq!(first.source, Source::Baseline);
        client.ping().expect("the first trace is sealed");
        assert_eq!(front_of_last().as_deref(), Some("miss"));

        lock_recover(&server.shared.store).remove(fp);
        assert_eq!(server.store_len(), 0);
        let again = client.compile(ir, Some(60_000), false).expect("recompute");
        client.ping().expect("the second trace is sealed");
        assert_eq!(front_of_last().as_deref(), Some("hit"));
        assert_eq!(again, first);
        assert_eq!(server.store_len(), 1, "the recompute records again");

        server.shutdown();
        let _ = std::fs::remove_file(&store);
    }
}
