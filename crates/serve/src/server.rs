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
//!    must carry IR replays the stored passes first; if one no longer
//!    applies cleanly the entry is retired and the request recomputes
//!    cold, so a reply's IR always matches its reported numbers. A text
//!    this process has already accepted byte for byte skips the front end
//!    too: the `front` memo remembers its fingerprint, and it is parsed
//!    again only if its module is needed.
//! 2. **policy** — greedy rollout on this handler thread
//!    ([`crate::engine::InferenceEngine::choose_sequence`]), every pass
//!    applied transactionally with quarantine bookkeeping.
//! 3. **baseline** — if the policy path faults, fall back to the fixed
//!    fault-isolated -O3 ordering (`autophase_passes::o3::o3_checked`)
//!    and still answer inside the deadline.
//!
//! # Request tracing
//!
//! Every compile request carries a [`telemetry::TraceBuilder`] with a
//! monotonic id. Stage marks (`queue_wait → parse → store → [replay |
//! baseline_profile → rollout → profile → record] → reply_write`) close
//! consecutive segments of the request's timeline, so per-stage
//! durations sum *exactly* to the end-to-end time. Completed traces are
//! recorded into per-stage `serve.stage_ns{...}` histograms (plus
//! `serve.stage_ns{total}`) and pushed into the flight recorder's ring,
//! where the `TRACE` verb reads them and fault/refusal/slow triggers
//! dump them (with ring context) to JSONL artifacts. `STATS` answers
//! with the registry snapshot as metrics JSONL. Both introspection verbs
//! bypass the admission gate — they must answer precisely when the
//! daemon is drowning. Requests are counted per outcome in
//! `serve.req{...}`; the waiting count lives in the `serve.queue_depth`
//! gauge.

use crate::engine::{serve_layout, EngineConfig, InferenceEngine};
use crate::front::{front_memo, FrontMemo};
use crate::learner::{Learner, LearnerConfig};
use crate::protocol::{self, ErrKind, Reply, Request, Source};
use crate::store::{BestEntry, BestStore, CompactionPolicy};
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::Quarantine;
use autophase_hls::profile::profile_module;
use autophase_hls::HlsConfig;
use autophase_ir::parser::parse_module;
use autophase_ir::printer::print_module;
use autophase_ir::verify::verify_module;
use autophase_ir::Module;

use autophase_nn::mlp::Mlp;
use autophase_passes::checked::{apply_checked, FuelBudget};
use autophase_passes::o3::o3_checked;
use autophase_rl::checkpoint::ArmoredLoad;
use autophase_rl::online::Experience;
use autophase_rl::registry::{ModelRegistry, VersionInfo};
use autophase_telemetry::{
    self as telemetry, lock_recover, BoundedMap, FlightConfig, FlightRecorder, MapCounters,
    TraceBuilder,
};
use std::collections::{BTreeSet, HashMap};
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
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
    /// When the store folds its tail log into a snapshot.
    pub compaction: CompactionPolicy,
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
            compaction: CompactionPolicy::default(),
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

/// Outcome of asking the admission gate for a slot.
enum Admission {
    Granted,
    Overloaded,
    DeadlineExpired,
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

    fn acquire(&self, deadline: Instant) -> Admission {
        let mut s = lock_recover(&self.state);
        if s.permits > 0 {
            s.permits -= 1;
            return Admission::Granted;
        }
        if s.waiting >= self.queue_cap {
            return Admission::Overloaded;
        }
        s.waiting += 1;
        telemetry::add_gauge("serve.queue_depth", "", 1.0);
        loop {
            let now = Instant::now();
            if s.permits > 0 {
                s.permits -= 1;
                s.waiting -= 1;
                telemetry::add_gauge("serve.queue_depth", "", -1.0);
                return Admission::Granted;
            }
            if now >= deadline {
                s.waiting -= 1;
                telemetry::add_gauge("serve.queue_depth", "", -1.0);
                return Admission::DeadlineExpired;
            }
            let wait = self.cv.wait_timeout(s, deadline - now);
            s = wait.unwrap_or_else(PoisonError::into_inner).0;
        }
    }

    fn release(&self) {
        let mut s = lock_recover(&self.state);
        s.permits += 1;
        self.cv.notify_one();
    }
}

/// Entries `Shared::o3_cycles` keeps: 64 KiB of fingerprints, and an
/// evicted program costs one more `-O3` run if it ever compiles cold again.
const O3_CYCLES_BUDGET: usize = 4_096;

/// Per-policy-version outcome counters behind the `MODEL` verb: the
/// win rate (improvement over -O3) and store-insert rate are the A/B
/// signals a promotion decision reads.
#[derive(Debug, Clone, Copy, Default)]
struct ModelStats {
    requests: u64,
    wins: u64,
    store_inserts: u64,
    improvement_sum: f64,
}

/// State shared by every handler thread. All of its locks recover from
/// poisoning (`lock_recover` for the mutexes): a panic in one handler
/// must degrade that one request, not wedge every later one, and the
/// data stays consistent across unwinds (the store appends before it
/// acks; the maps are updated in place).
struct Shared {
    cfg: ServerConfig,
    engine: Arc<InferenceEngine>,
    /// Request text → fingerprint, probed before the parser runs. A
    /// read-write lock: probes hash the whole text and 95 % of warm
    /// traffic is probes, so they must not serialize.
    front: RwLock<FrontMemo>,
    store: Mutex<BestStore>,
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
    /// Versioned checkpoint store; `None` when online learning is off.
    registry: Option<Arc<Mutex<ModelRegistry>>>,
    /// Background learner thread; `None` unless configured.
    learner: Option<Learner>,
    /// Per-version outcome counters (`MODEL` verb).
    models: Mutex<HashMap<u64, ModelStats>>,
    /// `-O3` cycles by fingerprint, so the per-version win rate costs
    /// one extra apply+profile per *unique* program, not per request.
    o3_cycles: Mutex<BoundedMap<u64, u64>>,
    /// Armed `CHAOS swap=` injections: each pending count corrupts the
    /// next `PROMOTE` candidate on disk before its armored load.
    chaos_swaps: AtomicU32,
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
    /// Bad bind address, unopenable store, or a policy whose shape does
    /// not match the serving observation layout.
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
        let store = BestStore::open_with(&cfg.store_path, cfg.compaction)
            .map_err(|e| StartError(format!("store {}: {e}", cfg.store_path.display())))?;
        if store.dropped_on_open() {
            telemetry::incr("serve.store", "torn_tail_dropped", 1);
        }
        let hls = HlsConfig::default().with_profile_fuel(cfg.profile_fuel);
        if cfg.telemetry {
            telemetry::enable();
        }
        let engine = Arc::new(engine);
        let registry = match &cfg.registry_dir {
            Some(dir) => {
                let reg = ModelRegistry::open(dir)
                    .map_err(|e| StartError(format!("registry {}: {e}", dir.display())))?;
                Some(Arc::new(Mutex::new(reg)))
            }
            None => None,
        };
        let learner = match (&cfg.learner, &registry) {
            (Some(lc), Some(reg)) => Some(Learner::start(
                lc.clone(),
                Arc::clone(&engine),
                Arc::clone(reg),
            )),
            (Some(_), None) => {
                return Err(StartError(
                    "learner requires a model registry (set registry_dir)".into(),
                ))
            }
            (None, _) => None,
        };
        let shared = Arc::new(Shared {
            gate: Gate::new(cfg.workers, cfg.queue_cap),
            flight: FlightRecorder::new(cfg.flight.clone()),
            cfg,
            engine,
            front: RwLock::new(front_memo()),
            store: Mutex::new(store),
            registry,
            learner,
            models: Mutex::new(HashMap::new()),
            o3_cycles: Mutex::new(BoundedMap::new(
                O3_CYCLES_BUDGET,
                MapCounters::family("serve.o3_cycles"),
            )),
            chaos_swaps: AtomicU32::new(0),
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
        if let Some(learner) = &self.shared.learner {
            learner.stop();
        }
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
            let _ = protocol::write_reply(
                &mut w,
                &Reply::Err {
                    kind: ErrKind::Internal,
                    retry_ms: None,
                    msg: "shutting down".into(),
                },
            );
            return;
        }
        if shared.active_conns.load(Ordering::SeqCst) >= shared.cfg.max_conns {
            // Thread-per-connection must not be unbounded: past the cap,
            // answer `overloaded` once and hang up instead of spawning.
            telemetry::incr("serve.req", "conn_refused", 1);
            let mut w = BufWriter::new(stream);
            let _ = protocol::write_reply(
                &mut w,
                &Reply::Err {
                    kind: ErrKind::Overloaded,
                    retry_ms: Some(shared.cfg.retry_hint_ms),
                    msg: format!("connection limit ({}) reached", shared.cfg.max_conns),
                },
            );
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
    let reader = stream.try_clone();
    if let Ok(reader) = reader {
        let mut reader = BufReader::new(reader);
        let mut writer = BufWriter::new(stream);
        loop {
            let req = match protocol::read_request(&mut reader) {
                Ok(Some(r)) => r,
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Framing is unrecoverable after a malformed header:
                    // answer once, then hang up.
                    let _ = protocol::write_reply(
                        &mut writer,
                        &Reply::Err {
                            kind: ErrKind::BadRequest,
                            retry_ms: None,
                            msg: e.to_string(),
                        },
                    );
                    break;
                }
                Err(_) => break,
            };
            let mut trace: Option<TraceBuilder> = None;
            let (reply, hang_up) = match req {
                Request::Ping => (Reply::Ack, false),
                Request::Shutdown => (Reply::Ack, true),
                Request::Chaos {
                    faults,
                    crashes,
                    swaps,
                } => {
                    if shared.cfg.chaos {
                        shared.engine.inject_faults(faults);
                        shared.engine.inject_crashes(crashes);
                        shared.chaos_swaps.fetch_add(swaps, Ordering::SeqCst);
                        (Reply::Ack, false)
                    } else {
                        (
                            Reply::Err {
                                kind: ErrKind::BadRequest,
                                retry_ms: None,
                                msg: "chaos disabled".into(),
                            },
                            false,
                        )
                    }
                }
                // Introspection bypasses the admission gate: exactly when
                // the daemon is drowning is when these must still answer.
                Request::Stats => (
                    Reply::Stats {
                        body: capped_jsonl(telemetry::render_metrics_jsonl_from(
                            &telemetry::snapshot(),
                        )),
                    },
                    false,
                ),
                Request::Trace { n } => (
                    Reply::Traces {
                        body: capped_jsonl(shared.flight.render_recent(n)),
                    },
                    false,
                ),
                Request::Model => (model_reply(shared), false),
                Request::Promote { version, ab } => (promote(shared, version, ab), false),
                Request::Compile {
                    ir,
                    deadline_ms,
                    want_ir,
                } => {
                    let mut tr = shared.flight.begin();
                    let reply = compile(shared, &mut tr, ir, deadline_ms, want_ir);
                    trace = Some(tr);
                    (reply, false)
                }
            };
            let write_ok = protocol::write_reply(&mut writer, &reply).is_ok();
            if let Some(mut tr) = trace.take() {
                tr.mark("reply_write");
                tr.set_outcome(match &reply {
                    Reply::Compiled { source, .. } => format!("ok:{}", source.as_str()),
                    Reply::Err { kind, .. } => format!("refused:{}", kind.as_str()),
                    _ => "unknown".to_string(),
                });
                complete_trace(shared, tr);
            }
            if hang_up {
                shared.begin_shutdown();
                break;
            }
            if !write_ok || shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
        }
    }
    lock_recover(&shared.conns).remove(&conn_id);
}

struct PermitGuard<'a>(&'a Gate);

impl Drop for PermitGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Keep an introspection body inside the reply frame's length cap,
/// truncating at a line boundary so the body stays parseable JSONL.
fn capped_jsonl(mut body: String) -> String {
    if body.len() > protocol::MAX_IR_LEN {
        body.truncate(protocol::MAX_IR_LEN);
        match body.rfind('\n') {
            Some(i) => body.truncate(i + 1),
            None => body.clear(),
        }
    }
    body
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

/// One JSONL line of the `MODEL` reply body.
fn model_line(
    version: u64,
    info: Option<&VersionInfo>,
    serving: Option<u64>,
    challenger: Option<u64>,
    stat: Option<&ModelStats>,
) -> String {
    let st = stat.copied().unwrap_or_default();
    let mean_improvement = if st.requests > 0 {
        st.improvement_sum / st.requests as f64
    } else {
        0.0
    };
    format!(
        "{{\"type\":\"model\",\"version\":{version},\"samples\":{},\"updates\":{},\
         \"serving\":{},\"challenger\":{},\"requests\":{},\"wins\":{},\
         \"store_inserts\":{},\"mean_improvement\":{mean_improvement:.6}}}\n",
        info.map_or(0, |i| i.samples),
        info.map_or(0, |i| i.updates),
        u8::from(serving == Some(version)),
        u8::from(challenger == Some(version)),
        st.requests,
        st.wins,
        st.store_inserts,
    )
}

/// Answer `MODEL`: one line per registry version (plus any live-serving
/// version the registry does not know, e.g. the boot policy's v0), then
/// a summary line with what the engine is serving right now.
fn model_reply(shared: &Shared) -> Reply {
    let (serving, challenger) = match shared.engine.active_versions() {
        Some((a, b)) => (Some(a), b),
        None => (None, None),
    };
    let stats = lock_recover(&shared.models).clone();
    let mut body = String::new();
    let mut listed = BTreeSet::new();
    if let Some(registry) = &shared.registry {
        let reg = lock_recover(registry);
        for v in reg.versions() {
            listed.insert(v.version);
            body.push_str(&model_line(
                v.version,
                Some(v),
                serving,
                challenger,
                stats.get(&v.version),
            ));
        }
    }
    for v in [serving, challenger].into_iter().flatten() {
        if listed.insert(v) {
            body.push_str(&model_line(v, None, serving, challenger, stats.get(&v)));
        }
    }
    body.push_str(&format!(
        "{{\"type\":\"model_summary\",\"serving\":{},\"challenger\":{},\"swaps\":{},\"registry\":{}}}\n",
        serving.map_or(-1, |v| v as i64),
        challenger.map_or(-1, |v| v as i64),
        shared.engine.swap_count(),
        u8::from(shared.registry.is_some()),
    ));
    telemetry::incr("serve.req", "models", 1);
    Reply::Models {
        body: capped_jsonl(body),
    }
}

/// Chaos injection for `CHAOS swap=`: truncate the candidate on disk so
/// the next armored load must fail to decode and quarantine it. Real
/// bytes are destroyed — this exercises the promotion armor against
/// genuine corruption, not a simulated flag.
fn corrupt_checkpoint(path: &Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        bytes.truncate(bytes.len() / 2);
        let _ = std::fs::write(path, &bytes);
    }
}

/// Handle `PROMOTE v=<n> [ab=1]` — the promotion armor. The candidate
/// is read back through the registry's armored load (corrupt bytes are
/// quarantined on disk), then shape/finiteness-validated against the
/// serving layout *before* the engine ever sees it. A bad candidate
/// refuses the verb and the old policy keeps serving; nothing on the
/// request path notices. `ab=1` installs the version as the B-side
/// challenger instead of replacing the active policy.
fn promote(shared: &Shared, version: u64, ab: bool) -> Reply {
    if !shared.cfg.admin {
        return refuse(
            ErrKind::BadRequest,
            None,
            "promotion disabled (daemon not started with admin)".into(),
        );
    }
    let Some(registry) = &shared.registry else {
        return refuse(
            ErrKind::BadRequest,
            None,
            "no model registry configured".into(),
        );
    };
    let mut reg = lock_recover(registry);
    // Armed chaos corrupts the candidate on disk *before* the armored
    // load, so the armor is proven against real on-disk damage.
    let chaos_armed = shared
        .chaos_swaps
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok();
    if chaos_armed {
        if let Some(path) = reg.checkpoint_path(version) {
            corrupt_checkpoint(&path);
            telemetry::incr("serve.swap", "chaos_corrupted", 1);
        }
    }
    let ckpt = match reg.load_armored(version) {
        ArmoredLoad::Loaded(c) => c,
        ArmoredLoad::Quarantined { error, .. } => {
            telemetry::incr("serve.swap", "quarantined", 1);
            return refuse(
                ErrKind::Internal,
                None,
                format!("candidate v{version} quarantined: {error}"),
            );
        }
        ArmoredLoad::Unreadable(e) => {
            return refuse(
                ErrKind::BadRequest,
                None,
                format!("no loadable version v{version}: {e}"),
            );
        }
    };
    if let Err(e) = serve_layout().validate_checkpoint(&ckpt) {
        // Decodable but wrong-shaped or non-finite: quarantine it so a
        // later PROMOTE cannot trip over it either.
        let _ = reg.quarantine(version);
        telemetry::incr("serve.swap", "rejected_invalid", 1);
        return refuse(
            ErrKind::Internal,
            None,
            format!("candidate v{version} invalid: {e}"),
        );
    }
    let swapped = if ab {
        shared.engine.swap_ab(ckpt.policy.clone(), version)
    } else {
        shared.engine.swap_policy(ckpt.policy.clone(), version)
    };
    match swapped {
        Ok(()) => {
            if !ab {
                let _ = reg.set_active(version);
            }
            telemetry::incr("serve.swap", if ab { "promoted_ab" } else { "promoted" }, 1);
            Reply::Ack
        }
        Err(e) => refuse(ErrKind::Internal, None, format!("swap failed: {e}")),
    }
}

/// Per-version outcome accounting for a policy-served compile. Requests
/// and store-inserts are always counted; the improvement-over-`-O3` win
/// rate needs one extra `-O3` apply+profile per unique program, so it
/// is computed (and cached by fingerprint) only when the online
/// subsystem — the model registry — is enabled.
fn note_model_outcome(
    shared: &Shared,
    version: u64,
    fp: u64,
    module: &Module,
    cycles: u64,
    inserted: bool,
) {
    let o3c = shared.registry.as_ref().and_then(|_| {
        // The probe is its own statement: its guard must be gone before
        // the `-O3` run and the insert below.
        let cached = lock_recover(&shared.o3_cycles).lookup(&fp).copied();
        cached.or_else(|| {
            let mut m = module.clone();
            let _ = o3_checked(&mut m, &shared.cfg.fuel);
            let cycles = profile_module(&m, &shared.hls).ok()?.cycles;
            lock_recover(&shared.o3_cycles).insert(fp, cycles);
            Some(cycles)
        })
    });
    let mut won = false;
    {
        let mut models = lock_recover(&shared.models);
        let stat = models.entry(version).or_default();
        stat.requests += 1;
        if inserted {
            stat.store_inserts += 1;
        }
        if let Some(o3c) = o3c {
            stat.improvement_sum += (o3c as f64 - cycles as f64) / o3c.max(1) as f64;
            if cycles <= o3c {
                stat.wins += 1;
                won = true;
            }
        }
    }
    telemetry::incr("serve.model", &format!("v{version}_req"), 1);
    if inserted {
        telemetry::incr("serve.model", &format!("v{version}_insert"), 1);
    }
    if won {
        telemetry::incr("serve.model", &format!("v{version}_win"), 1);
    }
}

fn refuse(kind: ErrKind, retry_ms: Option<u64>, msg: String) -> Reply {
    let label = match kind {
        ErrKind::Overloaded => "err_overloaded",
        ErrKind::Deadline => "err_deadline",
        ErrKind::Parse => "err_parse",
        ErrKind::BadRequest => "err_bad_request",
        ErrKind::Internal => "err_internal",
    };
    telemetry::incr("serve.req", label, 1);
    Reply::Err {
        kind,
        retry_ms,
        msg,
    }
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

fn compile(
    shared: &Shared,
    trace: &mut TraceBuilder,
    mut ir: String,
    deadline_ms: Option<u64>,
    want_ir: bool,
) -> Reply {
    telemetry::incr("serve.req", "recv", 1);
    let deadline = trace.start()
        + deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(shared.cfg.default_deadline);

    let admission = shared.gate.acquire(deadline);
    trace.mark("queue_wait");
    match admission {
        Admission::Granted => {}
        Admission::Overloaded => {
            return refuse(
                ErrKind::Overloaded,
                Some(shared.cfg.retry_hint_ms),
                format!("queue full (cap {})", shared.cfg.queue_cap),
            )
        }
        Admission::DeadlineExpired => {
            return refuse(
                ErrKind::Deadline,
                Some(shared.cfg.retry_hint_ms),
                "deadline expired while queued".into(),
            )
        }
    }
    let _permit = PermitGuard(&shared.gate);

    // A request that arrives (or is granted a permit) already past its
    // deadline gets the typed refusal before any pipeline work.
    if Instant::now() >= deadline {
        return refuse(
            ErrKind::Deadline,
            Some(shared.cfg.retry_hint_ms),
            "deadline expired before parse".into(),
        );
    }

    // Front memo: bytes this process has already parsed, verified and
    // fingerprinted need their module again only to carry IR or to
    // recompute cold. First sight runs the whole front end.
    let known_fp = shared
        .front
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(ir.as_str())
        .copied();
    trace.note("front", if known_fp.is_some() { "hit" } else { "miss" });
    let parsed = match known_fp {
        Some(_) if !want_ir => Ok(None),
        _ => parse_text(&ir, known_fp.is_none()).map(Some),
    };
    trace.mark("parse");
    let module = match parsed {
        Ok(m) => m,
        Err(msg) => return refuse(ErrKind::Parse, None, msg),
    };

    // Store rung: a known program answers from the index.
    let fp = known_fp.unwrap_or_else(|| {
        let fp = fingerprint_module(module.as_ref().expect("a first sight is always parsed"));
        // The memo takes the request's own buffer: a first sight has its
        // module, so nothing below reads its text again.
        ir.shrink_to_fit();
        let bytes = {
            let mut front = shared.front.write().unwrap_or_else(PoisonError::into_inner);
            front.insert(std::mem::take(&mut ir), fp);
            front.weight()
        };
        telemetry::set_gauge("serve.front_bytes", "", bytes as f64);
        fp
    });
    let hit = lock_recover(&shared.store).lookup(fp).cloned();
    trace.mark("store");
    if let Some(entry) = hit {
        let passes: Vec<usize> = entry.seq.iter().map(|&p| p as usize).collect();
        // The stored cycles/passes were computed from the IR the stored
        // ordering produces, so a reply carrying IR must replay cleanly:
        // if a stored pass now faults or runs out of fuel (quarantine or
        // config drift since it was recorded), the entry can no longer
        // back its numbers. Retire it and recompute cold instead of
        // serving IR that disagrees with the reported cycles.
        let replayed = match &module {
            Some(module) if want_ir => {
                let mut m = module.clone();
                let out = passes
                    .iter()
                    .try_for_each(|&p| apply_checked(&mut m, p, &shared.cfg.fuel).map(|_| ()))
                    .ok()
                    .map(|()| Some(print_module(&m)));
                trace.mark("replay");
                out
            }
            _ => Some(None),
        };
        match replayed {
            Some(ir_out) => {
                telemetry::incr("serve.req", "ok_store", 1);
                telemetry::incr("serve.store", "hit", 1);
                return Reply::Compiled {
                    source: Source::Store,
                    cycles: entry.cycles,
                    baseline_cycles: entry.baseline_cycles,
                    passes,
                    ir: ir_out,
                };
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
    if Instant::now() >= deadline {
        return refuse(
            ErrKind::Deadline,
            Some(shared.cfg.retry_hint_ms),
            "deadline expired before rollout".into(),
        );
    }

    // A memoized text that asked for numbers only and found no store
    // entry (never recorded, or retired since) goes cold like any miss,
    // so it is parsed after all — on the `baseline_profile` segment.
    let module = match module {
        Some(m) => m,
        None => match parse_text(&ir, false) {
            Ok(m) => m,
            Err(msg) => return refuse(ErrKind::Parse, None, msg),
        },
    };

    // Cold: profile the input once (the baseline number and the store
    // record need it), then walk policy → baseline.
    let baseline_cycles = match profile_module(&module, &shared.hls) {
        Ok(r) => r.cycles,
        Err(e) => {
            trace.mark("baseline_profile");
            return refuse(ErrKind::Parse, None, format!("unprofileable input: {e}"));
        }
    };
    trace.mark("baseline_profile");

    let mut optimized = module.clone();
    let mut policy_version = None;
    let mut steps = Vec::new();
    let (source, passes) = match shared.engine.choose_sequence_report(
        &mut optimized,
        fp,
        &shared.quarantine,
        &shared.cfg.fuel,
    ) {
        Ok(report) => {
            trace.note("infer_calls", report.infer_calls);
            trace.note("infer_wait_ns", report.infer_wait_ns);
            trace.note("policy_version", report.policy_version);
            if report.pass_faults > 0 {
                // Quarantined and skipped inside the rollout: the answer
                // is still policy-sourced, but the trace names the stage
                // so the dump points at the offender.
                trace.note("pass_faults", report.pass_faults);
                trace.fault("rollout");
            }
            policy_version = Some(report.policy_version);
            steps = report.steps;
            (Source::Policy, report.applied)
        }
        Err(_fault) => {
            // Degradation rung 3: fixed fault-isolated -O3. The trace
            // blames inference — that is where the fault surfaced (real
            // forward-pass panic or injected chaos).
            trace.fault("inference");
            telemetry::incr("serve.req", "degraded_to_baseline", 1);
            optimized = module.clone();
            let seq = o3_checked(&mut optimized, &shared.cfg.fuel);
            (Source::Baseline, seq)
        }
    };
    trace.mark("rollout");

    let cycles = match profile_module(&optimized, &shared.hls) {
        Ok(r) => r.cycles,
        Err(e) => {
            trace.mark("profile");
            return refuse(
                ErrKind::Internal,
                None,
                format!("optimized unprofileable: {e}"),
            );
        }
    };
    trace.mark("profile");

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
    let inserted = record_best(shared, fp, entry);
    trace.mark("record");

    // Online-learning hooks, both strictly after the answer is computed:
    // attribute the outcome to the policy version that produced it, and
    // stream the rollout's episode to the learner (`offer` never blocks;
    // a full queue sheds its oldest entry instead).
    if let Some(version) = policy_version {
        note_model_outcome(shared, version, fp, &module, cycles, inserted);
        if let Some(learner) = &shared.learner {
            if !steps.is_empty() {
                learner.offer(Experience {
                    steps: std::mem::take(&mut steps),
                    cycles,
                    baseline_cycles,
                });
            }
        }
    }

    if Instant::now() > deadline {
        return refuse(
            ErrKind::Deadline,
            Some(shared.cfg.retry_hint_ms),
            "deadline expired mid-pipeline".into(),
        );
    }

    telemetry::incr(
        "serve.req",
        match source {
            Source::Policy => "ok_policy",
            Source::Baseline => "ok_baseline",
            Source::Store => unreachable!("store answered above"),
        },
        1,
    );
    Reply::Compiled {
        source,
        cycles,
        baseline_cycles,
        passes,
        ir: want_ir.then(|| print_module(&optimized)),
    }
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

    /// `o3_cycles` memoizes a pure function in a bounded map: a daemon
    /// that sees more distinct programs than its budget forgets the oldest
    /// and recomputes them on demand, and the per-version accounting the
    /// `MODEL` verb reads cannot tell.
    #[test]
    fn o3_cycles_stays_inside_its_budget_and_the_win_rate_cannot_tell() {
        let tag = format!("autophase_serve_o3_budget_{}", std::process::id());
        let store = std::env::temp_dir().join(format!("{tag}.log"));
        let registry = std::env::temp_dir().join(format!("{tag}_registry"));
        let _ = std::fs::remove_file(&store);
        let server = Server::start_baseline_only(ServerConfig {
            store_path: store.clone(),
            registry_dir: Some(registry.clone()),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let shared = &server.shared;
        let module =
            parse_module("; module m\n\n; f0\ndefine i32 @main() {\nb0:\n  ret i32 0\n}\n")
                .expect("parses");
        let mut optimized = module.clone();
        let _ = o3_checked(&mut optimized, &shared.cfg.fuel);
        let o3 = profile_module(&optimized, &shared.hls).unwrap().cycles;

        // Every other request loses to `-O3` by one cycle.
        let n = O3_CYCLES_BUDGET as u64 + 100;
        for fp in 0..n {
            note_model_outcome(shared, 7, fp, &module, o3 + fp % 2, false);
        }
        // Fingerprint 0 went with the first rotation; asked again, it is
        // recomputed to the same cycles and still wins.
        note_model_outcome(shared, 7, 0, &module, o3, false);

        let memo = lock_recover(&shared.o3_cycles).stats();
        assert!(memo.len <= O3_CYCLES_BUDGET, "{memo:?}");
        assert!(memo.evictions > 0, "{memo:?}");
        assert_eq!((memo.hits, memo.misses), (0, n + 1));
        let stat = lock_recover(&shared.models)[&7];
        assert_eq!((stat.requests, stat.wins), (n + 1, n / 2 + 1));

        server.shutdown();
        let _ = std::fs::remove_file(&store);
        let _ = std::fs::remove_dir_all(&registry);
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
