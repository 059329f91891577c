//! Load generation against a real in-process daemon over loopback TCP.
//!
//! Only public APIs: `Server::start` and `Client`. Closed-loop lanes block
//! on each reply before sending the next request; open-loop lanes send on
//! a fixed schedule (see [`crate::openloop`]).

use crate::host;
use crate::inputs::Program;
use crate::openloop::{self, due_ns, OpenSample, WallClock};
use autophase_nn::Mlp;
use autophase_serve::client::{Client, ClientConfig, CompileReply};
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::stats::StatsSnapshot;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Deadline on every request: long enough that nothing is refused by
/// design, so a refusal is a failure, not a tuning artefact.
pub const DEADLINE: Duration = Duration::from_secs(60);

/// One request of a round's fixed list.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into the workload's program list.
    pub program: usize,
    /// Ask for the optimized IR in the reply.
    pub want_ir: bool,
}

/// What the client observed for one request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the workload's program list.
    pub program: usize,
    /// Client-observed latency (open loop: from the due time).
    pub latency_ns: u64,
    /// Open loop: how late the generator sent it; 0 in a closed loop.
    pub late_ns: u64,
    /// The reply, or the client error as text.
    pub reply: Result<CompileReply, String>,
}

/// The CPU clock, read when a segment of the request list begins.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Index of the segment's first request.
    pub index: usize,
    /// [`host::process_user_cpu_ms`] at that moment.
    pub user_cpu_ms: f64,
}

/// One round of identical work.
#[derive(Debug, Clone)]
pub struct Round {
    /// One sample per request, in no particular order.
    pub samples: Vec<Sample>,
    /// First send to last reply.
    pub wall_ns: u64,
    /// A closed loop's segment boundaries: one mark per segment, taken
    /// as its first request comes off the list, and one at the round's
    /// end. Ascending by index.
    pub marks: Vec<Mark>,
    /// Open loop: most requests ever due-but-unsent; 0 in a closed loop.
    pub backlog_max: usize,
}

/// The daemon configuration every serve workload runs: one worker per
/// client connection, no registry, no learner, no chaos.
pub fn server_config(store_dir: &Path, workers: usize, telemetry: bool) -> ServerConfig {
    ServerConfig {
        workers,
        default_deadline: DEADLINE,
        store_path: store_dir.join("store.log"),
        telemetry,
        registry_dir: None,
        learner: None,
        chaos: false,
        ..ServerConfig::default()
    }
}

/// Start a daemon on the store in `store_dir`.
pub fn start_daemon(policy: &Mlp, store_dir: &Path, workers: usize, telemetry: bool) -> Server {
    Server::start(policy.clone(), server_config(store_dir, workers, telemetry))
        .expect("daemon starts")
}

/// Connect one keep-alive client with a read timeout past the deadline.
pub fn connect(addr: SocketAddr) -> Client {
    Client::connect_with(
        addr,
        &ClientConfig {
            read_timeout: Some(DEADLINE + Duration::from_secs(5)),
            ..ClientConfig::default()
        },
    )
    .expect("connect to the daemon")
}

/// Fetch the daemon's own telemetry over the wire (`STATS`).
pub fn fetch_stats(addr: SocketAddr) -> StatsSnapshot {
    connect(addr).stats().expect("daemon answers STATS")
}

fn compile(client: &mut Client, program: &Program, want_ir: bool) -> Result<CompileReply, String> {
    client
        .compile(&program.ir, Some(DEADLINE.as_millis() as u64), want_ir)
        .map_err(|e| e.to_string())
}

/// Closed loop: `connections` connections, each taking the next unsent
/// request of the list once its previous reply has arrived. The list is
/// cut into segments of `segment` requests; whichever lane takes a
/// segment's first request reads the CPU clock first.
pub fn closed_round(
    addr: SocketAddr,
    programs: &[Program],
    requests: &[Request],
    connections: usize,
    segment: usize,
) -> Round {
    let segment = segment.max(1);
    let cursor = AtomicUsize::new(0);
    let barrier = Barrier::new(connections + 1);
    let mut samples = Vec::with_capacity(requests.len());
    let mut marks = Vec::new();
    let mut wall_ns = 0;
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = connect(addr);
                    let mut out = Vec::with_capacity(requests.len() / connections + 1);
                    let mut marks = Vec::new();
                    barrier.wait();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        if i.is_multiple_of(segment) {
                            marks.push(Mark {
                                index: i,
                                user_cpu_ms: host::process_user_cpu_ms(),
                            });
                        }
                        let t = Instant::now();
                        let reply = compile(&mut client, &programs[req.program], req.want_ir);
                        out.push(Sample {
                            program: req.program,
                            latency_ns: t.elapsed().as_nanos() as u64,
                            late_ns: 0,
                            reply,
                        });
                    }
                    (out, marks)
                })
            })
            .collect();
        barrier.wait();
        let t = Instant::now();
        for lane in lanes {
            let (lane_samples, lane_marks) = lane.join().expect("client lane panicked");
            samples.extend(lane_samples);
            marks.extend(lane_marks);
        }
        wall_ns = t.elapsed().as_nanos() as u64;
    });
    marks.sort_by_key(|m| m.index);
    marks.push(Mark {
        index: requests.len(),
        user_cpu_ms: host::process_user_cpu_ms(),
    });
    Round {
        samples,
        wall_ns,
        marks,
        backlog_max: 0,
    }
}

/// Open loop at `rate_per_s` over `connections` connections: request `i`
/// is due at `t0 + i / rate` on connection `i % connections`, and its
/// latency is counted from that due time.
pub fn open_round(
    addr: SocketAddr,
    programs: &[Program],
    requests: &[Request],
    connections: usize,
    rate_per_s: f64,
) -> Round {
    let barrier = Barrier::new(connections + 1);
    let mut open: Vec<(OpenSample, Result<CompileReply, String>)> = Vec::new();
    let clock_cell = std::sync::OnceLock::<WallClock>::new();
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..connections)
            .map(|lane| {
                let (barrier, clock_cell) = (&barrier, &clock_cell);
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let schedule: Vec<(usize, u64)> = (lane..requests.len())
                        .step_by(connections)
                        .map(|i| (i, due_ns(i, rate_per_s)))
                        .collect();
                    let mut replies = Vec::with_capacity(schedule.len());
                    barrier.wait();
                    barrier.wait();
                    let clock = *clock_cell.get().expect("clock set between the barriers");
                    let timing = openloop::run_lane(&clock, &schedule, |i| {
                        let req = requests[i];
                        replies.push(compile(&mut client, &programs[req.program], req.want_ir));
                    });
                    timing.into_iter().zip(replies).collect::<Vec<_>>()
                })
            })
            .collect();
        // All lanes are connected; start the shared clock, release them.
        barrier.wait();
        clock_cell
            .set(WallClock::start())
            .expect("clock is set once");
        barrier.wait();
        for lane in lanes {
            open.extend(lane.join().expect("client lane panicked"));
        }
    });
    let timing: Vec<OpenSample> = open.iter().map(|(t, _)| *t).collect();
    Round {
        wall_ns: timing.iter().map(|t| t.done_ns).max().unwrap_or(0),
        marks: Vec::new(),
        backlog_max: openloop::backlog_max(&timing),
        samples: open
            .into_iter()
            .map(|(t, reply)| Sample {
                program: requests[t.index].program,
                latency_ns: t.latency_ns(),
                late_ns: t.late_ns(),
                reply,
            })
            .collect(),
    }
}

/// Copy a seeded store (log plus snapshot sidecar) into a fresh
/// directory, so every round starts from the same store contents.
pub fn copy_store(template: &Path, fresh: &Path) {
    for entry in std::fs::read_dir(template).expect("read the seeded store directory") {
        let entry = entry.expect("read a directory entry");
        std::fs::copy(entry.path(), fresh.join(entry.file_name())).expect("copy a store file");
    }
}
