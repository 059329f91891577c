//! Blocking client for the compile service.
//!
//! One [`Client`] wraps one keep-alive connection; requests on it are
//! sequential (the protocol is one outstanding request per connection).
//! Load generators open one client per thread.
//!
//! Every socket operation is bounded: [`ClientConfig`] sets connect,
//! read, and write timeouts (all on by default — a wedged daemon costs
//! a timeout, never a hang). For callers that want the service to look
//! reliable across transient failures, [`RetryingClient`] wraps
//! connect-per-need and jittered-exponential retry under a total
//! [`RetryPolicy::budget`], honoring the server's `retry_ms=` hint on
//! `overloaded`/`deadline` refusals.

use crate::protocol::{self, ErrKind, Reply, Request, Source};
use crate::stats::{ModelsSnapshot, StatsSnapshot};
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A compile answer (the `OK source=...` reply, destructured).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReply {
    /// Which rung of the degradation ladder answered.
    pub source: Source,
    /// Predicted cycle count of the optimized module.
    pub cycles: u64,
    /// Cycle count of the unoptimized input.
    pub baseline_cycles: u64,
    /// The effective pass ordering.
    pub passes: Vec<usize>,
    /// Optimized IR when requested.
    pub ir: Option<String>,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Io(std::io::Error),
    /// The server refused with a typed error.
    Server {
        /// Refusal class.
        kind: ErrKind,
        /// Server-suggested wait before retrying, when it gave one.
        retry_ms: Option<u64>,
        /// Server-provided detail.
        msg: String,
    },
}

impl ClientError {
    fn server(kind: ErrKind, retry_ms: Option<u64>, msg: String) -> ClientError {
        ClientError::Server {
            kind,
            retry_ms,
            msg,
        }
    }

    /// Whether retrying this failure can help: transport errors (the
    /// daemon may be restarting) and load-shedding refusals
    /// (`overloaded`, `deadline`). Semantic refusals (`parse`,
    /// `bad_request`) never become retryable by waiting.
    fn is_retryable(&self) -> bool {
        match self {
            ClientError::Io(_) => true,
            ClientError::Server { kind, .. } => {
                matches!(kind, ErrKind::Overloaded | ErrKind::Deadline)
            }
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client io: {e}"),
            ClientError::Server { kind, msg, .. } => write!(f, "server refused ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Per-connection socket timeouts. Everything is bounded by default;
/// `None` disables that bound (for debuggers stepping the daemon).
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Cap on establishing the TCP connection (per resolved address).
    pub connect_timeout: Option<Duration>,
    /// Cap on any single reply read.
    pub read_timeout: Option<Duration>,
    /// Cap on any single request write.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            // Compiles can legitimately take a while under load; reads
            // are bounded generously, not tightly.
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// One keep-alive connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Each reply's header line, read into the same buffer.
    line: String,
}

/// The reply to a verb that only acknowledges.
fn ack(reply: Reply) -> Option<()> {
    matches!(reply, Reply::Ack).then_some(())
}

impl Client {
    /// Connect to a daemon with the default [`ClientConfig`] timeouts.
    ///
    /// # Errors
    ///
    /// Connection failures (including connect timeout).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// Connect to a daemon with explicit socket timeouts.
    ///
    /// # Errors
    ///
    /// Connection failures; every resolved address is tried before
    /// giving up with the last error.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        cfg: &ClientConfig,
    ) -> Result<Client, ClientError> {
        let stream = match cfg.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                let mut last: Option<std::io::Error> = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, limit) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(ClientError::Io(last.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to nothing",
                            )
                        })))
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(cfg.read_timeout)?;
        stream.set_write_timeout(cfg.write_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Cap how long any single reply read may block.
    ///
    /// # Errors
    ///
    /// Propagates `set_read_timeout` failures.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Read the reply to `verb` and take from it what `expected` accepts.
    /// A typed refusal becomes [`ClientError::Server`]; any other variant
    /// is a protocol violation.
    fn expect<T>(
        &mut self,
        verb: &str,
        expected: impl FnOnce(Reply) -> Option<T>,
    ) -> Result<T, ClientError> {
        match protocol::read_reply_with(&mut self.reader, &mut self.line)? {
            Reply::Err {
                kind,
                retry_ms,
                msg,
            } => Err(ClientError::server(kind, retry_ms, msg)),
            reply => expected(reply).ok_or_else(|| {
                ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected reply to {verb}"),
                ))
            }),
        }
    }

    /// Send `req` and [`expect`](Client::expect) its reply.
    fn roundtrip<T>(
        &mut self,
        verb: &str,
        req: &Request,
        expected: impl FnOnce(Reply) -> Option<T>,
    ) -> Result<T, ClientError> {
        protocol::write_request(&mut self.writer, req)?;
        self.expect(verb, expected)
    }

    /// Compile one module (textual IR).
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Server`] with the typed
    /// refusal (`overloaded`, `deadline`, `parse`, ...).
    pub fn compile(
        &mut self,
        ir: &str,
        deadline_ms: Option<u64>,
        want_ir: bool,
    ) -> Result<CompileReply, ClientError> {
        protocol::write_compile(&mut self.writer, ir, deadline_ms, want_ir)?;
        self.expect("compile", |reply| match reply {
            Reply::Compiled {
                source,
                cycles,
                baseline_cycles,
                passes,
                ir,
            } => Some(CompileReply {
                source,
                cycles,
                baseline_cycles,
                passes,
                ir,
            }),
            _ => None,
        })
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.roundtrip("ping", &Request::Ping, ack)
    }

    /// Fetch a parsed telemetry snapshot (`STATS`). Answers even when
    /// the daemon is saturated — the verb bypasses admission.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.roundtrip("stats", &Request::Stats, |reply| match reply {
            Reply::Stats { body } => Some(StatsSnapshot::parse(&body)),
            _ => None,
        })
    }

    /// Fetch the last `n` completed request traces as trace JSONL,
    /// newest first (`TRACE n=<k>`; the server clamps to its ring
    /// capacity).
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal.
    pub fn traces(&mut self, n: usize) -> Result<String, ClientError> {
        self.roundtrip("trace", &Request::Trace { n }, |reply| match reply {
            Reply::Traces { body } => Some(body),
            _ => None,
        })
    }

    /// Arm `n` injected policy faults (server must run with chaos on).
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal (chaos disabled).
    pub fn chaos(&mut self, faults: u32) -> Result<(), ClientError> {
        self.chaos_full(faults, 0, 0)
    }

    /// Arm `n` injected engine crashes: each one raises a real panic
    /// inside an upcoming policy forward. The daemon catches it, that
    /// request degrades to the baseline ordering, and the next one is
    /// policy-served. Server must run with chaos on.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal (chaos disabled).
    pub fn chaos_crash(&mut self, crashes: u32) -> Result<(), ClientError> {
        self.chaos_full(0, crashes, 0)
    }

    /// Arm `n` swap corruptions: each upcoming `PROMOTE` candidate is
    /// corrupted on disk before its armored load, which must quarantine
    /// it while the old policy keeps serving. Server must run with
    /// chaos on.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal (chaos disabled).
    pub fn chaos_swap(&mut self, swaps: u32) -> Result<(), ClientError> {
        self.chaos_full(0, 0, swaps)
    }

    fn chaos_full(&mut self, faults: u32, crashes: u32, swaps: u32) -> Result<(), ClientError> {
        let req = Request::Chaos {
            faults,
            crashes,
            swaps,
        };
        self.roundtrip("chaos", &req, ack)
    }

    /// Fetch the parsed model snapshot (`MODEL`): registry versions,
    /// per-version win/insert rates, and what the engine serves now.
    /// Bypasses admission like the other introspection verbs.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal.
    pub fn models(&mut self) -> Result<ModelsSnapshot, ClientError> {
        self.roundtrip("model", &Request::Model, |reply| match reply {
            Reply::Models { body } => Some(ModelsSnapshot::parse(&body)),
            _ => None,
        })
    }

    /// Promote registry version `v` to the serving policy
    /// (`PROMOTE v=<n>`; daemon must run with admin on). The operator's
    /// override: armored, not replay-gated.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal — `bad_request` when admin
    /// is off or the version does not exist, `internal` when the
    /// candidate was quarantined or failed validation (the old policy
    /// keeps serving).
    pub fn promote(&mut self, version: u64) -> Result<(), ClientError> {
        self.roundtrip("promote", &Request::Promote { version }, ack)
    }
}

/// Retry shape for [`RetryingClient`]: jittered exponential backoff
/// under a hard attempt cap and a total sleep budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 means no retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff — also clamps the server's
    /// `retry_ms=` hint, so a hostile hint cannot park the client.
    pub max_backoff: Duration,
    /// Total time the policy may spend sleeping across all retries of
    /// one call; a backoff that would exceed it fails fast instead.
    pub budget: Duration,
    /// Seed of the jitter stream — retries are deterministic per seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            budget: Duration::from_secs(10),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no sleeping).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            budget: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }
}

/// A self-healing client: connects lazily, reconnects after transport
/// errors, and retries retryable failures (`ClientError::is_retryable`)
/// with jittered exponential backoff. When the server's refusal carries
/// a `retry_ms=` hint, the hint (clamped to
/// [`RetryPolicy::max_backoff`]) replaces the exponential delay.
pub struct RetryingClient {
    addr: String,
    cfg: ClientConfig,
    policy: RetryPolicy,
    rng: u64,
    conn: Option<Client>,
}

impl RetryingClient {
    /// A retrying client for `addr` with default timeouts and policy.
    pub fn new(addr: impl Into<String>) -> RetryingClient {
        RetryingClient::with(addr, ClientConfig::default(), RetryPolicy::default())
    }

    /// A retrying client with explicit timeouts and retry policy.
    pub fn with(addr: impl Into<String>, cfg: ClientConfig, policy: RetryPolicy) -> RetryingClient {
        let rng = policy.seed | 1;
        RetryingClient {
            addr: addr.into(),
            cfg,
            policy,
            rng,
            conn: None,
        }
    }

    fn conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_with(&*self.addr, &self.cfg)?);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Compile with retries. Note a retried compile may execute twice
    /// server-side; compiles are idempotent (same IR, same answer
    /// modulo degradation rung), so this is safe.
    ///
    /// # Errors
    ///
    /// The final attempt's error once attempts or budget run out, or
    /// immediately for non-retryable failures.
    pub fn compile(
        &mut self,
        ir: &str,
        deadline_ms: Option<u64>,
        want_ir: bool,
    ) -> Result<CompileReply, ClientError> {
        self.retry(|c| c.compile(ir, deadline_ms, want_ir))
    }

    /// Ping with retries.
    ///
    /// # Errors
    ///
    /// Same contract as [`compile`](RetryingClient::compile).
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.retry(Client::ping)
    }

    fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            let result = match self.conn() {
                Ok(client) => op(client),
                Err(e) => Err(e),
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if matches!(err, ClientError::Io(_)) {
                // The connection is in an unknown state: drop it and
                // reconnect on the next attempt.
                self.conn = None;
            }
            attempt += 1;
            if !err.is_retryable() || attempt >= self.policy.max_attempts {
                return Err(err);
            }
            let hint = match &err {
                ClientError::Server { retry_ms, .. } => *retry_ms,
                ClientError::Io(_) => None,
            };
            let delay = self.backoff(attempt, hint);
            if start.elapsed() + delay > self.policy.budget {
                return Err(err);
            }
            std::thread::sleep(delay);
        }
    }

    /// Delay before retry number `attempt` (1-based): the server hint
    /// when present, otherwise `base * 2^(attempt-1)` jittered uniformly
    /// down to half — both clamped to `max_backoff`.
    fn backoff(&mut self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        if let Some(ms) = hint_ms {
            return Duration::from_millis(ms).min(self.policy.max_backoff);
        }
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(20))
            .min(self.policy.max_backoff);
        let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        // SplitMix64 jitter stream: uniform in [nanos/2, nanos].
        let z = autophase_telemetry::splitmix64(&mut self.rng);
        let span = nanos / 2;
        Duration::from_nanos(nanos - span + (z % (span + 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_clamps_and_honors_hints() {
        let mut c = RetryingClient::new("127.0.0.1:1");
        let b1 = c.backoff(1, None);
        let b2 = c.backoff(2, None);
        let b3 = c.backoff(3, None);
        // Jittered exponential: each delay lands in [base*2^k/2, base*2^k].
        let base = c.policy.base_backoff;
        assert!(b1 >= base / 2 && b1 <= base, "b1={b1:?}");
        assert!(b2 >= base && b2 <= base * 2, "b2={b2:?}");
        assert!(b3 >= base * 2 && b3 <= base * 4, "b3={b3:?}");
        // A huge attempt number clamps to max_backoff, no overflow.
        assert!(c.backoff(60, None) <= c.policy.max_backoff);
        // Server hints are taken verbatim but clamped: a hostile hint
        // cannot park the client past max_backoff.
        assert_eq!(c.backoff(1, Some(40)), Duration::from_millis(40));
        assert_eq!(c.backoff(1, Some(u64::MAX)), c.policy.max_backoff);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let seq = |seed: u64| -> Vec<Duration> {
            let mut c = RetryingClient::with(
                "127.0.0.1:1",
                ClientConfig::default(),
                RetryPolicy {
                    seed,
                    ..RetryPolicy::default()
                },
            );
            (1..=4).map(|a| c.backoff(a, None)).collect()
        };
        assert_eq!(seq(7), seq(7), "same seed, same delays");
        assert_ne!(seq(7), seq(8), "different seed, different jitter");
    }

    #[test]
    fn retryability_is_typed() {
        assert!(ClientError::Io(std::io::Error::other("x")).is_retryable());
        let refused = |kind| ClientError::server(kind, None, String::new());
        assert!(refused(ErrKind::Overloaded).is_retryable());
        assert!(refused(ErrKind::Deadline).is_retryable());
        assert!(!refused(ErrKind::Parse).is_retryable());
        assert!(!refused(ErrKind::BadRequest).is_retryable());
        assert!(!refused(ErrKind::Internal).is_retryable());
    }

    #[test]
    fn retry_gives_up_when_nothing_listens() {
        // Port 1 refuses immediately: the retrying client should make
        // its attempts and fail with Io, not hang.
        let mut c = RetryingClient::with(
            "127.0.0.1:1",
            ClientConfig::default(),
            RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        match c.ping() {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
