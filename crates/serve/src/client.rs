//! Blocking client for the compile service.
//!
//! One [`Client`] wraps one keep-alive connection; requests on it are
//! sequential (the protocol is one outstanding request per connection).
//! Load generators open one client per thread.
//!
//! Every socket operation is bounded: [`ClientConfig`] sets connect,
//! read, and write timeouts (all on by default — a wedged daemon costs
//! a timeout, never a hang). The client never retries: an
//! `overloaded`/`deadline` refusal comes back as [`ClientError::Server`]
//! with the daemon's `retry_ms=` hint in `retry_ms`, and a caller that
//! wants to try again waits that long itself.

use crate::protocol::{self, ErrKind, Reply, Request, Source};
use crate::stats::{ModelsSnapshot, StatsSnapshot};
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
            } => Err(ClientError::Server {
                kind,
                retry_ms,
                msg,
            }),
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

    /// Arm the daemon's chaos counters (`CHAOS`; server must run with
    /// chaos on): `faults` upcoming policy faults, `crashes` real panics
    /// inside upcoming policy forwards (the daemon catches each, that
    /// request degrades to the baseline ordering and the next one is
    /// policy-served), and `swaps` corruptions of upcoming `PROMOTE`
    /// candidates on disk (the armored load must quarantine each while
    /// the old policy keeps serving).
    ///
    /// # Errors
    ///
    /// Transport failures or a typed refusal (chaos disabled).
    pub fn chaos(&mut self, faults: u32, crashes: u32, swaps: u32) -> Result<(), ClientError> {
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
