//! `autophase-serve`: the phase-ordering compile service.
//!
//! Turns a trained AutoPhase policy into a request/response system — the
//! deployment story the paper's §1 positions RL inference for ("a
//! fraction of a second" per unseen program, versus hours of
//! per-program search). A request is a textual IR module; the reply is
//! the chosen pass ordering, its predicted cycle count, and optionally
//! the optimized IR.
//!
//! The daemon composes these pieces, each its own module:
//!
//! * [`protocol`] — the framed text wire format and its typed errors;
//! * [`engine`] — the shared handle to the one serving policy (hot-swap)
//!   and the greedy fault-isolated serving rollout, which runs each
//!   policy forward on the request's own thread;
//! * [`store`] — the crash-safe append-only log memoizing the best
//!   known ordering per program fingerprint across restarts;
//! * `artifacts` — the unsynced sidecar beside the store holding each
//!   answer's optimized IR, so a hit that carries IR replays nothing;
//! * `front` — the in-memory memo from request text to fingerprint that
//!   lets a byte-identical repeat reach the store without being parsed;
//! * [`server`] — bounded admission, per-request deadlines, typed
//!   `overloaded` shedding, and the store → policy → baseline
//!   degradation ladder;
//! * [`stats`] — the client-side parser for `STATS` replies (metrics
//!   JSONL → lookup tables), feeding the `serve top` dashboard and the
//!   benches;
//! * [`learner`] — the online-learning half of the daemon, behind one
//!   type: the model registry, a background thread training on
//!   cold-path outcomes and publishing versioned checkpoints into it,
//!   the per-version ledger `MODEL` reads, and the one promotion gate
//!   that both the admin-gated `PROMOTE` verb and auto-promotion pass to
//!   hot-swap a version into the live engine — auto-promotion only once
//!   the version beats the serving policy on recently served programs.
//!
//! Every compile request carries a trace through the pipeline; the
//! daemon's flight recorder keeps the recent ones and dumps
//! fault/refusal/slow offenders to JSONL artifacts (see
//! `autophase_telemetry::flight` and the `STATS`/`TRACE` verbs).
//!
//! [`client`] is the matching blocking client library; the `serve`
//! binary wraps [`server::Server`] behind a CLI. Like
//! `autophase-telemetry`, the crate is std-only: no external
//! dependencies, `std::net` + `std::thread` all the way down.
//!
//! # Quick start (in-process)
//!
//! ```no_run
//! use autophase_serve::client::Client;
//! use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
//! use autophase_serve::server::{Server, ServerConfig};
//! use autophase_nn::mlp::Mlp;
//!
//! let policy = Mlp::new(&[serve_obs_dim(), 32, serve_num_actions()], 7);
//! let server = Server::start(policy, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.compile("; module m\ndefine i32 @main() {\nb0:\n  ret i32 0\n}\n", None, false).unwrap();
//! println!("{} cycles via {:?}", reply.cycles, reply.passes);
//! server.shutdown();
//! ```
#![warn(missing_docs)]

mod artifacts;
pub mod client;
pub mod engine;
pub mod front;
pub mod learner;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod store;

pub use client::{Client, ClientConfig, CompileReply};
pub use engine::{
    serve_env_config, serve_layout, InferenceEngine, RolloutReport, SERVE_EPISODE_LEN,
};
pub use learner::LearnerConfig;
pub use protocol::{ErrKind, Source};
pub use server::{Server, ServerConfig};
pub use stats::{HistStat, ModelVersionStat, ModelsSnapshot, StatsSnapshot};
pub use store::{BestStore, CompactionPolicy};
