//! Corpus-scale program generation (the paper's §6.2 substrate).
//!
//! The paper validates generalization on 12,874 random programs; this
//! crate materializes that kind of corpus reproducibly. [`build_corpus`]
//! drives [`autophase_progen`] across worker threads, fingerprints every
//! candidate, and dedups to the first `target` *distinct* verified
//! programs — with a result that is bit-identical for any worker count,
//! because candidates are claimed from a shared index counter and the
//! dedup keeps the lowest candidate index per fingerprint, both of which
//! are worker-schedule-independent.
//!
//! Nothing is stored: `progen` is deterministic in the seed (a property
//! pinned by `crates/progen/tests/seed_stability.rs`), so a
//! [`CorpusConfig`] alone regenerates every program bit-identically,
//! and each [`CorpusProgram`] carries the seed and candidate index that
//! rebuild it.
//!
//! Telemetry: the pipeline counts `corpus.gen.generated`,
//! `corpus.gen.duplicate`, and `corpus.gen.kept` so a `--telemetry` bench
//! run shows the dedup rate at scale.
#![warn(missing_docs)]

pub mod build;

pub use build::{build_corpus, Corpus, CorpusConfig, CorpusProgram};
