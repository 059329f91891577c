//! Parallel deduped corpus construction.

use autophase_ir::fingerprint::fingerprint_module;
use autophase_ir::Module;
use autophase_progen::{generate_valid, GenConfig};
use std::collections::HashSet;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::ScopedJoinHandle;

/// Seed stride between candidate indices — the same stride
/// [`autophase_progen::program_batch`] uses, so candidate `i` of a corpus
/// is exactly program `i` of the equivalent serial batch.
pub const SEED_STRIDE: u64 = 7919;

/// Corpus pipeline configuration.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Generator knobs.
    pub gen: GenConfig,
    /// Base seed; candidate `i` uses `base_seed + i·SEED_STRIDE`.
    pub base_seed: u64,
    /// Number of *distinct* programs to materialize.
    pub target: usize,
    /// Worker threads. Any value yields the identical corpus; this only
    /// trades wall clock for cores.
    pub workers: usize,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig {
            gen: GenConfig::default(),
            base_seed: 0xC0_2B05,
            target: 200,
            workers: 1,
        }
    }
}

/// One materialized corpus program plus what regenerates it.
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// Candidate index (position in the serial generation order).
    pub index: u64,
    /// The progen seed that regenerates this exact program.
    pub seed: u64,
    /// The program.
    pub module: Module,
    /// Structural fingerprint ([`fingerprint_module`]) — the dedup key.
    pub fingerprint: u64,
}

/// A built corpus: `programs` holds the first [`CorpusConfig::target`]
/// distinct candidates in candidate-index order.
#[derive(Debug)]
pub struct Corpus {
    /// The configuration that built it.
    pub cfg: CorpusConfig,
    /// Distinct programs, ascending candidate index.
    pub programs: Vec<CorpusProgram>,
    /// Candidates generated before dedup (for the dedup-rate report).
    pub generated: u64,
}

/// Build a deduped corpus of `cfg.target` distinct verified programs.
///
/// Candidates are generated in rounds over a contiguous index range.
/// Workers claim indices from an atomic counter (so the *set* of indices
/// each round covers is fixed regardless of which worker generates
/// which), results are sorted by index, and dedup keeps the
/// lowest-index program per fingerprint. The stop condition is evaluated
/// only at round boundaries, making the kept set a pure function of
/// `(gen, base_seed, target)` — `workers` never changes the output, a
/// property pinned by the seed-stability tests.
pub fn build_corpus(cfg: &CorpusConfig) -> Corpus {
    let chunk = cfg.target.max(32) as u64;
    let mut candidates: Vec<CorpusProgram> = Vec::new();
    let mut next_index = 0u64;

    loop {
        let round_end = next_index + chunk;
        let counter = AtomicU64::new(next_index);
        // One worker's share of the round, handed back when it finishes.
        let worker = || {
            std::iter::repeat_with(|| counter.fetch_add(1, Ordering::Relaxed))
                .take_while(|&idx| idx < round_end)
                .map(|idx| {
                    let seed = cfg.base_seed.wrapping_add(idx.wrapping_mul(SEED_STRIDE));
                    let module = generate_valid(&cfg.gen, seed);
                    CorpusProgram {
                        index: idx,
                        seed,
                        fingerprint: fingerprint_module(&module),
                        module,
                    }
                })
                .collect::<Vec<_>>()
        };
        let mut round: Vec<CorpusProgram> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..cfg.workers.max(1))
                .map(|_| scope.spawn(worker))
                .collect();
            let join = |h: ScopedJoinHandle<_>| h.join().unwrap_or_else(|p| resume_unwind(p));
            handles.into_iter().flat_map(join).collect()
        });
        autophase_telemetry::incr("corpus.gen.generated", "", round.len() as u64);
        candidates.append(&mut round);
        next_index = round_end;

        // Round boundary: count distinct fingerprints in index order.
        candidates.sort_by_key(|p| p.index);
        let mut seen = HashSet::new();
        let distinct = candidates
            .iter()
            .filter(|p| seen.insert(p.fingerprint))
            .count();
        if distinct >= cfg.target {
            break;
        }
    }

    let generated = candidates.len() as u64;
    let mut seen = HashSet::new();
    let mut programs: Vec<CorpusProgram> = candidates
        .into_iter()
        .filter(|p| seen.insert(p.fingerprint))
        .collect();
    programs.truncate(cfg.target);
    autophase_telemetry::incr(
        "corpus.gen.duplicate",
        "",
        generated - programs.len() as u64,
    );
    autophase_telemetry::incr("corpus.gen.kept", "", programs.len() as u64);

    Corpus {
        cfg: cfg.clone(),
        programs,
        generated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autophase_ir::printer::print_module;

    fn small_cfg(workers: usize) -> CorpusConfig {
        CorpusConfig {
            target: 12,
            workers,
            ..CorpusConfig::default()
        }
    }

    #[test]
    fn builds_target_distinct_programs_in_index_order() {
        let corpus = build_corpus(&small_cfg(1));
        assert_eq!(corpus.programs.len(), 12);
        let mut fps = HashSet::new();
        for w in corpus.programs.windows(2) {
            assert!(w[0].index < w[1].index, "ascending candidate index");
        }
        for p in &corpus.programs {
            assert!(fps.insert(p.fingerprint), "distinct fingerprints");
            assert_eq!(
                p.seed,
                corpus
                    .cfg
                    .base_seed
                    .wrapping_add(p.index.wrapping_mul(SEED_STRIDE))
            );
            autophase_ir::verify::verify_module(&p.module).unwrap();
        }
    }

    #[test]
    fn worker_count_does_not_change_the_corpus() {
        let one = build_corpus(&small_cfg(1));
        let four = build_corpus(&small_cfg(4));
        assert_eq!(one.programs.len(), four.programs.len());
        for (a, b) in one.programs.iter().zip(&four.programs) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(
                print_module(&a.module),
                print_module(&b.module),
                "bit-identical programs regardless of worker count"
            );
        }
    }
}
