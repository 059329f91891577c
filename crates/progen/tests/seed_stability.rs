//! Seed stability: the corpus pipeline's load-bearing property.
//!
//! A corpus is never stored, only its `(generator params, seed)` per
//! program — regeneration is sound iff `generate` is a pure function of
//! those inputs. These tests pin that: same seed + params ⇒ bit-identical
//! program (printed text), fingerprint, and validity-filter outcome,
//! across repeated calls, across threads, and regardless of how many
//! workers generate concurrently. The generator holds no hash-ordered
//! state (all draws come from one seeded `StdRng`), so any future change
//! that introduces HashMap-iteration nondeterminism fails here first.

use autophase_ir::fingerprint::fingerprint_module;
use autophase_ir::printer::print_module;
use autophase_progen::{generate, generate_valid, program_batch, GenConfig};

#[test]
fn same_seed_same_program_across_repeated_calls() {
    for cfg in [GenConfig::default(), GenConfig::large()] {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let a = generate(&cfg, seed);
            let b = generate(&cfg, seed);
            assert_eq!(
                print_module(&a),
                print_module(&b),
                "seed {seed}: bit-identical text"
            );
            assert_eq!(
                fingerprint_module(&a),
                fingerprint_module(&b),
                "seed {seed}: identical fingerprint"
            );
        }
    }
}

#[test]
fn generate_valid_is_deterministic_including_retry_path() {
    // generate_valid may walk several candidate seeds before one passes
    // the filters; the walk itself must be deterministic.
    let cfg = GenConfig::default();
    for seed in [7u64, 1234, 0xC0_2B05] {
        let a = generate_valid(&cfg, seed);
        let b = generate_valid(&cfg, seed);
        assert_eq!(print_module(&a), print_module(&b));
    }
}

#[test]
fn concurrent_generation_matches_serial() {
    // Eight threads generating the same seeds as a serial batch: thread
    // scheduling must not leak into the output (no global or
    // thread-local state in the generator).
    let cfg = GenConfig::default();
    let base = 99u64;
    let n = 8usize;
    let serial: Vec<String> = program_batch(&cfg, base, n)
        .iter()
        .map(print_module)
        .collect();
    let parallel: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let cfg = cfg.clone();
                scope.spawn(move || {
                    let m = generate_valid(&cfg, base.wrapping_add(i as u64 * 7919));
                    print_module(&m)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, parallel, "worker scheduling changed the programs");
}

#[test]
fn distinct_seeds_are_distinct_programs() {
    // Not a hard requirement of the generator, but the dedup pipeline
    // depends on seeds spreading: adjacent batch seeds must not collapse
    // to one program.
    let cfg = GenConfig::default();
    let batch = program_batch(&cfg, 5000, 6);
    let mut fps: Vec<u64> = batch.iter().map(fingerprint_module).collect();
    fps.sort_unstable();
    fps.dedup();
    assert!(fps.len() >= 5, "expected ≥5 distinct programs out of 6");
}
