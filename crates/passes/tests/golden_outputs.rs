//! Golden-output differential suite: the printed IR every pass produces,
//! pinned as FNV-1a hashes in `golden/pass_outputs.txt`.
//!
//! The file was generated by the code *before* the pass kernels were
//! rewritten (dense analyses, batched use-rewrites, allocation-free CSE
//! keys); the rewritten kernels must reproduce it byte for byte. That is
//! what allowed the old pass bodies to be deleted instead of kept as a
//! reference fork. Regenerate only for an intended output change:
//! `cargo test --release -p autophase-passes --test golden_outputs -- --ignored`.

use autophase_benchmarks::suite;
use autophase_core::env::FILTERED_PASSES;
use autophase_corpus::{build_corpus, CorpusConfig};
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_passes::checked::{apply_checked, FuelBudget};
use autophase_passes::o3::o3_checked;
use autophase_passes::registry::{self, NUM_PASSES};
use std::fmt::Write;

const CORPUS_SEED: u64 = 0x0060_1DE2;
const CORPUS_PROGRAMS: usize = 64;
const ORDERINGS: usize = 32;
const ORDERING_LEN: usize = 12;
const ORDERING_SEED: u64 = 0x000D_DE25;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pass_outputs.txt")
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn programs() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.module))
        .collect();
    let corpus = build_corpus(&CorpusConfig {
        base_seed: CORPUS_SEED,
        target: CORPUS_PROGRAMS,
        ..CorpusConfig::default()
    });
    assert_eq!(corpus.programs.len(), CORPUS_PROGRAMS);
    out.extend(
        corpus
            .programs
            .into_iter()
            .map(|p| (format!("corpus{}", p.index), p.module)),
    );
    out
}

fn orderings() -> Vec<Vec<usize>> {
    let mut state = ORDERING_SEED;
    (0..ORDERINGS)
        .map(|_| {
            (0..ORDERING_LEN)
                .map(|_| {
                    FILTERED_PASSES[(splitmix(&mut state) % FILTERED_PASSES.len() as u64) as usize]
                })
                .collect()
        })
        .collect()
}

/// One line per (program, case): the hash of the printed module, plus how
/// many applications reported a change (a fault would show as a lower
/// count and an unchanged module).
fn render() -> String {
    let budget = FuelBudget::default();
    let orderings = orderings();
    let mut out = String::new();
    for (name, module) in programs() {
        for pass in 0..NUM_PASSES {
            let mut m = module.clone();
            let changed = registry::apply(&mut m, pass);
            writeln!(
                out,
                "{name} pass{pass:02}{} {:016x} {}",
                registry::pass_name(pass),
                fnv1a(&print_module(&m)),
                u8::from(changed)
            )
            .unwrap();
        }
        let mut m = module.clone();
        let applied = o3_checked(&mut m, &budget);
        writeln!(
            out,
            "{name} o3 {:016x} {}",
            fnv1a(&print_module(&m)),
            applied.len()
        )
        .unwrap();
        for (k, seq) in orderings.iter().enumerate() {
            let mut m = module.clone();
            let changed = seq
                .iter()
                .filter(|&&pass| apply_checked(&mut m, pass, &budget) == Ok(true))
                .count();
            writeln!(
                out,
                "{name} order{k:02} {:016x} {changed}",
                fnv1a(&print_module(&m))
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn pass_outputs_match_golden_file() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let got = render();
    let mut mismatches = Vec::new();
    for (want, have) in golden.lines().zip(got.lines()) {
        if want != have {
            mismatches.push(format!("  want {want}\n  have {have}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} golden lines differ, first:\n{}",
        mismatches.len(),
        golden.lines().count(),
        mismatches[..mismatches.len().min(8)].join("\n")
    );
    assert_eq!(golden.lines().count(), got.lines().count(), "line count");
}

#[test]
#[ignore = "overwrites the committed golden file; run only for an intended output change"]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, render()).unwrap();
}
