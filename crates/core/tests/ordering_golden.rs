//! Golden orderings: every number the figures, `tune` and the
//! experiments read off a (program, ordering) compilation, pinned in
//! `golden/orderings.txt`.
//!
//! The file was written by the unchecked evaluators (a plain
//! `registry::apply_sequence` and one profile, no rollback, no verifier)
//! and the environment-driven `infer_sequence`, before those became one
//! checked `compile` and a rollout on `step::Walk`. The writer asserts
//! that every ordering it pins directly leaves a module the verifier
//! accepts after every changing pass, inside the default fuel budget, so
//! on these lines the checked path has nothing to roll back and must
//! print what the unchecked one printed. Regenerate only for an intended
//! change of answer:
//! `cargo test --release -p autophase-core --test ordering_golden -- --ignored`.
//!
//! What it pins:
//!
//! * `-O0`, `-O3` and 8 seeded 45-pass orderings on the 9 CHStone
//!   programs and 16 generated ones;
//! * `run_algorithm` for all 11 algorithms at `Budget::tiny()` on `gsm`
//!   and `matmul`, seed 3 — cycles, samples and the improvement's bits;
//! * `tune(gsm, Quick, 3)`;
//! * the Figure-9 miniature;
//! * `infer_sequence` for seeded untrained agents under six
//!   configurations: the paper's default, the same with `-terminate`, the
//!   daemon's serving shape, §6.2's two normalisations and Figure 8's
//!   `original-norm2`.

use autophase_core::algorithms::{run_algorithm, Algorithm, Budget};
use autophase_core::compile::Input;
use autophase_core::env::{EnvConfig, FeatureNorm, ObservationKind, RewardKind};
use autophase_core::experiment::{fig9, infer_sequence, GENERALIZATION_EPISODE_LEN};
use autophase_core::{tune, Effort};
use autophase_hls::HlsConfig;
use autophase_ir::verify::verify_module;
use autophase_ir::Module;
use autophase_passes::o3::O3_SEQUENCE;
use autophase_passes::registry::{self, NUM_PASSES};
use autophase_passes::FuelBudget;
use autophase_progen::{program_batch, GenConfig};
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_telemetry::faultfs::fnv1a;
use std::fmt::Write;

const GENERATED_SEED: u64 = 0x0DE2_1A65;
const GENERATED_PROGRAMS: usize = 16;
const SEQUENCES_PER_PROGRAM: usize = 8;
const SEQUENCE_SEED: u64 = 0x5E0_0E27;
/// Offsets of the untrained agents' seeds: two arbitrary ones, and two
/// whose greedy policy under the `terminate` configuration picks
/// `-terminate` — 18 at the first step, 225 after three on one program.
const AGENT_SEEDS: [u64; 4] = [0, 1, 18, 225];

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/orderings.txt")
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn programs() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = autophase_benchmarks::suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.module))
        .collect();
    assert_eq!(out.len(), 9, "the CHStone suite changed size");
    out.extend(
        program_batch(&GenConfig::default(), GENERATED_SEED, GENERATED_PROGRAMS)
            .into_iter()
            .enumerate()
            .map(|(i, m)| (format!("gen{i:02}"), m)),
    );
    out
}

fn chstone(name: &str) -> Module {
    autophase_benchmarks::suite()
        .into_iter()
        .find(|b| b.name == name)
        .expect("CHStone program")
        .module
}

/// `seq` applied pass by pass without a transaction: every changing pass
/// must leave a module the verifier accepts, inside the default fuel
/// budget — the orderings on which checked and unchecked cannot differ.
fn assert_never_faults(name: &str, program: &Module, seq: &[usize]) {
    let fuel = FuelBudget::default();
    let mut m = program.clone();
    for (i, &p) in seq.iter().enumerate() {
        if registry::apply(&mut m, p) {
            if let Err(e) = verify_module(&m) {
                panic!("{name}: pass {p} (step {i} of {seq:?}) broke the verifier: {e}");
            }
        }
        assert!(
            m.num_insts() <= fuel.max_insts,
            "{name}: pass {p} (step {i} of {seq:?}) outgrew the fuel budget"
        );
    }
}

fn hash_seq(seq: &[usize]) -> u64 {
    let bytes: Vec<u8> = seq.iter().flat_map(|&p| (p as u64).to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// `-O0`, `-O3` and the seeded orderings, one line per program.
fn orderings(out: &mut String) {
    let hls = HlsConfig::default();
    for (p, (name, module)) in programs().iter().enumerate() {
        assert_never_faults(name, module, O3_SEQUENCE);
        let mut input = Input::new(module, &hls);
        let mut state = SEQUENCE_SEED ^ ((p as u64) << 32);
        let cycles: Vec<String> = (0..SEQUENCES_PER_PROGRAM)
            .map(|_| {
                let seq: Vec<usize> = (0..45)
                    .map(|_| (splitmix(&mut state) % NUM_PASSES as u64) as usize)
                    .collect();
                assert_never_faults(name, module, &seq);
                input.cycles(&seq).to_string()
            })
            .collect();
        writeln!(
            out,
            "ordering {name} o0={} o3={} seqs={}",
            input.o0_cycles(),
            input.cycles(O3_SEQUENCE),
            cycles.join(",")
        )
        .unwrap();
    }
}

/// Figure 7's per-program runner at its test budget.
fn algorithms(out: &mut String) {
    let hls = HlsConfig::default();
    for name in ["gsm", "matmul"] {
        let mut reference = Input::new(&chstone(name), &hls);
        let o3 = reference.cycles(O3_SEQUENCE);
        for alg in Algorithm::ALL {
            let r = run_algorithm(alg, &reference, o3, &Budget::tiny(), 3);
            writeln!(
                out,
                "algorithm {name} {} cycles={} samples={} improvement={:016x}",
                alg.name(),
                r.cycles,
                r.samples,
                r.improvement_over_o3.to_bits()
            )
            .unwrap();
        }
    }
}

fn tuned(out: &mut String) {
    let program = chstone("gsm");
    let r = tune(&program, Effort::Quick, 3);
    assert_never_faults("gsm", &program, &r.sequence);
    writeln!(
        out,
        "tune gsm cycles={} o0={} o3={} samples={} seq={:?}",
        r.cycles, r.o0_cycles, r.o3_cycles, r.samples, r.sequence
    )
    .unwrap();
}

fn figure9(out: &mut String) {
    let train = program_batch(&GenConfig::default(), 42, 3);
    let test: Vec<(String, Module)> = ["gsm", "matmul"]
        .iter()
        .map(|&n| (n.to_string(), chstone(n)))
        .collect();
    let results = fig9(&train, &test, 2, 40, 11);
    assert_eq!(results.len(), 5, "three searches and two generalists");
    for r in results {
        assert_eq!(r.samples_per_program, 1, "{}: one compilation", r.label);
        assert!(r.mean_improvement.is_finite(), "{}", r.label);
        writeln!(
            out,
            "fig9 {} mean={:016x} samples={}",
            r.label,
            r.mean_improvement.to_bits(),
            r.samples_per_program
        )
        .unwrap();
    }
}

fn inference_configs() -> Vec<(&'static str, EnvConfig)> {
    let generalist = |norm, filtered| EnvConfig {
        observation: ObservationKind::Combined,
        feature_norm: norm,
        reward: RewardKind::Log,
        episode_len: GENERALIZATION_EPISODE_LEN,
        filtered,
        ..EnvConfig::default()
    };
    vec![
        ("default", EnvConfig::default()),
        (
            "terminate",
            EnvConfig {
                include_terminate: true,
                ..EnvConfig::default()
            },
        ),
        // `autophase_serve::engine::serve_env_config()`, written out.
        (
            "serve",
            EnvConfig {
                episode_len: 12,
                ..generalist(FeatureNorm::InstCount, true)
            },
        ),
        ("filtered-norm1", generalist(FeatureNorm::Log, true)),
        ("filtered-norm2", generalist(FeatureNorm::InstCount, true)),
        (
            "original-norm2",
            EnvConfig {
                episode_len: 12,
                ..generalist(FeatureNorm::InstCount, false)
            },
        ),
    ]
}

/// Greedy one-compilation inference by seeded, untrained agents.
fn inference(out: &mut String) {
    let programs = programs();
    for (label, cfg) in inference_configs() {
        let step = autophase_core::step::Step::new(&cfg);
        for seed in AGENT_SEEDS {
            let agent = PpoAgent::new(
                step.obs_dim(),
                step.num_actions(),
                &PpoConfig::small(),
                0x1AF3 + seed,
            );
            for (name, module) in &programs {
                let (seq, cycles) = infer_sequence(&agent, &cfg, module);
                writeln!(
                    out,
                    "infer {label} agent{seed} {name} cycles={cycles} len={} seq={:016x}",
                    seq.len(),
                    hash_seq(&seq)
                )
                .unwrap();
            }
        }
    }
}

/// A section of the file: the first word of its lines, and its writer.
type Section = (&'static str, fn(&mut String));

/// The file's sections: each one is rendered and compared by its own
/// test, so they run in parallel.
const SECTIONS: [Section; 5] = [
    ("ordering", orderings),
    ("algorithm", algorithms),
    ("tune", tuned),
    ("fig9", figure9),
    ("infer", inference),
];

fn render(section: &str) -> String {
    let (_, write) = SECTIONS
        .iter()
        .find(|(name, _)| *name == section)
        .expect("a section of the file");
    let mut out = String::new();
    write(&mut out);
    out
}

fn check(section: &str) {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let want: Vec<&str> = golden
        .lines()
        .filter(|l| l.split(' ').next() == Some(section))
        .collect();
    let got = render(section);
    let mismatches: Vec<String> = want
        .iter()
        .zip(got.lines())
        .filter(|(want, have)| *want != have)
        .map(|(want, have)| format!("  want {want}\n  have {have}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{section}: {} of {} golden lines differ, first:\n{}",
        mismatches.len(),
        want.len(),
        mismatches[..mismatches.len().min(8)].join("\n")
    );
    assert_eq!(want.len(), got.lines().count(), "{section}: line count");
}

#[test]
fn seeded_orderings_match_golden_file() {
    check("ordering");
}

#[test]
fn figure7_runner_matches_golden_file() {
    check("algorithm");
}

#[test]
fn tune_matches_golden_file() {
    check("tune");
}

#[test]
fn figure9_miniature_matches_golden_file() {
    check("fig9");
}

#[test]
fn inference_matches_golden_file() {
    check("infer");
}

#[test]
#[ignore = "overwrites the committed golden file; run only for an intended change of answer"]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let all: String = SECTIONS.iter().map(|(name, _)| render(name)).collect();
    std::fs::write(&path, all).unwrap();
}
