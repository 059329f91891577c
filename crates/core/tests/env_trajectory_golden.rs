//! Golden trajectories of [`PhaseOrderEnv`]: everything a trainer or a
//! figure reads off the environment, pinned as FNV-1a hashes in
//! `golden/env_trajectories.txt`.
//!
//! The file was generated by the environment *before* its two profile
//! memos (a sequence-keyed shared cache in front of an env-local
//! content-keyed one) became one content-keyed `EvalCache`; the one-memo
//! environment must reproduce it byte for byte. That is what allowed the
//! full-recompute mode, and later the step-transition memo, to be deleted
//! instead of kept as a reference.
//! Regenerate only for an intended trajectory change:
//! `cargo test --release -p autophase-core --test env_trajectory_golden -- --ignored`.
//!
//! Seeded action streams walk the 9 CHStone programs and 16 generated
//! ones, three episodes per program — a shared six-action prefix (so the
//! profile memo serves repeats), then a suffix of
//! the episode's own — under three configurations:
//!
//! * `default` — `EnvConfig::default()`;
//! * `serve` — the shape of `autophase_serve::serve_env_config()`, written
//!   out (`core` cannot depend on `serve`);
//! * `fig8raw` — Figure 8's `original-norm2` with `RewardKind::Raw`;
//!
//! each in three modes:
//!
//! * `plain` — one multi-program environment on its own;
//! * `shared` — the same, as the first environment on a fresh shared
//!   [`EvalCache`] (line for line what `plain` prints, `samples()`
//!   included);
//! * `quarantine` — one environment per program, all recording into one
//!   [`Quarantine`], under a fuel ceiling at the program's pristine
//!   instruction count: every apply that grows the module faults, rolls
//!   back, is recorded against the program's fingerprint, and masks the
//!   pass once it repeats. The faults are organic, not injected.
//!
//! One line per episode: the hash of every observation's bits, every
//! reward's bits, `done`, `last_cycles()`, `samples()` and the masked-pass
//! count after the reset and after every step, then the episode's final
//! `last_cycles()` and `samples()` in the clear.

use autophase_core::env::{EnvConfig, FeatureNorm, ObservationKind, PhaseOrderEnv, RewardKind};
use autophase_core::{EvalCache, Quarantine};
use autophase_ir::Module;
use autophase_passes::FuelBudget;
use autophase_progen::{program_batch, GenConfig};
use autophase_rl::env::Environment;
use autophase_telemetry::faultfs::fnv1a;
use std::fmt::Write;
use std::sync::Arc;

const GENERATED_SEED: u64 = 0x0E27_7A1E;
const GENERATED_PROGRAMS: usize = 16;
const EPISODES_PER_PROGRAM: usize = 3;
const MAX_STEPS: usize = 16;
const SHARED_PREFIX: usize = 6;
const ACTION_SEED: u64 = 0x0AC7_1025;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/env_trajectories.txt")
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one episode's line hashes: the little-endian bytes of each word
/// fed to it.
struct Trace(Vec<u8>);

impl Trace {
    fn word(&mut self, w: u64) {
        self.0.extend_from_slice(&w.to_le_bytes());
    }

    /// What the environment shows after a reset or a step.
    fn state(&mut self, env: &PhaseOrderEnv, observation: &[f64]) {
        for x in observation {
            self.word(x.to_bits());
        }
        self.word(env.last_cycles());
        self.word(env.samples());
        self.word(env.masked_passes().len() as u64);
    }
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

fn configurations() -> Vec<(&'static str, EnvConfig)> {
    vec![
        ("default", EnvConfig::default()),
        (
            "serve",
            EnvConfig {
                observation: ObservationKind::Combined,
                feature_norm: FeatureNorm::InstCount,
                reward: RewardKind::Log,
                episode_len: 12,
                filtered: true,
                ..EnvConfig::default()
            },
        ),
        (
            "fig8raw",
            EnvConfig {
                observation: ObservationKind::Combined,
                feature_norm: FeatureNorm::InstCount,
                reward: RewardKind::Raw,
                episode_len: 12,
                ..EnvConfig::default()
            },
        ),
    ]
}

/// The action stream of one episode: the program's shared prefix, then
/// the episode's own suffix, `steps` actions in all.
fn actions(program: usize, episode: usize, steps: usize, num_actions: usize) -> Vec<usize> {
    let stream = |salt: u64| ACTION_SEED ^ ((program as u64) << 32) ^ salt;
    let (mut prefix, mut suffix) = (stream(0), stream(1 + episode as u64));
    (0..steps)
        .map(|i| {
            let state = if i < SHARED_PREFIX {
                &mut prefix
            } else {
                &mut suffix
            };
            (splitmix(state) % num_actions as u64) as usize
        })
        .collect()
}

/// Walk one episode of `program` (its index in [`programs`]) on `env`,
/// whose next `reset` must select it, and print its line.
fn episode_line(
    env: &mut PhaseOrderEnv,
    cfg: &EnvConfig,
    label: &str,
    program: (usize, &str),
    episode: usize,
) -> String {
    let mut h = Trace(Vec::new());
    let obs = env.reset();
    h.state(env, &obs);
    let steps = cfg.episode_len.min(MAX_STEPS);
    for (i, a) in actions(program.0, episode, steps, env.num_actions())
        .into_iter()
        .enumerate()
    {
        let r = env.step(a);
        h.word(r.reward.to_bits());
        h.word(u64::from(r.done));
        assert_eq!(
            r.done,
            i + 1 == cfg.episode_len,
            "{label}: done at step {i}"
        );
        h.state(env, &r.observation);
    }
    format!(
        "{label} {} ep{episode} {:016x} cycles={} samples={}\n",
        program.1,
        fnv1a(&h.0),
        env.last_cycles(),
        env.samples()
    )
}

/// `plain` and `shared`: one environment over every program, rotating
/// through them `EPISODES_PER_PROGRAM` times.
fn rotate(env: &mut PhaseOrderEnv, cfg: &EnvConfig, label: &str, names: &[&str]) -> String {
    let mut out = String::new();
    for episode in 0..EPISODES_PER_PROGRAM {
        for (p, name) in names.iter().enumerate() {
            out += &episode_line(env, cfg, label, (p, name), episode);
        }
    }
    out
}

fn render() -> String {
    let programs = programs();
    let names: Vec<&str> = programs.iter().map(|(n, _)| n.as_str()).collect();
    let modules: Vec<Module> = programs.iter().map(|(_, m)| m.clone()).collect();
    let mut out = String::new();
    for (config, cfg) in configurations() {
        let mut plain = PhaseOrderEnv::new(modules.clone(), cfg.clone());
        let plain_lines = rotate(&mut plain, &cfg, &format!("{config} plain"), &names);

        let cache = Arc::new(EvalCache::default());
        let mut shared = PhaseOrderEnv::with_cache(modules.clone(), cfg.clone(), cache);
        let shared_lines = rotate(&mut shared, &cfg, &format!("{config} shared"), &names);
        assert_eq!(
            plain_lines.replace(" plain ", " shared "),
            shared_lines,
            "{config}: the first environment on a fresh shared cache diverged from an unshared one"
        );
        out += &plain_lines;
        out += &shared_lines;

        let quarantine = Arc::new(Quarantine::default());
        let label = format!("{config} quarantine");
        for (p, (name, module)) in programs.iter().enumerate() {
            let capped = EnvConfig {
                fuel: FuelBudget {
                    max_insts: module.num_insts(),
                },
                ..cfg.clone()
            };
            let mut env = PhaseOrderEnv::single(module.clone(), capped.clone());
            env.set_quarantine(Arc::clone(&quarantine));
            for episode in 0..EPISODES_PER_PROGRAM {
                out += &episode_line(&mut env, &capped, &label, (p, name), episode);
            }
            writeln!(out, "{label} {name} masked={:?}", env.masked_passes()).unwrap();
        }
        assert!(
            !quarantine.is_empty(),
            "{config}: the fuel ceiling produced no fault"
        );
    }
    out
}

#[test]
fn env_trajectories_match_golden_file() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let got = render();
    let mismatches: Vec<String> = golden
        .lines()
        .zip(got.lines())
        .filter(|(want, have)| want != have)
        .map(|(want, have)| format!("  want {want}\n  have {have}"))
        .collect();
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
#[ignore = "overwrites the committed golden file; run only for an intended trajectory change"]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, render()).unwrap();
}
