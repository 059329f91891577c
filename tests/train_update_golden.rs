//! Training-trajectory golden (tier 1): the weights a few
//! `PpoAgent::update`s and one `A2cAgent::update` leave behind, and the
//! curve and weights of every trainer's whole `train` loop (PPO serial
//! and parallel, A2C, ES on `ChainEnv`; RL-PPO3 on `matmul`), pinned as
//! FNV-1a hashes of their `f64` bits in `golden/train_update.txt`. Two
//! more lines hash the whole serialized networks after `ppo48` and
//! `a2c100` (`Mlp::to_bytes`: Adam moments and step counter included),
//! so a change that kept the weights but moved the optimizer state fails
//! too.
//!
//! The file was generated by the code *before* the update's kernels were
//! batched (layer-major backward through `gemm_kt`, lane-kernel Adam,
//! tiled `refresh`); the batched kernels must reproduce it to the last
//! bit. That is what allowed the per-sample `backward_batch` body and the
//! scalar Adam loop to be deleted instead of kept as a second path. The
//! `*-train` lines were written by the four hand-rolled training loops
//! and two update bodies; the one loop and one update kernel that
//! replaced them must reproduce those too, as must RL-PPO3's update and
//! ES's fitness rollouts, which ran the per-sample `Mlp::backward` /
//! `Mlp::forward` when the lines were written and now run
//! `backward_batch` / `forward_one`.
//! Regenerate only for an intended trajectory change:
//! `cargo test --release --test train_update_golden -- --ignored`.

use autophase::core::compile::Input;
use autophase::core::multi::{MultiActionAgent, MultiConfig};
use autophase::hls::HlsConfig;
use autophase::nn::Mlp;
use autophase::rl::a2c::{A2cAgent, A2cConfig};
use autophase::rl::env::{ChainEnv, Environment};
use autophase::rl::es::{EsAgent, EsConfig};
use autophase::rl::ppo::{PpoAgent, PpoConfig};
use autophase::rl::rollout::{Batch, Transition};
use std::fmt::Write;

/// The serving layout: 42 observation features, 18 passes.
const OBS_DIM: usize = 42;
const N_ACTIONS: usize = 18;
const EPISODE_LEN: usize = 12;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/train_update.txt")
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv1a_bits(params: &[f64]) -> u64 {
    fnv1a(params.iter().flat_map(|p| p.to_bits().to_le_bytes()))
}

/// The whole optimizer state of both networks — weights, biases, both
/// Adam moments and the step counter, in the codec's on-disk order.
fn state_line(name: &str, policy: &Mlp, value: &Mlp) -> String {
    format!(
        "{name}-state policy {:016x} value {:016x}\n",
        fnv1a(policy.to_bytes()),
        fnv1a(value.to_bytes())
    )
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[-1, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A synthetic on-policy batch in the serving layout: sign-mixed
/// observations with exact zeros, 12-step episodes.
fn batch(transitions: usize, seed: u64) -> Batch {
    let mut state = seed;
    let mut out = Batch::default();
    let mut episode = 0.0;
    for i in 0..transitions {
        let obs = (0..OBS_DIM)
            .map(|_| {
                let v = unit(&mut state);
                if v.abs() < 0.1 {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        let reward = unit(&mut state) * 0.5;
        episode += reward;
        let done = (i + 1) % EPISODE_LEN == 0;
        out.transitions.push(Transition {
            obs,
            action: (splitmix(&mut state) % N_ACTIONS as u64) as usize,
            reward,
            logp: (1.0 / N_ACTIONS as f64).ln() + unit(&mut state) * 0.2,
            value: unit(&mut state) * 0.3,
            done,
        });
        if done {
            out.episode_returns.push(episode);
            episode = 0.0;
        }
    }
    out
}

/// PPO's parallel trainer on `workers` chain environments: the curve's
/// and the two networks' hashes.
fn ppo_parallel(workers: usize) -> String {
    let mut envs: Vec<Box<dyn Environment + Send>> = (0..workers)
        .map(|_| Box::new(ChainEnv::new(vec![2, 0], 3)) as Box<dyn Environment + Send>)
        .collect();
    let mut agent = PpoAgent::new(3, 3, &PpoConfig::small(), 11);
    let curve = agent.train_parallel(&mut envs, 12, 6);
    format!(
        "curve {:016x} policy {:016x} value {:016x}",
        fnv1a_bits(&curve),
        fnv1a_bits(&agent.policy.parameters()),
        fnv1a_bits(&agent.value.parameters())
    )
}

/// The whole training loops (collect → update, sampling included).
fn render_train(out: &mut String) {
    let mut agent = PpoAgent::new(3, 3, &PpoConfig::small(), 11);
    let curve = agent.train(&mut ChainEnv::new(vec![2, 0], 3), 6);
    writeln!(
        out,
        "ppo-train curve {:016x} policy {:016x} value {:016x}",
        fnv1a_bits(&curve),
        fnv1a_bits(&agent.policy.parameters()),
        fnv1a_bits(&agent.value.parameters())
    )
    .unwrap();
    let mut agent = A2cAgent::new(3, 3, &A2cConfig::small(), 21);
    let curve = agent.train(&mut ChainEnv::new(vec![1, 2], 3), 8);
    writeln!(
        out,
        "a2c-train curve {:016x} policy {:016x} value {:016x}",
        fnv1a_bits(&curve),
        fnv1a_bits(&agent.policy.parameters()),
        fnv1a_bits(&agent.value.parameters())
    )
    .unwrap();
    let mut agent = EsAgent::new(3, 2, &EsConfig::small(), 17);
    let curve = agent.train(&mut ChainEnv::new(vec![1, 0], 2), 5);
    writeln!(
        out,
        "es-train curve {:016x} policy {:016x}",
        fnv1a_bits(&curve),
        fnv1a_bits(&agent.policy.parameters())
    )
    .unwrap();
    // Episode-indexed collection: one line for any worker count.
    let one = ppo_parallel(1);
    assert_eq!(one, ppo_parallel(3), "worker count changed the run");
    writeln!(out, "ppo-train-parallel {one}").unwrap();
    // RL-PPO3: its factored clipped surrogate on the same batched
    // kernels, the shared categorical sampler. The line pins the outcome;
    // `core::multi`'s `matmul_weights_are_pinned` pins the weights.
    let program = autophase::benchmarks::suite::by_name("matmul").expect("known benchmark");
    let cfg = MultiConfig {
        seq_len: 6,
        episode_len: 3,
        episodes_per_iter: 2,
        ..MultiConfig::default()
    };
    let hls = HlsConfig::default();
    let mut input = Input::new(&program, &hls);
    let (seq, cycles) = MultiActionAgent::new(&cfg, 9).train(&mut input, 2);
    writeln!(
        out,
        "multi-matmul seq {seq:?} cycles {cycles} samples {}",
        input.samples()
    )
    .unwrap();
}

/// One line per case: the policy and value weights' hashes; then the
/// whole optimizer state after `ppo48` and `a2c100`.
fn render() -> String {
    let mut out = String::new();
    let mut states = String::new();
    // Default 256x256 PPO; minibatch 64, so 12 and 48 transitions are one
    // minibatch per epoch (the benchmark's two update sizes) and 100
    // splits 64 + 36.
    for (name, sizes) in [
        ("ppo12", &[12usize, 12, 12][..]),
        ("ppo48", &[48, 48][..]),
        ("ppo-mixed", &[12, 48, 100][..]),
    ] {
        let mut agent = PpoAgent::new(OBS_DIM, N_ACTIONS, &PpoConfig::default(), 12);
        for (i, &n) in sizes.iter().enumerate() {
            agent.update(&batch(n, 0xB47C ^ ((i as u64) << 8) ^ n as u64));
        }
        writeln!(
            out,
            "{name} policy {:016x} value {:016x}",
            fnv1a_bits(&agent.policy.parameters()),
            fnv1a_bits(&agent.value.parameters())
        )
        .unwrap();
        if name == "ppo48" {
            states.push_str(&state_line(name, &agent.policy, &agent.value));
        }
    }
    // A2C chunks a batch by 64: 100 transitions are two `backward_batch`
    // calls (64 + 36) before the single `step`.
    let mut agent = A2cAgent::new(OBS_DIM, N_ACTIONS, &A2cConfig::default(), 21);
    for seed in [0xA2C0, 0xA2C1] {
        agent.update(&batch(100, seed));
    }
    writeln!(
        out,
        "a2c100 policy {:016x} value {:016x}",
        fnv1a_bits(&agent.policy.parameters()),
        fnv1a_bits(&agent.value.parameters())
    )
    .unwrap();
    states.push_str(&state_line("a2c100", &agent.policy, &agent.value));
    render_train(&mut out);
    out.push_str(&states);
    out
}

#[test]
fn update_trajectories_match_golden_file() {
    let golden = std::fs::read_to_string(golden_path()).expect("tests/golden/train_update.txt");
    let got = render();
    for (g, w) in got.lines().zip(golden.lines()) {
        assert_eq!(g, w, "trained weights diverged from the golden trajectory");
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "overwrites the committed golden file; run only for an intended trajectory change"]
fn regenerate_golden_file() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, render()).unwrap();
}
