//! Corpus-scale generalization harness (ROADMAP item 5).
//!
//! The paper's §6.2 claim is that a policy trained on random programs
//! generalizes to ~13k unseen ones with a single compilation each. This
//! bench measures that claim against *our* stack end to end:
//!
//! 1. **Corpus** — build a deduped progen corpus
//!    (200 / 2k / 10k / 12,874 programs at `--scale
//!    small|medium|large|paper`), write its `CORPUS1` manifest, parse it
//!    back, and spot-check that manifest records regenerate
//!    bit-identically.
//! 2. **Cold replay** — every corpus program through a live serve
//!    daemon with an empty store: per-program improvement-over-O3,
//!    the 1-compilation generalization rate (fraction of unseen programs
//!    where the served ordering matches or beats `-O3` — the Fig. 9
//!    protocol), p50/p99 latency, zero drops.
//! 3. **Warm replay** — the same corpus again: every answer must come
//!    from the store (this is the first store run at ~10k distinct
//!    fingerprints), reported as req/s plus store growth (entries,
//!    log bytes, reopen time).
//! 4. **Feature ablation** — train one policy on Table-2 features and
//!    one on Table-2 + structural (CFG/loop/dominator shape) features,
//!    same training programs and seeds, and compare held-out unseen
//!    improvement: does structure shrink the unseen-program gap
//!    (DAPO-style)? Restrict to one arm with `--features
//!    table2|structural`.
//!
//! `--smoke` runs phases 1–2 only on a 200-program corpus and skips the
//! JSON artifact (the `make corpus-smoke` CI gate). Full runs write
//! `BENCH_corpus.json`.
//!
//! Usage: `cargo run --release -p autophase-bench --bin corpus_bench
//! [-- --scale small|medium|large|paper] [--features table2|structural]
//! [--smoke] [--telemetry summary|jsonl|prom|off]`.

use autophase_bench::{Scale, TelemetrySession};
use autophase_core::env::{o3_cycles, EnvConfig, FeatureNorm};
use autophase_core::experiment::{infer_sequence, GENERALIZATION_EPISODE_LEN};
use autophase_core::{ObservationKind, PhaseOrderEnv, RewardKind};
use autophase_corpus::{
    build_corpus, parse_manifest, regenerate_entry, write_manifest, Corpus, CorpusConfig,
};
use autophase_features::FeatureSet;
use autophase_hls::HlsConfig;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_rl::checkpoint::PolicyCheckpoint;
use autophase_rl::env::Environment;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_serve::client::Client;
use autophase_serve::engine::{serve_env, serve_num_actions, serve_obs_dim};
use autophase_serve::protocol::Source;
use autophase_serve::server::{Server, ServerConfig};
use autophase_serve::store::BestStore;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SEED: u64 = 20;
const DEADLINE_MS: u64 = 60_000;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "autophase_corpus_bench_{}_{name}",
        std::process::id()
    ))
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Parse `--features <set>` or `--features=<set>`; `None` = both arms.
fn features_arg() -> Option<FeatureSet> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--features=") {
            return FeatureSet::parse(v);
        }
        if a == "--features" {
            return args.get(i + 1).and_then(|v| FeatureSet::parse(v));
        }
    }
    None
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn connect(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect to daemon");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set read timeout");
    client
}

/// Phase 1: build, manifest, verify regenerability.
fn build_and_verify_corpus(target: usize, workers: usize) -> (Corpus, usize, f64) {
    eprintln!("corpus_bench: building {target}-program deduped corpus ({workers} workers)");
    let t0 = Instant::now();
    let corpus = build_corpus(&CorpusConfig {
        target,
        workers,
        ..CorpusConfig::default()
    });
    let build_secs = t0.elapsed().as_secs_f64();
    assert_eq!(corpus.programs.len(), target, "dedup fell short of target");
    eprintln!(
        "corpus_bench: {} distinct / {} generated in {build_secs:.1}s",
        corpus.programs.len(),
        corpus.generated
    );

    // Manifest round trip + regeneration spot check: a stratified sample
    // (first, last, and strides between) must regenerate bit-identically.
    let text = write_manifest(&corpus);
    let manifest = parse_manifest(&text).expect("manifest parses back");
    assert_eq!(manifest.entries.len(), target);
    let stride = (target / 10).max(1);
    let mut checked = 0usize;
    for entry in manifest.entries.iter().step_by(stride) {
        let module = regenerate_entry(&manifest.gen, entry).expect("manifest entry regenerates");
        let original = &corpus.programs[checked * stride];
        assert_eq!(
            print_module(&module),
            print_module(&original.module),
            "regenerated program differs from the built one"
        );
        checked += 1;
    }
    eprintln!(
        "corpus_bench: manifest {} bytes, {checked} entries regenerated bit-identically",
        text.len()
    );
    (corpus, text.len(), build_secs)
}

struct ReplayStats {
    p50_ms: f64,
    p99_ms: f64,
    reqs_per_sec: f64,
    mean_improvement_over_o3: f64,
    one_compilation_rate: f64,
    store_misses: usize,
}

/// Replay the corpus through the daemon. `expect_cold` asserts every
/// reply runs the policy path (empty store); otherwise every reply must
/// be a store hit.
fn replay(
    addr: SocketAddr,
    programs: &[(String, u64)],
    expect_cold: bool,
    o3: &[u64],
) -> ReplayStats {
    let mut client = connect(addr);
    let mut latencies = Vec::with_capacity(programs.len());
    let mut store_misses = 0usize;
    let mut improvements = Vec::with_capacity(programs.len());
    let mut beat_or_matched = 0usize;
    let t0 = Instant::now();
    for (i, (ir, _fp)) in programs.iter().enumerate() {
        let t = Instant::now();
        let reply = client
            .compile(ir, Some(DEADLINE_MS), false)
            .unwrap_or_else(|e| panic!("request {i} dropped: {e}"));
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if expect_cold {
            assert_eq!(reply.source, Source::Policy, "request {i}: store not cold");
        } else if reply.source != Source::Store {
            store_misses += 1;
        }
        let o3c = o3[i];
        improvements.push((o3c as f64 - reply.cycles as f64) / o3c.max(1) as f64);
        if reply.cycles <= o3c {
            beat_or_matched += 1;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ReplayStats {
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        reqs_per_sec: programs.len() as f64 / secs,
        mean_improvement_over_o3: improvements.iter().sum::<f64>() / improvements.len() as f64,
        one_compilation_rate: beat_or_matched as f64 / programs.len() as f64,
        store_misses,
    }
}

struct AblationArm {
    set: FeatureSet,
    obs_dim: usize,
    mean_improvement: f64,
    one_compilation_rate: f64,
    train_secs: f64,
}

/// Train a generalist on `train` with the given feature set, infer one
/// compilation per held-out program (Fig. 9 protocol), score vs `-O3`.
fn ablation_arm(
    set: FeatureSet,
    train: &[Module],
    test: &[Module],
    test_o3: &[u64],
    iterations: usize,
) -> AblationArm {
    let env_cfg = EnvConfig {
        observation: ObservationKind::Combined,
        feature_norm: FeatureNorm::InstCount,
        reward: RewardKind::Log,
        episode_len: GENERALIZATION_EPISODE_LEN,
        filtered_features: true,
        filtered_passes: true,
        feature_set: set,
        ..EnvConfig::default()
    };
    let mut env = PhaseOrderEnv::new(train.to_vec(), env_cfg.clone());
    let obs_dim = env.observation_dim();
    let mut agent = PpoAgent::new(obs_dim, env.num_actions(), &PpoConfig::small(), SEED);
    eprintln!(
        "corpus_bench: ablation arm {} (obs dim {obs_dim}), {iterations} iterations",
        set.name()
    );
    let t0 = Instant::now();
    agent.train(&mut env, iterations);
    let train_secs = t0.elapsed().as_secs_f64();

    let mut improvements = Vec::with_capacity(test.len());
    let mut beat_or_matched = 0usize;
    for (p, &o3c) in test.iter().zip(test_o3) {
        let (_, cycles) = infer_sequence(&agent, &env_cfg, p);
        improvements.push((o3c as f64 - cycles as f64) / o3c.max(1) as f64);
        if cycles <= o3c {
            beat_or_matched += 1;
        }
    }
    AblationArm {
        set,
        obs_dim,
        mean_improvement: improvements.iter().sum::<f64>() / improvements.len() as f64,
        one_compilation_rate: beat_or_matched as f64 / test.len() as f64,
        train_secs,
    }
}

fn main() {
    let telemetry = TelemetrySession::start("corpus_bench");
    let scale = Scale::from_args();
    let smoke = has_flag("--smoke");
    let only_features = features_arg();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // ---- Phase 1: corpus + manifest.
    let target = if smoke {
        200
    } else {
        scale.pick4(200, 2_000, 10_000, 12_874)
    };
    let (corpus, manifest_bytes, build_secs) = build_and_verify_corpus(target, workers);
    let hls = HlsConfig::default();

    // Client-side -O3 baseline per program (the bench judges the daemon;
    // the daemon must not judge itself).
    eprintln!("corpus_bench: computing -O3 baselines for {target} programs");
    let o3: Vec<u64> = corpus
        .programs
        .iter()
        .map(|p| o3_cycles(&p.module, &hls))
        .collect();
    let wire: Vec<(String, u64)> = corpus
        .programs
        .iter()
        .map(|p| (print_module(&p.module), p.fingerprint))
        .collect();

    // ---- Train the serving policy on a small corpus slice, checkpoint,
    // reload (same path the production daemon would take).
    let train_slice: Vec<Module> = corpus
        .programs
        .iter()
        .take(8)
        .map(|p| p.module.clone())
        .collect();
    let serve_train_iters = scale.pick4(300, 400, 600, 800);
    eprintln!("corpus_bench: training serve policy for {serve_train_iters} iterations");
    let mut env = serve_env(train_slice.clone());
    let mut agent = PpoAgent::new(
        serve_obs_dim(),
        serve_num_actions(),
        &PpoConfig::small(),
        SEED,
    );
    agent.train(&mut env, serve_train_iters);
    let ckpt_path = tmp_path("policy.ckpt");
    PolicyCheckpoint::from_ppo(&agent)
        .save(&ckpt_path)
        .expect("save checkpoint");
    let policy = PolicyCheckpoint::load(&ckpt_path)
        .expect("reload checkpoint")
        .policy;

    // ---- Phase 2: store-cold replay.
    let store_path = tmp_path("store.log");
    let _ = std::fs::remove_file(&store_path);
    let server = Server::start(
        policy,
        ServerConfig {
            store_path: store_path.clone(),
            workers: workers.max(2),
            queue_cap: 256,
            ..ServerConfig::default()
        },
    )
    .expect("daemon starts");
    let addr = server.addr();

    eprintln!("corpus_bench: cold replay of {target} programs (store empty)");
    let cold = replay(addr, &wire, true, &o3);
    assert_eq!(
        server.store_len(),
        target,
        "every cold program must land in the store"
    );
    eprintln!(
        "corpus_bench: cold p50 {:.2} ms p99 {:.2} ms, {:.1} req/s, \
         improvement-over-O3 {:.4}, 1-compilation rate {:.3}",
        cold.p50_ms,
        cold.p99_ms,
        cold.reqs_per_sec,
        cold.mean_improvement_over_o3,
        cold.one_compilation_rate
    );

    if smoke {
        server.shutdown();
        let _ = std::fs::remove_file(&store_path);
        let _ = std::fs::remove_file(&ckpt_path);
        println!(
            "corpus-smoke OK: {target} programs built+verified, cold replay p99 {:.2} ms, 0 dropped",
            cold.p99_ms
        );
        telemetry.finish();
        return;
    }

    // ---- Phase 3: store-warm replay + store growth.
    eprintln!("corpus_bench: warm replay of {target} programs (store hot)");
    let warm = replay(addr, &wire, false, &o3);
    assert_eq!(warm.store_misses, 0, "warm replay missed the store");
    // Per-stage latency breakdown over the daemon's whole life (cold +
    // warm replays), straight off the STATS verb.
    let stage_ns =
        autophase_bench::stage_breakdown_json(&connect(addr).stats().expect("daemon stats"));
    let store_entries = server.store_len();
    server.shutdown();
    let store_bytes = std::fs::metadata(&store_path).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let reopened = BestStore::open(&store_path).expect("store reopens");
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(reopened.len(), store_entries, "reopen lost entries");
    drop(reopened);
    eprintln!(
        "corpus_bench: warm {:.1} req/s p99 {:.2} ms; store {store_entries} entries, \
         {store_bytes} bytes, reopen {reopen_ms:.1} ms",
        warm.reqs_per_sec, warm.p99_ms
    );

    // ---- Phase 4: table2-vs-structural ablation on held-out programs.
    let ablation_train_n = scale.pick4(6, 12, 16, 24);
    let ablation_test_n = scale.pick4(24, 100, 200, 400);
    let ablation_iters = scale.pick4(150, 200, 300, 400);
    let ab_train: Vec<Module> = corpus
        .programs
        .iter()
        .take(ablation_train_n)
        .map(|p| p.module.clone())
        .collect();
    // Held-out slice from the far end of the corpus: never trained on.
    let ab_test: Vec<Module> = corpus
        .programs
        .iter()
        .rev()
        .take(ablation_test_n)
        .map(|p| p.module.clone())
        .collect();
    let ab_test_o3: Vec<u64> = o3.iter().rev().take(ablation_test_n).copied().collect();
    let arms: Vec<FeatureSet> = match only_features {
        Some(set) => vec![set],
        None => vec![FeatureSet::Table2, FeatureSet::Structural],
    };
    let results: Vec<AblationArm> = arms
        .into_iter()
        .map(|set| ablation_arm(set, &ab_train, &ab_test, &ab_test_o3, ablation_iters))
        .collect();
    for arm in &results {
        eprintln!(
            "corpus_bench: ablation {}: unseen improvement {:.4}, 1-compilation rate {:.3}",
            arm.set.name(),
            arm.mean_improvement,
            arm.one_compilation_rate
        );
    }

    let _ = std::fs::remove_file(&store_path);
    let _ = std::fs::remove_file(&ckpt_path);

    // ---- BENCH_corpus.json.
    let ablation_json: Vec<String> = results
        .iter()
        .map(|a| {
            format!(
                "{{ \"features\": \"{}\", \"obs_dim\": {}, \"train_secs\": {:.1}, \
                 \"unseen_mean_improvement_over_o3\": {:.6}, \"one_compilation_rate\": {:.4} }}",
                a.set.name(),
                a.obs_dim,
                a.train_secs,
                a.mean_improvement,
                a.one_compilation_rate
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"corpus_bench\",\n  \"scale\": \"{scale:?}\",\n  \
         \"corpus\": {{ \"programs\": {target}, \"generated\": {}, \"build_secs\": {build_secs:.1}, \
         \"manifest_bytes\": {manifest_bytes}, \"base_seed\": {} }},\n  \
         \"cold\": {{ \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"reqs_per_sec\": {:.1}, \
         \"mean_improvement_over_o3\": {:.6}, \"one_compilation_rate\": {:.4}, \"dropped\": 0 }},\n  \
         \"warm\": {{ \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \"reqs_per_sec\": {:.1}, \
         \"store_misses\": {} }},\n  \
         \"stage_ns\": {stage_ns},\n  \
         \"store\": {{ \"entries\": {store_entries}, \"log_bytes\": {store_bytes}, \
         \"reopen_ms\": {reopen_ms:.1} }},\n  \
         \"ablation\": {{ \"train_programs\": {ablation_train_n}, \"test_programs\": {ablation_test_n}, \
         \"arms\": [{}] }}\n}}\n",
        corpus.generated,
        corpus.cfg.base_seed,
        cold.p50_ms,
        cold.p99_ms,
        cold.reqs_per_sec,
        cold.mean_improvement_over_o3,
        cold.one_compilation_rate,
        warm.p50_ms,
        warm.p99_ms,
        warm.reqs_per_sec,
        warm.store_misses,
        ablation_json.join(", ")
    );
    print!("{json}");
    match std::fs::write("BENCH_corpus.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_corpus.json"),
        Err(e) => eprintln!("could not write BENCH_corpus.json: {e}"),
    }
    telemetry.finish();
}
