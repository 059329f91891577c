//! End-to-end drills of the online-learning subsystem on a live daemon:
//! the background learner publishing and auto-promoting versions, the
//! replay gate as the only way serving changes, a `PROMOTE` moving the
//! learner onto the promoted policy, the admin-gated `PROMOTE`/`MODEL`
//! verbs, the chaos leg — corrupt and NaN candidates being quarantined
//! while the old policy keeps answering every request — the swap drill:
//! 20 promotions under live cold load with no request dropped — and, in
//! release only, whether the learner earns promotions on 500 unseen
//! programs served by a trained 256×256 policy.
//!
//! This is the test `make online-smoke` runs.

use autophase_benchmarks::suite;
use autophase_core::compile::{o3_cycles, Input};
use autophase_core::eval_cache::fingerprint_module;
use autophase_core::{EvalCache, Quarantine};
use autophase_corpus::{build_corpus, CorpusConfig};
use autophase_hls::HlsConfig;
use autophase_ir::printer::print_module;
use autophase_ir::Module;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_rl::checkpoint::{Algo, ArmoredLoad, PolicyCheckpoint};
use autophase_rl::env::Environment;
use autophase_rl::ppo::{PpoAgent, PpoConfig};
use autophase_rl::registry::ModelRegistry;
use autophase_rl::rollout::{collect_episodes_parallel, episode_seed};
use autophase_serve::client::{Client, ClientError};
use autophase_serve::engine::{
    serve_env, serve_num_actions, serve_obs_dim, EngineConfig, InferenceEngine, SERVE_EPISODE_LEN,
};
use autophase_serve::learner::LearnerConfig;
use autophase_serve::protocol::{ErrKind, Source};
use autophase_serve::server::{Server, ServerConfig};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("autophase_online_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

fn test_policy(seed: u64) -> Mlp {
    Mlp::new(
        &[serve_obs_dim(), 32, serve_num_actions()],
        Activation::Tanh,
        seed,
    )
}

/// Cold-compile one fresh copy of every CHStone program, tagged `tag`:
/// each answer comes from the policy, so each is one learner episode.
fn cold_round(client: &mut Client, progs: &[String], tag: &str) {
    for (i, ir) in progs.iter().enumerate() {
        let fresh = renamed(ir, &format!("{tag}p{i}"));
        let reply = client
            .compile(&fresh, Some(60_000), false)
            .unwrap_or_else(|e| panic!("{tag} p{i}: cold compile failed: {e}"));
        assert_eq!(reply.source, Source::Policy, "{tag} p{i} fell off policy");
    }
}

fn test_ckpt(seed: u64) -> PolicyCheckpoint {
    PolicyCheckpoint {
        algo: Algo::Ppo,
        policy: test_policy(seed),
        value: Mlp::new(&[serve_obs_dim(), 8, 1], Activation::Tanh, seed ^ 0xF00),
    }
}

fn programs() -> Vec<String> {
    suite()
        .into_iter()
        .map(|b| autophase_ir::printer::print_module(&b.module))
        .collect()
}

/// Reprint `ir` under a new module name, so its fingerprint is fresh to
/// the store and the compile goes down the cold (policy) path.
fn renamed(ir: &str, tag: &str) -> String {
    let mut m = autophase_ir::parser::parse_module(ir).unwrap();
    m.name = format!("{}__{tag}", m.name);
    autophase_ir::printer::print_module(&m)
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

/// The tentpole loop closed end-to-end: cold compiles stream experience
/// to the in-daemon learner, which trains, publishes versions into the
/// registry, and auto-promotes them into the live engine — all while
/// the request path keeps answering.
#[test]
fn learner_trains_publishes_and_auto_promotes() {
    let store = tmp("learn.log");
    let registry_dir = tmp("learn_registry");
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        learner: Some(LearnerConfig { auto_promote: true }),
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(7), cfg).expect("server starts");
    let addr = server.addr();
    let mut client = connect(addr);

    let progs = programs();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut round = 0u32;
    let promoted = loop {
        assert!(
            Instant::now() < deadline,
            "no auto-promotion after {round} rounds"
        );
        for (i, ir) in progs.iter().enumerate() {
            let fresh = renamed(ir, &format!("r{round}p{i}"));
            let reply = client
                .compile(&fresh, Some(60_000), false)
                .expect("cold compile during online learning");
            assert_eq!(reply.source, Source::Policy);
        }
        round += 1;
        let snap = client.models().expect("MODEL answers");
        assert!(snap.registry, "registry must be on");
        if let Some(v) = snap.serving.filter(|&v| v > 0) {
            break snap.version(v).copied().expect("serving version listed");
        }
    };
    assert!(promoted.serving, "serving flag set on the promoted line");
    assert!(
        promoted.samples >= 2 * 96,
        "published version carries its sample count (two updates of 96)"
    );

    // The promoted version now answers requests and its per-version
    // counters move. The learner keeps promoting while we look, so the
    // serving version can advance between a compile and the `MODEL`
    // after it: compile and look again until the version serving at the
    // instant of the `MODEL` call is one that has answered a request.
    let mut post = 0usize;
    let snap = loop {
        assert!(
            Instant::now() < deadline,
            "no serving version was attributed a request in {post} compiles"
        );
        let fresh = renamed(&progs[post % progs.len()], &format!("post{post}"));
        client
            .compile(&fresh, Some(60_000), false)
            .expect("post-promotion compile");
        post += 1;
        let snap = client.models().expect("MODEL answers");
        let serving = snap.serving.expect("still serving a policy");
        assert!(serving > 0);
        if snap
            .version(serving)
            .expect("serving line present")
            .requests
            > 0
        {
            break snap;
        }
    };
    assert!(snap.swaps >= 1, "engine counted the hot-swap");

    // The registry survives the daemon: reopen it directly.
    server.shutdown();
    let reg = ModelRegistry::open(&registry_dir).expect("registry reopens");
    assert!(!reg.versions().is_empty(), "published versions persisted");
    assert!(reg.active().is_some(), "active pointer persisted");
    let _ = std::fs::remove_dir_all(&registry_dir);
    let _ = std::fs::remove_file(&store);
}

/// The replay gate on a live daemon booted from the seed-22 policy:
/// every version the learner publishes is either promoted through the
/// gate or refused and left listed, none is quarantined, and serving only
/// ever moves to a newer published version, one counted swap at a time —
/// while every compile keeps answering from the policy.
#[test]
fn auto_promotion_changes_serving_only_through_the_replay_gate() {
    let store = tmp("replay.log");
    let registry_dir = tmp("replay_registry");
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        learner: Some(LearnerConfig { auto_promote: true }),
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(22), cfg).expect("server starts");
    let mut client = connect(server.addr());

    let progs = programs();
    let deadline = Instant::now() + Duration::from_secs(60);
    let (mut serving, mut swaps) = (0u64, 0u64);
    let mut round = 0u32;
    loop {
        assert!(
            Instant::now() < deadline,
            "fewer than two versions after {round} rounds"
        );
        cold_round(&mut client, &progs, &format!("replay_r{round}"));
        round += 1;
        let snap = client.models().expect("MODEL answers");
        let now = snap.serving.expect("a policy serves");
        let published = snap.versions.iter().map(|v| v.version).max().unwrap_or(0);
        assert!(snap.swaps <= published, "more swaps than versions");
        if now == serving {
            assert_eq!(snap.swaps, swaps, "a swap left v{now} serving");
        } else {
            assert!(now > serving, "serving went back from v{serving} to v{now}");
            assert!(snap.swaps > swaps, "v{now} serves without a swap");
            assert!(snap.version(now).is_some_and(|v| v.serving));
        }
        (serving, swaps) = (now, snap.swaps);
        if published >= 2 {
            break;
        }
    }
    server.shutdown();

    let reg = ModelRegistry::open(&registry_dir).expect("registry reopens");
    let listed: Vec<u64> = reg.versions().iter().map(|v| v.version).collect();
    let published = reg.latest().expect("versions published");
    assert_eq!(
        listed,
        (1..=published).collect::<Vec<_>>(),
        "all still listed"
    );
    for v in &listed {
        assert!(registry_dir.join(format!("v{v}.ckpt")).exists());
        assert!(!registry_dir.join(format!("v{v}.ckpt.quarantined")).exists());
    }
    // The active pointer moves only with a promotion (the drain at
    // shutdown may have judged a few more versions).
    if swaps > 0 {
        assert!(
            reg.active() >= Some(serving),
            "v{serving} served unpromoted"
        );
    }
    assert!(reg.active().is_none_or(|v| listed.contains(&v)));
    let _ = std::fs::remove_dir_all(&registry_dir);
    let _ = std::fs::remove_file(&store);
}

/// The newest version listed on `client`'s daemon; 0 when none is.
fn newest(client: &mut Client) -> u64 {
    let snap = client.models().expect("MODEL answers");
    snap.versions.iter().map(|v| v.version).max().unwrap_or(0)
}

/// An operator `PROMOTE` of a version the learner did not publish moves
/// the learner's base. Before it, the learner's versions have the boot
/// policy's shape (32 hidden units); after it, its newest version
/// descends from the promoted network — 17 hidden units, a width no
/// other network here has — not from the lineage it was training.
#[test]
fn a_promote_moves_the_learners_base() {
    let registry_dir = tmp("rebase_registry");
    let net = |hidden: usize| {
        let shape = [serve_obs_dim(), hidden, serve_num_actions()];
        Mlp::new(&shape, Activation::Tanh, 17)
    };
    {
        let mut reg = ModelRegistry::open(&registry_dir).unwrap();
        let ckpt = PolicyCheckpoint {
            policy: net(17),
            ..test_ckpt(17)
        };
        assert_eq!(reg.publish(&ckpt, 10, 1).unwrap(), 1);
    }
    let store = tmp("rebase.log");
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        admin: true,
        learner: Some(LearnerConfig {
            auto_promote: false,
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(7), cfg).expect("server starts");
    let mut client = connect(server.addr());
    let progs = programs();
    let policy_size = |v: u64| {
        let path = registry_dir.join(format!("v{v}.ckpt"));
        PolicyCheckpoint::load(&path)
            .map(|c| c.policy.num_parameters())
            .ok()
    };

    let deadline = Instant::now() + Duration::from_secs(60);
    let mut round = 0u32;
    while newest(&mut client) < 2 {
        assert!(
            Instant::now() < deadline,
            "nothing published in {round} rounds"
        );
        cold_round(&mut client, &progs, &format!("rebase_a{round}"));
        round += 1;
    }
    assert_eq!(
        policy_size(2),
        Some(net(32).num_parameters()),
        "v2 does not descend from the boot policy"
    );

    client.promote(1).expect("v1 promotes");
    loop {
        assert!(
            Instant::now() < deadline,
            "no version descends from v1 after {round} rounds"
        );
        cold_round(&mut client, &progs, &format!("rebase_b{round}"));
        round += 1;
        let v = newest(&mut client);
        if v > 2 && policy_size(v) == Some(net(17).num_parameters()) {
            break;
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&registry_dir);
    let _ = std::fs::remove_file(&store);
}

/// Admin gating: a daemon without `admin` refuses `PROMOTE` with a
/// typed `bad_request`, and `MODEL` still answers (introspection is
/// never admin-gated).
#[test]
fn promote_is_admin_gated() {
    let registry_dir = tmp("gated_registry");
    {
        let mut reg = ModelRegistry::open(&registry_dir).unwrap();
        reg.publish(&test_ckpt(5), 10, 1).unwrap();
    }
    let store = tmp("gated.log");
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        admin: false,
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(7), cfg).expect("server starts");
    let mut client = connect(server.addr());

    match client.promote(1) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrKind::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }
    let snap = client.models().expect("MODEL answers without admin");
    assert_eq!(snap.serving, Some(0), "boot policy untouched");
    assert_eq!(snap.swaps, 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&registry_dir);
    let _ = std::fs::remove_file(&store);
}

/// The chaos leg of the acceptance criteria: a candidate corrupted on
/// disk mid-promotion (real bytes destroyed via `CHAOS swap=1`) is
/// quarantined and refused; a NaN-poisoned candidate is caught by
/// validation and quarantined too. Through both, the old policy keeps
/// serving every request — corruption never reaches the engine.
#[test]
fn corrupt_and_nan_candidates_never_degrade_serving() {
    let registry_dir = tmp("chaos_registry");
    {
        let mut reg = ModelRegistry::open(&registry_dir).unwrap();
        // v1: chaos victim.
        reg.publish(&test_ckpt(31), 10, 1).unwrap();
        // v2: decodes fine but is NaN-poisoned — must fail validation.
        let mut poisoned = test_ckpt(32);
        let mut params = poisoned.policy.parameters();
        params[0] = f64::NAN;
        poisoned.policy.set_parameters(&params);
        reg.publish(&poisoned, 20, 2).unwrap();
        reg.publish(&test_ckpt(33), 30, 3).unwrap(); // v3: healthy
    }
    let store = tmp("chaos.log");
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        admin: true,
        chaos: true,
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(7), cfg).expect("server starts");
    let mut client = connect(server.addr());
    let progs = programs();

    let assert_serving = |client: &mut Client, tag: &str| {
        for (i, ir) in progs.iter().enumerate() {
            let fresh = renamed(ir, &format!("{tag}{i}"));
            let reply = client
                .compile(&fresh, Some(60_000), false)
                .unwrap_or_else(|e| panic!("{tag} p{i}: serving degraded: {e}"));
            assert_eq!(reply.source, Source::Policy, "{tag} p{i} fell off policy");
        }
    };

    // Leg 1: real on-disk corruption injected mid-promotion.
    client.chaos_swap(1).expect("arm swap corruption");
    match client.promote(1) {
        Err(ClientError::Server { kind, msg, .. }) => {
            assert_eq!(kind, ErrKind::Internal, "corrupt candidate: {msg}");
        }
        other => panic!("corrupt candidate must refuse, got {other:?}"),
    }
    assert!(
        registry_dir.join("v1.ckpt.quarantined").exists(),
        "corrupt candidate quarantined for forensics"
    );
    assert_serving(&mut client, "after_corrupt");

    // The quarantined version is gone from the history: promoting it
    // again is a bad request, not another quarantine.
    match client.promote(1) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrKind::BadRequest),
        other => panic!("dropped version must refuse, got {other:?}"),
    }

    // Leg 2: the NaN candidate decodes but fails validation.
    match client.promote(2) {
        Err(ClientError::Server { kind, msg, .. }) => {
            assert_eq!(kind, ErrKind::Internal, "NaN candidate: {msg}");
        }
        other => panic!("NaN candidate must refuse, got {other:?}"),
    }
    assert_serving(&mut client, "after_nan");

    // The engine never swapped: still the boot policy.
    let snap = client.models().expect("MODEL answers");
    assert_eq!(snap.serving, Some(0), "bad candidates must not swap");
    assert_eq!(snap.swaps, 0);

    // Leg 3: the healthy candidate promotes cleanly after both failures.
    client.promote(3).expect("healthy candidate promotes");
    let snap = client.models().expect("MODEL answers");
    assert_eq!(snap.serving, Some(3));
    assert_eq!(snap.swaps, 1);
    assert_serving(&mut client, "after_promote");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&registry_dir);
    let _ = std::fs::remove_file(&store);
}

/// The swap drill: four clients compile cold (fresh names every
/// iteration, so every request crosses the engine) while the admin does
/// 20 `PROMOTE` round-trips alternating two healthy versions, then
/// `CHAOS swap=1` destroys the next candidate mid-promotion. No
/// background request may fail across any of it, the corrupt candidate
/// must refuse and quarantine, and the version serving before it must
/// still be the one serving after.
#[test]
fn twenty_promotions_under_load_drop_nothing_and_a_corrupt_candidate_is_refused() {
    const SWAPS: usize = 20;
    const WORKERS: usize = 4;

    let store = tmp("swap.log");
    let registry_dir = tmp("swap_registry");
    {
        let mut reg = ModelRegistry::open(&registry_dir).expect("registry opens");
        reg.publish(&test_ckpt(1), 100, 1).expect("publish v1");
        reg.publish(&test_ckpt(2), 200, 2).expect("publish v2");
        reg.publish(&test_ckpt(3), 300, 3).expect("publish v3");
    }
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        admin: true,
        chaos: true,
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(0x0B11_BEEF), cfg).expect("swap daemon starts");
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let answered = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let stop = Arc::clone(&stop);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let progs = programs();
                let mut client = connect(addr);
                let mut it = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for (i, ir) in progs.iter().enumerate() {
                        let fresh = renamed(ir, &format!("w{w}i{it}p{i}"));
                        client
                            .compile(&fresh, Some(60_000), false)
                            .unwrap_or_else(|e| {
                                panic!("worker {w} iter {it} p{i}: request dropped: {e}")
                            });
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    it += 1;
                }
            })
        })
        .collect();

    let mut admin = connect(addr);
    for s in 0..SWAPS {
        let v = 1 + (s as u64 & 1); // alternate v1 / v2
        admin
            .promote(v)
            .unwrap_or_else(|e| panic!("swap {s} to v{v} failed: {e}"));
        std::thread::sleep(Duration::from_millis(5));
    }

    admin.chaos_swap(1).expect("arm swap corruption");
    assert!(
        admin.promote(3).is_err(),
        "corrupt candidate must refuse promotion"
    );
    assert!(
        registry_dir.join("v3.ckpt.quarantined").exists(),
        "corrupt candidate must quarantine for forensics"
    );
    let snap = admin.models().expect("MODEL answers");
    assert_eq!(
        snap.serving,
        Some(2),
        "corruption must not change the serving version"
    );
    assert_eq!(snap.swaps, SWAPS as u64, "every healthy promotion swapped");

    // Let the load run a beat past the failed promotion, then stop. A
    // failed background request panicked its worker: the join reports it.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker thread survives the drill");
    }
    assert!(
        answered.load(Ordering::Relaxed) > 0,
        "background load must have run"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&registry_dir);
    let _ = std::fs::remove_file(&store);
}

/// Seed of the benchmark's reference policy: its weights, its rollouts
/// and its 16 corpus training programs.
const POLICY_SEED: u64 = 12;

/// `count` distinct corpus programs, drawn the way the benchmark draws
/// them for `seed`: the corpus base seed is SplitMix64's first output
/// from `seed ^ 0xC0_2B05`.
fn corpus(seed: u64, count: usize) -> Vec<Module> {
    let mut z = (seed ^ 0xC0_2B05).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let corpus = build_corpus(&CorpusConfig {
        base_seed: z ^ (z >> 31),
        target: count,
        workers: 2,
        ..CorpusConfig::default()
    });
    assert_eq!(corpus.programs.len(), count, "corpus dedup fell short");
    corpus.programs.into_iter().map(|p| p.module).collect()
}

/// The benchmark's reference policy: PPO with `PpoConfig::default()`
/// (256×256) under `serve_env` on `train`, 45 iterations of 4 episodes
/// collected by two workers sharing one `EvalCache`.
fn reference_policy(train: &[Module]) -> Mlp {
    let cache = Arc::new(EvalCache::default());
    let mut envs: Vec<Box<dyn Environment + Send>> = (0..2)
        .map(|_| {
            let mut env = serve_env(train.to_vec());
            env.set_cache(Arc::clone(&cache));
            Box::new(env) as Box<dyn Environment + Send>
        })
        .collect();
    let mut agent = PpoAgent::new(
        serve_obs_dim(),
        serve_num_actions(),
        &PpoConfig::default(),
        POLICY_SEED,
    );
    for i in 0..45 {
        let batch = collect_episodes_parallel(
            &mut envs,
            &agent.policy,
            &agent.value,
            4,
            i * 4,
            SERVE_EPISODE_LEN,
            episode_seed(POLICY_SEED, i),
        );
        agent.update(&batch);
    }
    agent.policy
}

/// Geomean speedup over -O3 (`o3`, cycles per program) of `policy`'s
/// greedy answers on `programs`, profiled as the daemon profiles and
/// scored by the one rule.
fn geomean_vs_o3(policy: &Mlp, programs: &[Module], o3: &[u64]) -> f64 {
    let engine = InferenceEngine::start(policy.clone(), EngineConfig::default()).unwrap();
    let cfg = ServerConfig::default();
    let hls = HlsConfig::default().with_profile_fuel(cfg.profile_fuel);
    let ln_sum: f64 = programs
        .iter()
        .zip(o3)
        .map(|(program, &o3)| {
            let mut m = program.clone();
            let fp = fingerprint_module(program);
            engine
                .choose_sequence_report(&mut m, fp, &Quarantine::default(), &cfg.fuel)
                .expect("the policy answers");
            (o3.max(1) as f64 / Input::new(program, &hls).score(&m).max(1) as f64).ln()
        })
        .sum();
    (ln_sum / programs.len() as f64).exp()
}

/// The learner earns promotions: a `--learn --auto-promote` daemon with
/// an empty registry, booted from the benchmark's reference policy,
/// serves 500 corpus programs that policy never trained on, one at a
/// time. After the shutdown drains the learner, the registry must have
/// an active version — only a promotion through the replay gate sets
/// one. Prints the geomean speedup over -O3 of the boot policy and of
/// that version on 100 further held-out programs.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: trains a 256x256 policy and serves 500 programs"
)]
fn the_learner_earns_a_promotion_on_500_unseen_programs() {
    let mut train: Vec<Module> = suite().into_iter().map(|b| b.module).collect();
    train.extend(corpus(POLICY_SEED, 16));
    let seen: HashSet<u64> = train.iter().map(fingerprint_module).collect();
    let mut served = corpus(1, 600 + 16);
    served.retain(|m| !seen.contains(&fingerprint_module(m)));
    served.truncate(600);
    assert_eq!(
        served.len(),
        600,
        "too many collisions with the training set"
    );
    let held_out = served.split_off(500);
    let boot = reference_policy(&train);

    // Process-wide: exact only when this test runs alone.
    let [promoted, refused] = ["promoted_auto", "rejected_replay"]
        .map(|label| autophase_telemetry::counter("serve.swap", label));
    let before = [promoted.value(), refused.value()];
    let store = tmp("earn.log");
    let registry_dir = tmp("earn_registry");
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        learner: Some(LearnerConfig { auto_promote: true }),
        ..ServerConfig::default()
    };
    let server = Server::start(boot.clone(), cfg).expect("server starts");
    let mut client = connect(server.addr());
    for (i, program) in served.iter().enumerate() {
        client
            .compile(&print_module(program), Some(60_000), false)
            .unwrap_or_else(|e| panic!("program {i}: {e}"));
    }
    server.shutdown();

    let mut reg = ModelRegistry::open(&registry_dir).expect("registry reopens");
    let published = reg.latest().unwrap_or(0);
    let active = reg.active();
    let Some(ArmoredLoad::Loaded(ckpt)) = active.map(|v| reg.load_armored(v)) else {
        panic!("none of {published} published versions passed the replay gate");
    };
    let hls = HlsConfig::default().with_profile_fuel(ServerConfig::default().profile_fuel);
    let o3: Vec<u64> = held_out.iter().map(|m| o3_cycles(m, &hls)).collect();
    println!(
        "online learner: {published} versions published, serve.swap{{promoted_auto}} +{} \
         {{rejected_replay}} +{} (process-wide); held-out geomean vs -O3: boot {:.4}, \
         active v{} {:.4}",
        promoted.value() - before[0],
        refused.value() - before[1],
        geomean_vs_o3(&boot, &held_out, &o3),
        active.unwrap_or(0),
        geomean_vs_o3(&ckpt.policy, &held_out, &o3),
    );
    let _ = std::fs::remove_dir_all(&registry_dir);
    let _ = std::fs::remove_file(&store);
}
