//! End-to-end drills of the online-learning subsystem on a live daemon:
//! the background learner publishing and auto-promoting versions, the
//! replay gate refusing versions that do not beat the serving policy,
//! the admin-gated `PROMOTE`/`MODEL` verbs, the chaos leg —
//! corrupt and NaN candidates being quarantined while the old policy
//! keeps answering every request — and the swap drill: 20 promotions
//! under live cold load with no request dropped.
//!
//! This is the test `make online-smoke` runs.

use autophase_benchmarks::suite;
use autophase_nn::mlp::{Activation, Mlp};
use autophase_rl::checkpoint::{Algo, PolicyCheckpoint};
use autophase_rl::registry::ModelRegistry;
use autophase_serve::client::{Client, ClientError};
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::learner::LearnerConfig;
use autophase_serve::protocol::{ErrKind, Source};
use autophase_serve::server::{Server, ServerConfig};
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
        learner: Some(LearnerConfig {
            // One episode (SERVE_EPISODE_LEN transitions) per update,
            // publish every update: versions appear immediately.
            min_batch: autophase_serve::SERVE_EPISODE_LEN,
            publish_every: 1,
            auto_promote: true,
            ..LearnerConfig::default()
        }),
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
        promoted.samples >= autophase_serve::SERVE_EPISODE_LEN as u64,
        "published version carries its sample count"
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

/// The replay gate on a live daemon: booted from a policy the fresh
/// learner does not beat on the programs it serves (seed 22: Σ ln cycles
/// 68.94 over CHStone against the fresh agent's 70.11), auto-promotion
/// refuses the learner's versions. Every compile keeps answering from
/// the boot policy, and a refused version stays listed — valid, just
/// not better.
#[test]
fn auto_promotion_refuses_a_version_that_does_not_beat_serving() {
    let store = tmp("replay.log");
    let registry_dir = tmp("replay_registry");
    let cfg = ServerConfig {
        store_path: store.clone(),
        registry_dir: Some(registry_dir.clone()),
        learner: Some(LearnerConfig {
            // One version per round of the nine programs, so the first
            // is replayed over all of them.
            min_batch: 9 * autophase_serve::SERVE_EPISODE_LEN,
            publish_every: 1,
            auto_promote: true,
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(test_policy(22), cfg).expect("server starts");
    let mut client = connect(server.addr());

    let progs = programs();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut round = 0u32;
    let refused = loop {
        assert!(
            Instant::now() < deadline,
            "no refused version after {round} rounds"
        );
        for (i, ir) in progs.iter().enumerate() {
            let fresh = renamed(ir, &format!("replay_r{round}p{i}"));
            let reply = client
                .compile(&fresh, Some(60_000), false)
                .expect("cold compile under the replay gate");
            assert_eq!(reply.source, Source::Policy);
        }
        round += 1;
        let snap = client.models().expect("MODEL answers");
        assert_eq!(
            snap.serving,
            Some(0),
            "a version that does not beat v0 swapped in"
        );
        // The learner judges each version before it publishes the next,
        // so with two listed the older one was refused.
        let rejected = client.stats().expect("STATS answers");
        if snap.versions.len() >= 2 && rejected.counter("serve.swap", "rejected_replay") >= 1 {
            break snap.versions[0];
        }
    };
    assert!(!refused.serving);
    assert!(registry_dir
        .join(format!("v{}.ckpt", refused.version))
        .exists());
    assert!(!registry_dir
        .join(format!("v{}.ckpt.quarantined", refused.version))
        .exists());

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
