//! Tier-1's one look at a live daemon: an in-process `Server` on
//! `127.0.0.1:0`, the same text compiled twice. The second answer must
//! come from the store, equal the first, and have skipped the front end
//! (`serve.front{hit}`). The heavier serve suites stay behind
//! `make serve-smoke`.
//!
//! A single test on purpose: it reads the process-wide telemetry
//! registry, which no other test in this binary may touch.

use autophase::{benchmarks, ir, nn, telemetry};
use autophase_serve::engine::{serve_num_actions, serve_obs_dim};
use autophase_serve::{Client, Server, ServerConfig, Source};

#[test]
fn a_repeated_text_is_served_from_the_memo_and_the_store() {
    telemetry::reset();
    let store = std::env::temp_dir().join(format!(
        "autophase_serve_warm_path_{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let policy = nn::mlp::Mlp::new(&[serve_obs_dim(), 32, serve_num_actions()], 7);
    let server = Server::start(
        policy,
        ServerConfig {
            store_path: store.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let text = ir::printer::print_module(&benchmarks::kernels::matmul());

    let mut client = Client::connect(server.addr()).expect("connect");
    let first = client.compile(&text, Some(120_000), false).expect("cold");
    assert_eq!(first.source, Source::Policy);
    let second = client.compile(&text, Some(120_000), false).expect("warm");
    assert_eq!(second.source, Source::Store);
    assert_eq!(
        (&second.passes, second.cycles, second.baseline_cycles),
        (&first.passes, first.cycles, first.baseline_cycles)
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.counter("serve.front", "miss"), 1);
    assert_eq!(stats.counter("serve.front", "hit"), 1);
    assert_eq!(stats.counter("serve.front", "evicted"), 0);
    assert!(stats.gauge("serve.front_bytes", "") >= text.len() as f64);

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&store);
}
