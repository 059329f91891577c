//! Train a generalist PPO agent on random programs and apply it, one
//! compilation per program, to the real benchmark suite — the paper's
//! §6.2 generalization workflow in miniature.
//!
//! ```sh
//! cargo run --release --example train_generalist
//! ```

use autophase::core::compile::o3_cycles;
use autophase::core::env::FeatureNorm;
use autophase::core::experiment::{infer_sequence, train_generalist};
use autophase::hls::HlsConfig;
use autophase::progen::{program_batch, GenConfig};

fn main() {
    let hls = HlsConfig::default();

    println!("generating training programs (CSmith stand-in)…");
    let train = program_batch(&GenConfig::default(), 2024, 8);

    println!("training filtered-norm2 PPO generalist…");
    let (agent, env_cfg) = train_generalist(&train, FeatureNorm::InstCount, true, 6, 7);

    println!("\none-shot inference on the nine benchmarks:");
    println!(
        "{:<12} {:>10} {:>10} {:>8}  sequence",
        "benchmark", "-O3", "agent", "vs -O3"
    );
    let mut total = 0.0;
    let suite = autophase::benchmarks::suite();
    let n = suite.len();
    for b in suite {
        let o3 = o3_cycles(&b.module, &hls);
        let (seq, cycles) = infer_sequence(&agent, &env_cfg, &b.module);
        let imp = (o3 as f64 - cycles as f64) / o3 as f64;
        total += imp;
        let names: Vec<&str> = seq
            .iter()
            .take(6)
            .map(|&p| autophase::passes::registry::pass_name(p))
            .collect();
        println!(
            "{:<12} {:>10} {:>10} {:>7.1}%  {}…",
            b.name,
            o3,
            cycles,
            imp * 100.0,
            names.join(" ")
        );
    }
    println!(
        "\nmean improvement over -O3: {:+.1}%",
        total / n as f64 * 100.0
    );
}
