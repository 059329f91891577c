//! Optimize for circuit *area* instead of speed — the §5.1 alternative
//! objective ("the reward could be defined as the negative of the area"),
//! plus a weighted speed/area trade-off sweep.
//!
//! ```sh
//! cargo run --release --example area_objective [benchmark-name]
//! ```

use autophase::core::compile::compile;
use autophase::core::env::{EnvConfig, Objective, PhaseOrderEnv};
use autophase::hls::{profile::profile_module, HlsConfig};
use autophase::rl::env::Environment;
use autophase::search::{greedy, Objective as SearchObjective};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "aes".to_string());
    let program = autophase::benchmarks::suite::by_name(&name).expect("known benchmark name");
    let hls = HlsConfig::default();

    let stats = |m: &autophase::ir::Module| {
        let r = profile_module(m, &hls).expect("profiles");
        (r.cycles, r.area.total())
    };
    let (c0, a0) = stats(&program);
    println!("`{name}` unoptimized: {c0} cycles, {a0} area units\n");

    // Greedy search under three different objectives.
    for (label, objective) in [
        ("min cycles", Objective::Cycles),
        ("min area", Objective::Area),
        (
            "weighted 50/50",
            Objective::Weighted {
                cycle_weight: 1.0,
                area_weight: (c0 as f64) / (a0 as f64), // balance the scales
            },
        ),
    ] {
        let cfg = EnvConfig {
            objective,
            ..EnvConfig::default()
        };
        let mut obj = SearchObjective::new(|seq: &[usize]| {
            // Re-evaluate the chosen objective for a whole sequence.
            let mut env = PhaseOrderEnv::single(program.clone(), cfg.clone());
            env.reset();
            for &p in seq {
                env.step(p);
            }
            env.last_cycles() as f64
        });
        let r = greedy::search(&mut obj, 45, 10, 400, None);
        // Report both metrics for the found ordering.
        let (m, _, _) = compile(&program, &r.best_sequence, &cfg.fuel, &hls);
        let (c, a) = stats(&m);
        let seq_names: Vec<&str> = r
            .best_sequence
            .iter()
            .map(|&p| autophase::passes::registry::pass_name(p))
            .collect();
        println!(
            "{label:<16} → {c:>6} cycles ({:+5.1}%), {a:>6} area ({:+5.1}%)",
            (c0 as f64 - c as f64) / c0 as f64 * 100.0,
            (a0 as f64 - a as f64) / a0 as f64 * 100.0,
        );
        println!("                 ordering: {}\n", seq_names.join(" "));
    }
}
