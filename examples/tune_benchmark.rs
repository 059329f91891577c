//! Tune a CHStone-style benchmark with every strategy and compare:
//! -O0, -O3, insertion greedy, the OpenTuner-style ensemble, and a PPO
//! agent — the workflow of the paper's Figure 7 for one program.
//!
//! ```sh
//! cargo run --release --example tune_benchmark [benchmark-name]
//! ```

use autophase::core::algorithms::{run_algorithm, Algorithm, Budget};
use autophase::core::compile::Input;
use autophase::hls::HlsConfig;
use autophase::passes::o3::O3_SEQUENCE;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "gsm".to_string());
    let program = autophase::benchmarks::suite::by_name(&name).unwrap_or_else(|| {
        panic!(
            "unknown benchmark {name}; try adpcm/aes/blowfish/dhrystone/gsm/matmul/mpeg2/qsort/sha"
        )
    });
    let mut reference = Input::new(&program, &HlsConfig::default());
    let o3 = reference.cycles(O3_SEQUENCE);
    let budget = Budget::default();

    println!("tuning `{name}` at 200 MHz\n");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "algorithm", "cycles", "vs -O3", "samples"
    );
    for alg in [
        Algorithm::O0,
        Algorithm::O3,
        Algorithm::Greedy,
        Algorithm::OpenTuner,
        Algorithm::RlPpo2,
    ] {
        let r = run_algorithm(alg, &reference, o3, &budget, 1);
        println!(
            "{:<14} {:>10} {:>9.1}% {:>10}",
            alg.name(),
            r.cycles,
            r.improvement_over_o3 * 100.0,
            r.samples
        );
    }
}
