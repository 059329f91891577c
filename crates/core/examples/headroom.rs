//! Per-benchmark headroom probe: how much better than `-O3` can the
//! black-box searches get with paper-scale budgets? (A diagnostic used
//! while calibrating Figure 7; kept as a handy standalone utility.) Each
//! search prints the samples it cost: profiler runs on distinct modules.
//!
//! ```sh
//! cargo run --release -p autophase-core --example headroom
//! ```

use autophase_core::algorithms::{search, Algorithm};
use autophase_core::compile::Input;
use autophase_hls::HlsConfig;
use autophase_passes::o3::O3_SEQUENCE;
use autophase_search::Objective;

fn main() {
    let hls = HlsConfig::default();
    for b in autophase_benchmarks::suite() {
        let mut reference = Input::new(&b.module, &hls);
        let o3 = reference.cycles(O3_SEQUENCE) as f64;
        let run = |algorithm, budget, seed| {
            let mut input = reference.fork();
            let mut obj = Objective::new(|seq: &[usize]| input.cycles(seq) as f64);
            let best = search(algorithm, &mut obj, 45, budget, seed).best_cost;
            drop(obj);
            format!(
                "{:<6} ({:+.1}%, {} smp)",
                best as u64,
                (o3 - best) / o3 * 100.0,
                input.samples()
            )
        };
        println!(
            "{:<10} o3={:<6} greedy={} ga={}",
            b.name,
            o3 as u64,
            run(Algorithm::Greedy, 2484, 0),
            run(Algorithm::GeneticDeap, 6080, 3)
        );
    }
}
