//! Per-benchmark headroom probe: how much better than `-O3` can the
//! black-box searches get with paper-scale budgets? (A diagnostic used
//! while calibrating Figure 7; kept as a handy standalone utility.)
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
        let input = Input::new(&b.module, &hls);
        let o3 = input.cycles(O3_SEQUENCE);
        let mut obj = Objective::new(|seq: &[usize]| input.cycles(seq) as f64);
        let g = search(Algorithm::Greedy, &mut obj, 45, 2484, 0);
        let mut obj2 = Objective::new(|seq: &[usize]| input.cycles(seq) as f64);
        let ga = search(Algorithm::GeneticDeap, &mut obj2, 45, 6080, 3);
        println!(
            "{:<10} o3={:<6} greedy={:<6} ({:+.1}%, {} smp) ga={:<6} ({:+.1}%, {} smp)",
            b.name,
            o3,
            g.best_cost as u64,
            (o3 as f64 - g.best_cost) / o3 as f64 * 100.0,
            g.samples,
            ga.best_cost as u64,
            (o3 as f64 - ga.best_cost) / o3 as f64 * 100.0,
            ga.samples
        );
    }
}
