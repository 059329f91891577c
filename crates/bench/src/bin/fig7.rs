//! Figure 7: circuit speedup and sample size comparison on the nine
//! benchmarks, all eleven algorithms.
use autophase_bench::{named_suite, Scale, TelemetrySession};
use autophase_core::algorithms::Budget;

fn main() {
    let telemetry = TelemetrySession::start("fig7");
    let scale = Scale::from_args();
    let budget = match scale {
        Scale::Small => Budget {
            rl_iterations: 4,
            rl_horizon: 32,
            episode_len: 12,
            es_generations: 3,
            greedy_budget: 150,
            opentuner_budget: 250,
            genetic_budget: 300,
            random_budget: 400,
            multi_iterations: 4,
        },
        Scale::Medium => Budget::default(),
        Scale::Paper => Budget {
            rl_iterations: 30,
            rl_horizon: 88,
            episode_len: 45,
            es_generations: 20,
            greedy_budget: 2484,
            opentuner_budget: 4000,
            genetic_budget: 6080,
            random_budget: 8400,
            multi_iterations: 40,
        },
    };
    let r = autophase_core::experiment::fig7(&named_suite(), &budget, 7);
    print!("{}", autophase_core::report::fig7_table(&r));
    telemetry.finish();
}
