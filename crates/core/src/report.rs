//! Plain-text rendering of tables, bars, curves, and heat maps.

use crate::algorithms::Algorithm;
use crate::experiment::{Fig7Result, GeneralizationResult, LearningCurve};

/// Render Table 1 (the pass list).
pub fn table1() -> String {
    let mut out = String::from("Table 1. LLVM Transform Passes\n");
    for (i, name) in autophase_passes::registry::PASS_NAMES.iter().enumerate() {
        out.push_str(&format!("{i:>3}  {name}\n"));
    }
    out
}

/// Render Table 2 (the feature list).
pub fn table2() -> String {
    let mut out = String::from("Table 2. Program Features\n");
    for (i, name) in autophase_features::feature_names().iter().enumerate() {
        out.push_str(&format!("{i:>3}  {name}\n"));
    }
    out
}

/// Render Table 3 (algorithm ↔ observation/action spaces).
pub fn table3() -> String {
    let rows = [
        ("RL-PPO1", "PPO", "Program Features", "Single-Action"),
        ("RL-PPO2", "PPO", "Action History", "Single-Action"),
        (
            "RL-PPO3",
            "PPO",
            "Action History + Program Features",
            "Multiple-Action",
        ),
        ("RL-A3C", "A3C", "Program Features", "Single-Action"),
        ("RL-ES", "ES", "Program Features", "Single-Action"),
    ];
    let mut out =
        String::from("Table 3. Observation and action spaces of the deep RL algorithms\n");
    out.push_str(&format!(
        "{:<10} {:<6} {:<36} {}\n",
        "Name", "Algo", "Observation Space", "Action Space"
    ));
    for (n, a, o, s) in rows {
        out.push_str(&format!("{n:<10} {a:<6} {o:<36} {s}\n"));
    }
    out
}

/// Sample counts per program at which the anytime table reads each row:
/// one compilation, a few, the paper's episode length (45) and RL
/// sample count (88), and two search-sized budgets.
const ANYTIME_SAMPLES: [u64; 6] = [1, 3, 45, 88, 300, 1000];

/// Render Figure 7 as a text table (bars + sample line), then the anytime
/// table: each row's best so far within a number of samples.
pub fn fig7_table(r: &Fig7Result) -> String {
    let means = r.mean_improvement();
    let samples = r.mean_samples();
    let mut out = String::from("Figure 7. Circuit speedup and sample size comparison\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>16}\n",
        "Algorithm", "vs -O3", "samples/program"
    ));
    for ((alg, imp), (_, s)) in means.iter().zip(&samples) {
        out.push_str(&format!(
            "{:<14} {:>11.1}% {:>16.0}  {}\n",
            alg.name(),
            imp * 100.0,
            s,
            bar(*imp)
        ));
    }
    out.push_str("\nPer-benchmark improvement over -O3 (%):\n");
    out.push_str(&format!("{:<12}", "benchmark"));
    for alg in Algorithm::ALL {
        out.push_str(&format!("{:>13}", alg.name()));
    }
    out.push('\n');
    for (name, results) in &r.per_benchmark {
        out.push_str(&format!("{name:<12}"));
        for res in results {
            out.push_str(&format!("{:>12.1}%", res.improvement_over_o3 * 100.0));
        }
        out.push('\n');
    }
    // The anytime table: a row's best within n samples is the last point
    // of its curve at or before n, against its benchmark's -O3.
    let best_within = |i: usize, n: u64| -> Option<f64> {
        let sum: Option<f64> = (r.per_benchmark.iter())
            .map(|(_, rs)| {
                let o3 = rs.iter().find(|r| r.algorithm == Algorithm::O3)?.cycles as f64;
                let (_, best) = rs[i].curve.iter().take_while(|p| p.0 <= n).last()?;
                Some((o3 - *best as f64) / o3 * 100.0)
            })
            .sum();
        sum.map(|s| s / r.per_benchmark.len() as f64)
    };
    out.push_str("\nBest so far within N samples per program, mean improvement over -O3 (%):\n");
    out.push_str(&format!("{:<14}", "N"));
    for n in ANYTIME_SAMPLES {
        out.push_str(&format!("{n:>9}"));
    }
    out.push_str(&format!("{:>9}\n", "all"));
    for (i, alg) in Algorithm::ALL.iter().enumerate() {
        out.push_str(&format!("{:<14}", alg.name()));
        for n in ANYTIME_SAMPLES.into_iter().chain([u64::MAX]) {
            match best_within(i, n) {
                Some(imp) => out.push_str(&format!("{imp:>9.1}")),
                None => out.push_str(&format!("{:>9}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render Figure 8 learning curves as aligned text series.
pub fn fig8_table(curves: &[LearningCurve]) -> String {
    let mut out = String::from("Figure 8. Episode reward mean vs. step\n");
    for c in curves {
        out.push_str(&format!(
            "\n{} (final level {:.3}):\n",
            c.label,
            c.final_level()
        ));
        for (s, r) in c.steps.iter().zip(&c.reward_mean) {
            out.push_str(&format!("  step {s:>8}  reward_mean {r:>10.3}\n"));
        }
    }
    out
}

/// Render Figure 9 as a text table.
pub fn fig9_table(results: &[GeneralizationResult]) -> String {
    let mut out = String::from("Figure 9. Generalization: one compilation per unseen program\n");
    out.push_str(&format!(
        "{:<20} {:>12} {:>16}\n",
        "Algorithm", "vs -O3", "samples/program"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<20} {:>11.1}% {:>16}  {}\n",
            r.label,
            r.mean_improvement * 100.0,
            r.samples_per_program,
            bar(r.mean_improvement)
        ));
    }
    out
}

/// Render an importance matrix as an ASCII heat map (Figures 5 and 6).
/// Rows = passes, columns = features (or previous passes).
pub fn heatmap(matrix: &[Vec<f64>], row_label: &str, col_label: &str) -> String {
    const SHADES: [char; 7] = [' ', '.', ':', '+', '*', '#', '@'];
    let mut out = format!("rows: {row_label}, cols: {col_label}\n");
    let max = matrix
        .iter()
        .flat_map(|r| r.iter())
        .copied()
        .fold(0.0f64, f64::max)
        .max(1e-12);
    for (i, row) in matrix.iter().enumerate() {
        out.push_str(&format!("{i:>3} |"));
        for &v in row {
            let idx = ((v / max) * (SHADES.len() - 1) as f64).round() as usize;
            out.push(SHADES[idx.min(SHADES.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

fn bar(improvement: f64) -> String {
    let n = (improvement * 100.0).round();
    if n >= 0.0 {
        "█".repeat((n as usize).min(60))
    } else {
        format!("-{}", "█".repeat((-n as usize).min(60)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AlgoResult;

    fn fake_fig7() -> Fig7Result {
        // Every row ends at -O3's 1000 cycles, from 2000 at its first
        // sample (the last row's second).
        let mk = |alg: Algorithm, imp: f64, samples: u64| AlgoResult {
            algorithm: alg,
            cycles: 1000,
            improvement_over_o3: imp,
            samples,
            curve: match alg {
                Algorithm::O0 | Algorithm::O3 => vec![(1, 1000)],
                Algorithm::Random => vec![(2, 2000), (samples, 1000)],
                _ => vec![(1, 2000), (samples, 1000)],
            },
        };
        let results: Vec<AlgoResult> = Algorithm::ALL
            .iter()
            .enumerate()
            .map(|(i, &a)| mk(a, i as f64 / 100.0 - 0.02, (i as u64 + 1) * 10))
            .collect();
        Fig7Result {
            per_benchmark: vec![
                ("gsm".to_string(), results.clone()),
                ("aes".to_string(), results),
            ],
        }
    }

    #[test]
    fn fig7_table_renders_all_algorithms_and_benchmarks() {
        let text = fig7_table(&fake_fig7());
        for alg in Algorithm::ALL {
            assert!(text.contains(alg.name()), "missing {}", alg.name());
        }
        assert!(text.contains("gsm"));
        assert!(text.contains("aes"));
        assert!(text.contains("samples/program"));
        // The anytime table: RL-PPO1 (30 samples) has its final best by
        // N = 45, Greedy (60) only by N = 88, and random none at N = 1.
        let anytime = &text[text.find("Best so far").unwrap()..];
        let (lost, even) = ("-100.0", "0.0");
        for (name, cells) in [
            ("-O3", [even; 7]),
            ("RL-PPO1", [lost, lost, even, even, even, even, even]),
            ("Greedy", [lost, lost, lost, even, even, even, even]),
            ("random", ["-", lost, lost, lost, even, even, even]),
        ] {
            let row = (cells.iter()).fold(format!("{name:<14}"), |r, c| r + &format!("{c:>9}"));
            assert!(
                anytime.lines().any(|l| l == row),
                "no {row:?} in\n{anytime}"
            );
        }
    }

    #[test]
    fn fig9_table_renders() {
        let rs = vec![GeneralizationResult {
            label: "RL-filtered-norm2".to_string(),
            mean_improvement: 0.04,
            samples_per_program: 1,
        }];
        let text = fig9_table(&rs);
        assert!(text.contains("RL-filtered-norm2"));
        assert!(text.contains("4.0%"));
    }

    #[test]
    fn fig8_table_renders_curves() {
        let c = LearningCurve {
            label: "filtered-norm2",
            steps: vec![96, 192],
            reward_mean: vec![1.0, 2.0],
        };
        let text = fig8_table(&[c]);
        assert!(text.contains("filtered-norm2"));
        assert!(text.contains("step"));
    }

    #[test]
    fn tables_render() {
        let t1 = table1();
        assert!(t1.contains("-loop-rotate"));
        assert!(t1.contains(" 45  -terminate"));
        let t2 = table2();
        assert!(t2.contains("Number of critical edges"));
        let t3 = table3();
        assert!(t3.contains("Multiple-Action"));
    }

    #[test]
    fn heatmap_shades_scale() {
        let m = vec![vec![0.0, 0.5, 1.0], vec![1.0, 0.0, 0.0]];
        let h = heatmap(&m, "r", "c");
        assert!(h.contains('@'));
        assert!(h.lines().count() >= 3);
    }

    #[test]
    fn bar_direction() {
        assert!(bar(0.25).starts_with('█'));
        assert!(bar(-0.10).starts_with('-'));
    }
}
