//! The harness's own arithmetic: percentiles, medians, geometric means.
//!
//! Kept free of any measured code so the rules can be unit-tested on
//! hand-written samples.

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1: a percentile with fewer is mostly one outlier).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it (the median is exempt: it
/// needs no tail).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// [`percentile`], falling back to the maximum when the tail is too
/// short to support `p`. Only `--smoke` runs may take the fallback; a
/// full-scale run treats a refused percentile as a harness failure.
pub fn percentile_or_max(sorted: &[f64], p: f64) -> (f64, bool) {
    match percentile(sorted, p) {
        Some(v) => (v, true),
        None => (sorted.last().copied().unwrap_or(0.0), false),
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean of positive ratios; 0 for an empty slice. Summed in
/// slice order, so a fixed program order gives a bit-equal result.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Share of a piece of work's repeats that its CPU time is read from: the
/// quietest quarter.
///
/// Why not the median: the box is a shared VM whose co-tenants take the
/// cores away for minutes at a time. User-mode CPU time mostly sees
/// through that (see README), but a descheduled vCPU comes back to cold
/// caches, so what is left of the noise only ever makes a stretch of work
/// dearer. The quiet quarter is what the code costs when the host leaves
/// it alone, and it holds still until three repeats in four are
/// disturbed; the median gives way at two.
pub const QUIET_SHARE: f64 = 0.25;

/// How many of `repeats` values count as quiet: a quarter, rounded up.
pub fn quiet_rank(repeats: usize) -> usize {
    ((repeats as f64 * QUIET_SHARE).ceil() as usize).max(1)
}

/// The quiet value of one piece of work repeated several times: the
/// [`quiet_rank`]-th smallest. 0 for no values.
pub fn quiet_value(repeats: &[f64]) -> f64 {
    let v = sorted(repeats);
    match v.len() {
        0 => 0.0,
        n => v[quiet_rank(n) - 1],
    }
}

/// The quiet cost of a round's whole work list. Every round does the
/// same work, cut into the same segments, so segment `j` has one cost per
/// round (`rounds[r][j]`); its quiet cost is the [`quiet_value`] of those,
/// and the list's is the sum over segments. Each segment may take its
/// value from another round: a short quiet stretch of the host is enough.
pub fn quiet_sum(rounds: &[Vec<f64>]) -> f64 {
    let segments = rounds.iter().map(Vec::len).max().unwrap_or(0);
    (0..segments)
        .map(|j| {
            let repeats: Vec<f64> = rounds.iter().filter_map(|r| r.get(j).copied()).collect();
            quiet_value(&repeats)
        })
        .sum()
}

/// `(max - min) / median` of per-round values: how far the rounds of one
/// run disagree.
pub fn round_spread(rounds: &[f64]) -> f64 {
    let v = sorted(rounds);
    let med = median(&v);
    if v.is_empty() || med == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.50), Some(500.0));
        assert_eq!(percentile(&v, 0.95), Some(950.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_refuses_a_short_tail() {
        // p95 of 200 samples has exactly 10 beyond it; of 199, only 9.
        assert_eq!(percentile(&ramp(200), 0.95), Some(190.0));
        assert_eq!(percentile(&ramp(199), 0.95), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert!(percentile(&ramp(1000), 0.99).is_some());
        // The median is always reportable.
        assert_eq!(percentile(&ramp(3), 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_or_max_flags_the_fallback() {
        assert_eq!(percentile_or_max(&ramp(20), 0.95), (20.0, false));
        assert_eq!(percentile_or_max(&ramp(400), 0.95), (380.0, true));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        let g = geomean(&[2.0, 0.5, 4.0, 0.25]);
        assert!((g - 1.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), 0.0);
        // Not the arithmetic mean: one 2x win does not cancel one 2x loss
        // arithmetically, but does geometrically.
        assert!(mean(&[2.0, 0.5]) > 1.0);
    }

    #[test]
    fn quiet_value_survives_a_mostly_disturbed_run() {
        // Eight repeats, five of them made dearer by a co-tenant burst.
        let cost = [11.0, 27.0, 12.0, 26.0, 29.0, 11.5, 24.0, 25.0];
        assert_eq!(quiet_rank(8), 2);
        assert_eq!(quiet_value(&cost), 11.5);
        assert_eq!(median(&cost), 24.5);
        // With few repeats it is the best one; with none, zero.
        assert_eq!(quiet_value(&[3.0, 2.0, 4.0]), 2.0);
        assert_eq!(quiet_value(&[]), 0.0);
        assert_eq!((quiet_rank(1), quiet_rank(4), quiet_rank(5)), (1, 1, 2));
        // An undisturbed run reads within its own small spread.
        let calm = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.9];
        assert_eq!(quiet_value(&calm), 99.5);
    }

    #[test]
    fn quiet_sum_takes_each_segment_from_its_own_quiet_rounds() {
        // Four rounds of two segments. A burst covers the second half of
        // round 0, all of round 1 and the first half of round 2, so no
        // round but the last is quiet throughout.
        let rounds = vec![
            vec![1.0, 3.1],
            vec![3.0, 3.2],
            vec![2.9, 1.1],
            vec![1.2, 1.3],
        ];
        // Segment 0 from round 0, segment 1 from round 2.
        assert!((quiet_sum(&rounds) - 2.1).abs() < 1e-12);
        // Eight rounds: the second-best repeat of each segment.
        let eight: Vec<_> = rounds.iter().chain(&rounds).cloned().collect();
        assert!((quiet_sum(&eight) - 2.1).abs() < 1e-12);
        assert_eq!(quiet_sum(&[]), 0.0);
    }

    #[test]
    fn median_round_ignores_one_slow_round() {
        let rounds = [100.0, 101.0, 99.0, 100.5, 60.0];
        assert_eq!(median(&rounds), 100.0);
        let spread = round_spread(&rounds);
        assert!((spread - 0.41).abs() < 1e-9, "{spread}");
    }
}
