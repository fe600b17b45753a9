//! Reducers: a closed-loop speed is the best over many short windows of
//! a per-window statistic, and a tail is only ever reported at a
//! percentile the sample can support.

/// Median of `values` (mean of the middle two when even). Empty → 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Which way a metric is better.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

/// The best of `values`: the smallest time, the largest rate. Empty →
/// 0. On a shared host interference only ever slows a window down, and
/// no window can run faster than the program does on an undisturbed
/// core, so the best of many short windows reads the program's own
/// speed whenever one of them was left alone — where a median reads the
/// host's mood. It is the estimator `timeit` recommends for the same
/// reason. The windows must hold the same work for this to mean
/// anything; [`crate::spec::Spec::window_frames`] sees to that.
pub fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// Nearest-rank median of an ascending sample. Empty → 0.
pub fn p50(sorted: &[u64]) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[(n - 1) / 2],
    }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_GUARD: usize = 10;

/// The p99 of an ascending sample — or, when fewer than
/// [`TAIL_GUARD`] samples lie beyond the p99 rank, the highest
/// percentile that does have that many beyond it (the median when even
/// that is unsupported). Returns `(percentile actually used, value)`.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0);
    }
    if n <= 2 * TAIL_GUARD {
        return (50.0, p50(sorted));
    }
    // Nearest rank: the smallest index with ≥ 99 % of samples at or
    // below it, capped so TAIL_GUARD samples stay strictly beyond.
    let p99_idx = (n * 99).div_ceil(100) - 1;
    let idx = p99_idx.min(n - 1 - TAIL_GUARD);
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

/// Sorts nanosecond samples and returns them ascending.
pub fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// Nanoseconds → microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_windows_ignores_one_stalled_window() {
        assert_eq!(median(&[10.0, 11.0, 500.0, 9.0, 10.5]), 10.5);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_reads_the_one_window_the_host_left_alone() {
        // Twenty windows, nineteen of them in a slow phase.
        let mut times = vec![13.0; 19];
        times.insert(7, 10.0);
        assert_eq!(best(&times, Better::Lower), 10.0);
        assert_eq!(median(&times), 13.0);
        let rates: Vec<f64> = times.iter().map(|t| 1_000.0 / t).collect();
        assert_eq!(best(&rates, Better::Higher), 100.0);
        assert_eq!(best(&[], Better::Lower), 0.0);
    }

    #[test]
    fn tail_is_p99_when_the_sample_supports_it() {
        let s: Vec<u64> = (1..=10_000).collect();
        let (p, v) = tail(&s);
        assert_eq!(v, 9_900);
        assert!((p - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_backs_off_until_ten_samples_lie_beyond() {
        // 160 samples: p99 would leave one sample beyond; the reducer
        // reports index 149 (ten beyond), i.e. p93.75.
        let s: Vec<u64> = (1..=160).collect();
        let (p, v) = tail(&s);
        assert_eq!(v, 150);
        assert!((p - 93.75).abs() < 1e-9);
        assert_eq!(s.len() - 150, TAIL_GUARD);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_median() {
        let s: Vec<u64> = (1..=8).collect();
        assert_eq!(tail(&s), (50.0, 4));
        assert_eq!(tail(&[]), (0.0, 0));
    }
}
