//! Order statistics for timing samples.

use specweb_core::stats::quantile;

/// `v` in ascending order (timings are finite, so `total_cmp` is the
/// numeric order).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Type-7 quantile of unsorted samples; 0 when empty.
pub fn quantile_of(v: &[f64], q: f64) -> f64 {
    quantile(&sorted(v), q).unwrap_or(0.0)
}

/// Median of unsorted samples; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile_of(v, 0.5)
}

/// The fastest of repeated timings of one fixed piece of work.
///
/// This box shares its cores with other tenants: a fixed 0.35 s body
/// swings to 0.45–0.53 s for seconds at a time while the guest reports
/// zero steal, so interference only ever *adds* time and a 10 s run can
/// sit mostly inside such an episode. The fastest repetition is the one
/// the interference missed; the median moves by the share of the run an
/// episode happened to cover (README, "Why the fastest repetition").
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The counterpart of [`fastest`] for rates (higher is better).
pub fn highest(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// The tail percentiles a latency report may quote, lowest first, in
/// per-mille so the sample-count test below is exact.
const TAIL_PERMILLE: [u64; 4] = [500, 900, 990, 999];

/// The highest of p50/p90/p99/p99.9 that still has at least ten of the
/// `n` samples beyond it; `None` when even the median has not.
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_PERMILLE
        .iter()
        .rfind(|&&pm| (n as u64).saturating_mul(1000 - pm) >= 10_000)
        .map(|&pm| pm as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(0.50));
        assert_eq!(highest_percentile(99), Some(0.50));
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(999), Some(0.90));
        assert_eq!(highest_percentile(1_000), Some(0.99));
        assert_eq!(highest_percentile(9_999), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(sorted(&v), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(median(&v), 2.5);
        assert_eq!(fastest(&v), 1.0);
        assert_eq!(highest(&v), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
