//! Streaming statistics, histograms and small numeric helpers.
//!
//! The experiment harness needs to summarize large simulations without
//! retaining every sample: streaming mean/variance (Welford), fixed-bin
//! histograms (Fig. 4 of the paper is exactly such a histogram over
//! `p[i,j]` ranges), exact quantiles over retained samples, and the tiny
//! regression used to fit the exponential popularity model.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{CoreError, Result};

/// Streaming count/mean/variance/min/max accumulator (Welford's
/// algorithm — numerically stable for long simulations).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (parallel Welford combine).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+∞` when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-∞` when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl fmt::Display for StreamingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.stddev(),
            self.min,
            self.max
        )
    }
}

/// A fixed-bin histogram over a closed-open interval `[lo, hi)`.
///
/// # Counting invariant
///
/// Every observation is counted in **exactly one bin**: out-of-range
/// observations are clamped into the first/last bin. [`Histogram::total`]
/// therefore counts each observation exactly once, and `bins()` sums to
/// `total()`. The [`Histogram::underflow`] / [`Histogram::overflow`]
/// tallies are *diagnostic subsets of the edge bins* (they record how
/// many of the edge-bin counts were clamped) — they are **not** in
/// addition to the bins, so never add them to `total()` or to an edge
/// bin when aggregating; that double-counts the clamped observations.
/// Fig. 4's `probability_histogram` relies on this: embedding pairs at
/// exactly `p = 1.0` land once in the top bin and are also visible via
/// `overflow()` for domain diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `lo >= hi` — both are programming errors
    /// at experiment-definition time, not runtime conditions.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Feeds one observation (clamping out-of-range values).
    pub fn push(&mut self, x: f64) {
        self.push_n(x, 1);
    }

    /// Feeds `n` identical observations at once. Clamped observations
    /// are counted **once**, in the edge bin; the under/overflow tallies
    /// mark them as clamped but are not additional counts (see the type
    /// docs).
    pub fn push_n(&mut self, x: f64, n: u64) {
        let nb = self.bins.len();
        if x < self.lo {
            self.underflow += n;
            self.bins[0] += n;
            return;
        }
        if x >= self.hi {
            self.overflow += n;
            self.bins[nb - 1] += n;
            return;
        }
        let t = (x - self.lo) / (self.hi - self.lo);
        let idx = ((t * nb as f64) as usize).min(nb - 1);
        self.bins[idx] += n;
    }

    /// Bin counts.
    #[inline]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Number of observations below `lo` (clamped into bin 0).
    #[inline]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of observations at or above `hi` (clamped into the last bin).
    #[inline]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations — each counted exactly once, including the
    /// clamped ones already present in the edge bins. Do **not** add
    /// [`Histogram::underflow`] / [`Histogram::overflow`] to this value.
    #[inline]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// The `[lo, hi)` range the bins cover.
    #[inline]
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// The `[lo, hi)` edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Merges another histogram's counts into this one.
    ///
    /// Both histograms must have the same shape (`lo`, `hi`, bin count);
    /// bin counts and the diagnostic under/overflow tallies are summed,
    /// so the counting invariant is preserved: the merged `total()` is
    /// the sum of the inputs' totals. A shape mismatch is a configuration
    /// error (two metrics registered with different ranges), reported
    /// rather than silently re-binned.
    pub fn merge(&mut self, other: &Histogram) -> Result<()> {
        if self.lo != other.lo || self.hi != other.hi || self.bins.len() != other.bins.len() {
            return Err(CoreError::invalid_config(
                "histogram.merge",
                format!(
                    "shape mismatch: [{}, {}) x {} bins vs [{}, {}) x {} bins",
                    self.lo,
                    self.hi,
                    self.bins.len(),
                    other.lo,
                    other.hi,
                    other.bins.len()
                ),
            ));
        }
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        Ok(())
    }

    /// Renders the histogram as fixed-width rows `lo..hi  count  bar`.
    pub fn render(&self, width: usize) -> String {
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let (a, b) = self.bin_edges(i);
            let bar = "#".repeat((c as usize * width).div_ceil(peak as usize).min(width));
            out.push_str(&format!("{a:>8.3}..{b:<8.3} {c:>9} {bar}\n"));
        }
        out
    }
}

/// Number of log₂-spaced buckets a [`ServiceTimeDist`] exports: bucket
/// `i` counts latencies with `(ms + 1).ilog2() == i`, so the last bucket
/// starts at ~24 days — far beyond any simulated service time.
pub const SERVICE_TIME_LOG2_BINS: usize = 32;

/// Milliseconds below this are counted in [`ServiceTimeDist`]'s dense
/// table (at most 128 KiB of it); a 2 MiB document over four hops under
/// the default `LatencyModel` sits just above, so only fault waits and
/// pathological transfers spill into the map.
const DENSE_CAP_MS: u64 = 1 << 14;

/// Per-access service-time samples with **exact** tail quantiles.
///
/// The distribution keeps the full sample **multiset** as `ms → count`
/// — a dense table below [`DENSE_CAP_MS`], a sorted map above it — so
/// the reported p50/p90/p99/p999 are true order statistics (type-7
/// interpolated via [`quantile`]), not bucket approximations, and
/// recording a sample is one indexed add. Storing a multiset rather
/// than an append-order vector makes the determinism contract
/// structural (DESIGN §13): two replays that serve the same accesses
/// compare **equal** no matter what order the samples arrived in, so a
/// serial replay and a shard-merged replay produce identical
/// distributions — and identical quantiles — for any `--jobs` count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceTimeDist {
    /// `dense[ms]` = occurrences of `ms < DENSE_CAP_MS`. A slot exists
    /// only once a sample at or above it was counted, so the table never
    /// ends in a zero and equal multisets have equal tables.
    dense: Vec<u64>,
    /// Milliseconds at or above the cap → occurrences.
    spill: std::collections::BTreeMap<u64, u64>,
    /// Total samples (Σ counts).
    total: u64,
}

impl ServiceTimeDist {
    /// An empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access served in `ms` milliseconds (0 for cache hits).
    #[inline]
    pub fn record(&mut self, ms: u64) {
        self.record_n(ms, 1);
    }

    /// Records `n` accesses served in `ms` milliseconds each: the same
    /// multiset as `n` calls of [`ServiceTimeDist::record`].
    #[inline]
    pub fn record_n(&mut self, ms: u64, n: u64) {
        if n == 0 {
            return;
        }
        if ms < DENSE_CAP_MS {
            let i = ms as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, 0);
            }
            self.dense[i] += n;
        } else {
            *self.spill.entry(ms).or_insert(0) += n;
        }
        self.total += n;
    }

    /// Adds another distribution's samples (exact shard merge: multiset
    /// union by count addition, commutative and associative, so merge
    /// order never changes the result).
    pub fn merge(&mut self, other: &ServiceTimeDist) {
        if other.dense.len() > self.dense.len() {
            self.dense.resize(other.dense.len(), 0);
        }
        for (mine, theirs) in self.dense.iter_mut().zip(&other.dense) {
            *mine += theirs;
        }
        for (&ms, &n) in &other.spill {
            *self.spill.entry(ms).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// Number of recorded accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.total as usize
    }

    /// Whether any access was recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The distinct sample values with their counts, ascending.
    fn counts(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        let dense = self.dense.iter().enumerate().map(|(ms, &n)| (ms as u64, n));
        dense
            .filter(|&(_, n)| n > 0)
            .chain(self.spill.iter().map(|(&ms, &n)| (ms, n)))
    }

    /// Collapses the samples into [`SERVICE_TIME_LOG2_BINS`] log₂-spaced
    /// buckets (bucket `i` ⇔ `(ms + 1).ilog2() == i`) for the metrics
    /// registry: tails stay visible at millisecond resolution near zero
    /// without retaining samples in the manifest.
    pub fn log2_bins(&self) -> [u64; SERVICE_TIME_LOG2_BINS] {
        let mut bins = [0u64; SERVICE_TIME_LOG2_BINS];
        for (ms, n) in self.counts() {
            let b = ((ms + 1).ilog2() as usize).min(SERVICE_TIME_LOG2_BINS - 1);
            bins[b] += n;
        }
        bins
    }

    /// Publishes the distribution as the [`ServiceTimeDist::log2_bins`]
    /// histogram `name` on the deterministic channel (bucket `i`
    /// observed at its midpoint `i + 0.5`). The bins are a pure function
    /// of the sample multiset, so the histogram is byte-identical across
    /// `--jobs` settings and lands in the golden-diffed manifests.
    pub fn publish(&self, obs: &crate::obs::Obs, name: &str) {
        let h = obs.metrics.histogram_on(
            name,
            crate::obs::Channel::Deterministic,
            0.0,
            SERVICE_TIME_LOG2_BINS as f64,
            SERVICE_TIME_LOG2_BINS,
        );
        for (i, &n) in self.log2_bins().iter().enumerate() {
            if n > 0 {
                h.observe_n(i as f64 + 0.5, n);
            }
        }
    }

    /// The largest sample (0 when empty).
    fn max(&self) -> u64 {
        self.counts().next_back().map_or(0, |(ms, _)| ms)
    }

    /// The `rank`-th smallest sample (0-based; saturates at the max).
    fn value_at(&self, rank: u64) -> u64 {
        let mut seen = 0u64;
        for (ms, n) in self.counts() {
            seen += n;
            if seen > rank {
                return ms;
            }
        }
        self.max()
    }

    /// Type-7 quantile over the multiset: interpolates between the two
    /// bracketing order statistics with [`quantile`], so the result is
    /// bit-identical to sorting the expanded samples and indexing.
    fn q(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let pos = p * (self.total - 1) as f64;
        let lo = pos.floor() as u64;
        let hi = pos.ceil() as u64;
        let pair = [self.value_at(lo) as f64, self.value_at(hi) as f64];
        quantile(&pair, pos - lo as f64).unwrap_or(0.0)
    }

    /// Computes the exact quantile summary (zeros when empty).
    pub fn quantiles(&self) -> ServiceQuantiles {
        if self.total == 0 {
            return ServiceQuantiles::default();
        }
        let sum: u64 = self.counts().map(|(ms, n)| ms * n).sum();
        ServiceQuantiles {
            count: self.total,
            mean_ms: sum as f64 / self.total as f64,
            p50_ms: self.q(0.50),
            p90_ms: self.q(0.90),
            p99_ms: self.q(0.99),
            p999_ms: self.q(0.999),
            max_ms: self.max(),
        }
    }
}

/// Exact service-time summary of one run. All values are pure functions
/// of the sample multiset, hence deterministic across `--jobs` counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceQuantiles {
    /// Accesses summarized.
    pub count: u64,
    /// Mean service time, milliseconds.
    pub mean_ms: f64,
    /// Median (type-7 interpolated), milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile, milliseconds.
    pub p999_ms: f64,
    /// Slowest access, milliseconds.
    pub max_ms: u64,
}

impl fmt::Display for ServiceQuantiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1}ms p50={:.0} p90={:.0} p99={:.0} p999={:.0} max={}ms",
            self.count,
            self.mean_ms,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.p999_ms,
            self.max_ms
        )
    }
}

/// Exact quantile over a slice (linear interpolation between order
/// statistics, the "type 7" definition used by R and NumPy).
/// Returns `None` for an empty slice or `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Least-squares slope of `y = m·x` (regression **through the origin**).
///
/// This is the estimator used to fit the paper's exponential popularity
/// model: with `y = -ln(1 - H(b))` and `x = b`, the model `H(b) =
/// 1 - exp(-λ b)` becomes the line `y = λ x` through the origin.
/// Returns `None` when the inputs are degenerate (no variation in `x`).
pub fn slope_through_origin(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "mismatched regression inputs");
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    if sxx <= 0.0 || !sxx.is_finite() {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    if !sxy.is_finite() {
        return None;
    }
    Some(sxy / sxx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_empty_is_sane() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = StreamingStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = StreamingStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.clone();
        a.merge(&StreamingStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = StreamingStats::new();
        e.merge(&before);
        assert_eq!(e.count(), 2);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.push(0.05); // bin 0
        h.push(0.95); // bin 9
        h.push(0.999); // bin 9
        h.push(-5.0); // underflow → bin 0
        h.push(2.0); // overflow → bin 9
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 3);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_edge_exactly_hi_is_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(1.0);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.bins()[3], 1);
    }

    #[test]
    fn histogram_bin_geometry() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.bin_edges(0), (0.0, 0.25));
        assert_eq!(h.bin_edges(3), (0.75, 1.0));
    }

    #[test]
    fn histogram_push_n() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push_n(3.0, 7);
        assert_eq!(h.bins()[1], 7);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn clamped_observations_count_exactly_once() {
        // Pin the counting invariant: a clamped batch lands once in the
        // edge bin; the overflow tally is a diagnostic subset, not an
        // extra count. A consumer that summed bins + overflow would
        // double-count — `total()` must not.
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push_n(0.5, 10); // in range
        h.push_n(1.0, 3); // clamps into bin 3, tallies overflow
        h.push_n(-2.0, 2); // clamps into bin 0, tallies underflow
        assert_eq!(h.total(), 15, "each observation counted exactly once");
        assert_eq!(h.bins().iter().sum::<u64>(), h.total());
        assert_eq!(h.bins()[3], 3);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.underflow(), 2);
        // The diagnostic tallies never exceed their edge bins.
        assert!(h.overflow() <= h.bins()[3]);
        assert!(h.underflow() <= h.bins()[0]);
    }

    #[test]
    fn histogram_render_contains_counts() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push_n(0.25, 4);
        h.push(0.75);
        let r = h.render(20);
        assert!(r.contains('4'));
        assert!(r.contains('#'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&v, 1.5), None);
        assert_eq!(quantile(&[9.0], 0.3), Some(9.0));
    }

    #[test]
    fn slope_fits_exact_line() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        let m = slope_through_origin(&xs, &ys).unwrap();
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slope_degenerate_is_none() {
        assert_eq!(slope_through_origin(&[], &[]), None);
        assert_eq!(slope_through_origin(&[0.0, 0.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn histogram_merge_sums_bins_and_diagnostics() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        a.push_n(0.1, 3);
        a.push(2.0); // overflow
        let mut b = Histogram::new(0.0, 1.0, 4);
        b.push_n(0.9, 2);
        b.push(-1.0); // underflow
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 7);
        assert_eq!(a.bins()[0], 4);
        assert_eq!(a.bins()[3], 3);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        // The counting invariant survives the merge.
        assert_eq!(a.bins().iter().sum::<u64>(), a.total());
    }

    #[test]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut base = Histogram::new(0.0, 1.0, 4);
        for other in [
            Histogram::new(0.0, 1.0, 5),  // bin count
            Histogram::new(0.0, 2.0, 4),  // upper edge
            Histogram::new(-1.0, 1.0, 4), // lower edge
        ] {
            let before = base.clone();
            let err = base.merge(&other).unwrap_err();
            assert!(err.to_string().contains("shape mismatch"), "{err}");
            // A rejected merge must leave the target untouched.
            assert_eq!(base.bins(), before.bins());
            assert_eq!(base.range(), before.range());
        }
    }

    #[test]
    fn service_time_dist_exact_quantiles() {
        let mut d = ServiceTimeDist::new();
        for ms in 1..=100u64 {
            d.record(ms);
        }
        let q = d.quantiles();
        assert_eq!(q.count, 100);
        assert!((q.mean_ms - 50.5).abs() < 1e-12);
        assert!((q.p50_ms - 50.5).abs() < 1e-12);
        assert!((q.p90_ms - 90.1).abs() < 1e-9);
        assert_eq!(q.max_ms, 100);
        // Empty is all zeros, not NaN.
        let e = ServiceTimeDist::new().quantiles();
        assert_eq!(e.count, 0);
        assert_eq!(e.mean_ms, 0.0);
    }

    #[test]
    fn service_time_log2_bins_cover_every_sample() {
        let mut d = ServiceTimeDist::new();
        for ms in [0, 1, 2, 3, 1000, u64::MAX - 1] {
            d.record(ms);
        }
        let bins = d.log2_bins();
        assert_eq!(bins.iter().sum::<u64>() as usize, d.len());
        assert_eq!(bins[0], 1); // 0 ms → (0+1).ilog2() == 0
        assert_eq!(bins[1], 2); // 1, 2 ms
        assert_eq!(bins[SERVICE_TIME_LOG2_BINS - 1], 1); // clamped tail
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Service times on both sides of the dense cap and right at it.
        fn sample_ms() -> impl Strategy<Value = u64> {
            prop_oneof![0u64..64, DENSE_CAP_MS - 4..DENSE_CAP_MS + 4, 0u64..100_000,]
        }

        fn dist_of(xs: &[u64]) -> ServiceTimeDist {
            let mut d = ServiceTimeDist::new();
            for &x in xs {
                d.record(x);
            }
            d
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn quantiles_are_monotone(
                xs in prop::collection::vec(0u64..1_000_000, 1..256),
            ) {
                let mut xs = xs;
                xs.sort_unstable();
                let f: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
                let p50 = quantile(&f, 0.50).unwrap();
                let p90 = quantile(&f, 0.90).unwrap();
                let p99 = quantile(&f, 0.99).unwrap();
                let p999 = quantile(&f, 0.999).unwrap();
                prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
                prop_assert!(quantile(&f, 0.0).unwrap() <= p50);
                prop_assert!(p999 <= quantile(&f, 1.0).unwrap());
            }

            #[test]
            fn record_n_equals_repeated_record(
                counted in prop::collection::vec((sample_ms(), 0u64..40), 0..64),
            ) {
                // Always one sample above the dense cap, and one zero count.
                let fixed = [(DENSE_CAP_MS + 7, 3), (5, 0)];
                let mut d = ServiceTimeDist::new();
                let mut expanded = Vec::new();
                for &(ms, n) in fixed.iter().chain(&counted) {
                    d.record_n(ms, n);
                    expanded.extend(std::iter::repeat_n(ms, n as usize));
                }
                let repeated = dist_of(&expanded);
                prop_assert_eq!(&d, &repeated);
                prop_assert_eq!(d.quantiles(), repeated.quantiles());
            }

            #[test]
            fn service_time_merge_is_exact_across_shard_counts(
                xs in prop::collection::vec(sample_ms(), 0..256),
                shards in 1usize..8,
            ) {
                // One distribution over everything vs. shard partials
                // merged in order: the quantile summary must be *bitwise*
                // equal, not approximately — this is the property the
                // simulators' --jobs invariance rests on.
                let whole = dist_of(&xs);
                let per = xs.len().div_ceil(shards).max(1);
                let parts: Vec<ServiceTimeDist> = xs.chunks(per).map(dist_of).collect();
                let mut merged = ServiceTimeDist::new();
                for part in &parts {
                    merged.merge(part);
                }
                prop_assert_eq!(merged.quantiles(), whole.quantiles());
                prop_assert_eq!(merged.log2_bins(), whole.log2_bins());
                prop_assert_eq!(&merged, &whole);
                // Another merge tree over the same parts: right to left,
                // each step merging the accumulated tail *into* the part.
                let mut tree = ServiceTimeDist::new();
                for part in parts.iter().rev() {
                    let mut left = part.clone();
                    left.merge(&tree);
                    tree = left;
                }
                prop_assert_eq!(&tree, &whole);
                // Multiset semantics: arrival order is invisible, so a
                // replay that serves the same accesses in *any* order
                // (serial trace order vs. cluster-shard order) compares
                // equal structurally, not just quantile-wise.
                let reversed: Vec<u64> = xs.iter().rev().copied().collect();
                prop_assert_eq!(&dist_of(&reversed), &whole);
            }

            #[test]
            fn service_time_dist_equals_the_sorted_samples(
                xs in prop::collection::vec(sample_ms(), 1..256),
            ) {
                let d = dist_of(&xs);
                let mut sorted: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
                sorted.sort_by(f64::total_cmp);
                prop_assert_eq!(d.len(), xs.len());
                let want = ServiceQuantiles {
                    count: xs.len() as u64,
                    mean_ms: xs.iter().sum::<u64>() as f64 / xs.len() as f64,
                    p50_ms: quantile(&sorted, 0.50).unwrap(),
                    p90_ms: quantile(&sorted, 0.90).unwrap(),
                    p99_ms: quantile(&sorted, 0.99).unwrap(),
                    p999_ms: quantile(&sorted, 0.999).unwrap(),
                    max_ms: xs.iter().copied().max().unwrap(),
                };
                prop_assert_eq!(d.quantiles(), want);
                let mut bins = [0u64; SERVICE_TIME_LOG2_BINS];
                for &x in &xs {
                    bins[(x + 1).ilog2() as usize] += 1;
                }
                prop_assert_eq!(d.log2_bins(), bins);
            }

            #[test]
            fn histogram_merge_equals_single_pass(
                xs in prop::collection::vec(-0.5f64..1.5, 0..128),
                shards in 1usize..6,
            ) {
                let mut whole = Histogram::new(0.0, 1.0, 8);
                for &x in &xs {
                    whole.push(x);
                }
                let mut merged = Histogram::new(0.0, 1.0, 8);
                let per = xs.len().div_ceil(shards).max(1);
                for chunk in xs.chunks(per) {
                    let mut part = Histogram::new(0.0, 1.0, 8);
                    for &x in chunk {
                        part.push(x);
                    }
                    merged.merge(&part).unwrap();
                }
                prop_assert_eq!(merged.bins(), whole.bins());
                prop_assert_eq!(merged.underflow(), whole.underflow());
                prop_assert_eq!(merged.overflow(), whole.overflow());
            }
        }
    }
}
