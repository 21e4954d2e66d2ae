//! Probability distributions and the paper's exponential popularity model.
//!
//! The workload model needs three families of distributions that 1995-era
//! WWW measurement work (Cunha, Bestavros & Crovella, BU-CS-95-010)
//! established for web traffic:
//!
//! * **Zipf-like document popularity** — request frequency of the `r`-th
//!   most popular document ∝ `1/r^θ`;
//! * **heavy-tailed document sizes** — a log-normal body with a bounded
//!   Pareto tail;
//! * **exponential inter-arrival / think times** within sessions.
//!
//! On top of those sits the paper's analytical device (§2.2): the
//! **exponential popularity model** `H(b) = 1 − exp(−λ b)`, the probability
//! that a request hits the most popular `b` bytes of a server, together
//! with the estimation of `λ` from an empirical hit curve.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::stats::slope_through_origin;
use crate::units::Bytes;

// ---------------------------------------------------------------------------
// Zipf popularity
// ---------------------------------------------------------------------------

/// Zipf-like popularity over `n` ranked items: weight of rank `r`
/// (1-based) is `1/r^theta`, normalized.
///
/// `theta = 1` is classic Zipf; WWW server traces of the period fit
/// `theta ≈ 0.8–1.0`. The struct precomputes the cumulative distribution
/// for O(log n) sampling and exposes the raw weights for analytic use.
///
/// ```
/// use specweb_core::dist::Zipf;
/// let z = Zipf::new(100, 1.0).unwrap();
/// assert!(z.weight(0) > z.weight(99));        // rank 1 beats rank 100
/// assert!(z.head_mass(10) > 0.3);             // the head is heavy
/// let total: f64 = z.weights().iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);        // normalized
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Zipf {
    theta: f64,
    /// Normalized per-rank probabilities, rank 0 = most popular.
    weights: Vec<f64>,
    /// Cumulative probabilities for inverse-CDF sampling.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf distribution over `n` items with exponent `theta`.
    pub fn new(n: usize, theta: f64) -> Result<Self> {
        if n == 0 {
            return Err(CoreError::invalid_config("zipf.n", "must be positive"));
        }
        if !theta.is_finite() || theta < 0.0 {
            return Err(CoreError::invalid_config(
                "zipf.theta",
                format!("must be finite and non-negative, got {theta}"),
            ));
        }
        let mut weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        // Capacity hint only — `n` arrives scale-tainted from callers
        // (client/page counts); cap the reservation, the vec still grows.
        let mut cdf = Vec::with_capacity(n.min(1 << 24));
        let mut acc = 0.0;
        for &w in &weights {
            acc += w;
            cdf.push(acc);
        }
        // Guard against floating-point shortfall at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Ok(Zipf {
            theta,
            weights,
            cdf,
        })
    }

    /// The exponent.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Number of ranks.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the distribution is over zero items (never true — `new`
    /// rejects `n = 0` — but required for the `len` idiom).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Probability of rank `r` (0-based, 0 = most popular).
    #[inline]
    pub fn weight(&self, r: usize) -> f64 {
        self.weights[r]
    }

    /// All normalized weights, most popular first.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples a rank (0-based) by inverse-CDF lookup.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf > u.
        self.cdf.partition_point(|&c| c <= u).min(self.len() - 1)
    }

    /// Fraction of probability mass held by the `k` most popular ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.len()) - 1]
        }
    }
}

/// Fits a Zipf exponent `theta` to observed per-item counts by least
/// squares on the log-log rank/frequency line (`ln f_r = c − θ·ln r`).
///
/// Counts are sorted descending internally; zero counts are dropped.
/// Returns an error for fewer than three distinct ranks — a line needs
/// slack to be meaningful.
///
/// ```
/// use specweb_core::dist::{fit_zipf_theta, Zipf};
/// use specweb_core::rng::SeedTree;
/// // Sample from a known Zipf and recover its exponent.
/// let z = Zipf::new(200, 0.9).unwrap();
/// let mut rng = SeedTree::new(1).child("fit").rng();
/// let mut counts = vec![0u64; 200];
/// for _ in 0..200_000 { counts[z.sample(&mut rng)] += 1; }
/// let theta = fit_zipf_theta(&counts).unwrap();
/// assert!((theta - 0.9).abs() < 0.1, "fit {theta}");
/// ```
pub fn fit_zipf_theta(counts: &[u64]) -> Result<f64> {
    let mut sorted: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    if sorted.len() < 3 {
        return Err(CoreError::Estimation(
            "zipf fit needs at least three non-zero counts".into(),
        ));
    }
    // Ordinary least squares on (ln r, ln f_r), slope = −θ.
    let n = sorted.len() as f64;
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &c) in sorted.iter().enumerate() {
        let x = ((i + 1) as f64).ln();
        let y = (c as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return Err(CoreError::Estimation("degenerate rank axis".into()));
    }
    let slope = (n * sxy - sx * sy) / denom;
    Ok(-slope)
}

// ---------------------------------------------------------------------------
// Bounded Pareto (document-size tail)
// ---------------------------------------------------------------------------

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
///
/// The BU client traces measured document sizes with a Pareto tail of
/// shape ≈ 1.1–1.5; bounding the support keeps simulated catalogs from
/// containing physically absurd objects while preserving heavy-tailedness.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
}

impl BoundedPareto {
    /// Creates the distribution; requires `0 < lo < hi` and `alpha > 0`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Result<Self> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(CoreError::invalid_config("pareto.alpha", "must be > 0"));
        }
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi) {
            return Err(CoreError::invalid_config(
                "pareto.bounds",
                format!("need 0 < lo < hi, got lo={lo} hi={hi}"),
            ));
        }
        Ok(BoundedPareto { alpha, lo, hi })
    }

    /// Shape parameter.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Inverse CDF at `u ∈ [0, 1)`.
    pub fn inv_cdf(&self, u: f64) -> f64 {
        let (a, l, h) = (self.alpha, self.lo, self.hi);
        let la = l.powf(a);
        let ha = h.powf(a);
        // Standard bounded-Pareto inversion.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a);
        x.clamp(l, h)
    }

    /// Samples one value.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inv_cdf(rng.gen())
    }

    /// Samples a byte count.
    pub fn sample_bytes<R: Rng + ?Sized>(&self, rng: &mut R) -> Bytes {
        Bytes::new(self.sample(rng).round().max(1.0) as u64)
    }
}

// ---------------------------------------------------------------------------
// Exponential popularity model (paper §2.2)
// ---------------------------------------------------------------------------

/// The paper's exponential popularity model:
/// `H(b) = 1 − exp(−λ b)` — the probability that a request for a server's
/// documents can be satisfied by a replica of that server's most popular
/// `b` bytes. Its density is `h(b) = λ exp(−λ b)` (eq. 3).
///
/// The paper estimates `λ = 6.247 × 10⁻⁷` for `cs-www.bu.edu` — i.e.
/// replicating the hottest ~1.6 MB covers 63% of requests.
///
/// ```
/// use specweb_core::dist::ExponentialPopularity;
/// use specweb_core::Bytes;
/// let m = ExponentialPopularity::new(ExponentialPopularity::BU_WWW_LAMBDA).unwrap();
/// // The paper's §2.3 example: 90% shielding needs ≈3.7 MB per server.
/// let b = m.bytes_for_fraction(0.9).unwrap();
/// assert!((b.as_f64() / 1e6 - 3.69).abs() < 0.1);
/// assert!((m.hit_probability(b) - 0.9).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialPopularity {
    lambda: f64,
}

impl ExponentialPopularity {
    /// The paper's measured value for `cs-www.bu.edu`.
    pub const BU_WWW_LAMBDA: f64 = 6.247e-7;

    /// Creates a model with rate `lambda` (per byte); must be positive.
    pub fn new(lambda: f64) -> Result<Self> {
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(CoreError::invalid_config(
                "popularity.lambda",
                format!("must be positive, got {lambda}"),
            ));
        }
        Ok(ExponentialPopularity { lambda })
    }

    /// The rate parameter λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Hit probability `H(b) = 1 − exp(−λ b)` for a replica of `b` bytes.
    #[inline]
    pub fn hit_probability(&self, b: Bytes) -> f64 {
        1.0 - (-self.lambda * b.as_f64()).exp()
    }

    /// Density `h(b) = λ exp(−λ b)` (eq. 3).
    #[inline]
    pub fn density(&self, b: Bytes) -> f64 {
        self.lambda * (-self.lambda * b.as_f64()).exp()
    }

    /// Inverse of `H`: the replica size needed to intercept a fraction
    /// `alpha` of requests — `b = ln(1/(1−α)) / λ` (the per-server form
    /// of eq. 10). `alpha` must be in `[0, 1)`.
    pub fn bytes_for_fraction(&self, alpha: f64) -> Result<Bytes> {
        if !(0.0..1.0).contains(&alpha) {
            return Err(CoreError::invalid_config(
                "popularity.alpha",
                format!("must be in [0, 1), got {alpha}"),
            ));
        }
        let b = -(1.0 - alpha).ln() / self.lambda;
        Ok(Bytes::new(b.ceil() as u64))
    }
}

// ---------------------------------------------------------------------------
// Empirical hit curves and λ estimation
// ---------------------------------------------------------------------------

/// An empirical hit curve: points `(b_k, H_k)` where `H_k` is the fraction
/// of requests satisfied by replicating the most popular `b_k` bytes.
///
/// Built from per-document `(size, request_count)` pairs; documents are
/// ranked by request **density** (requests per byte), which is both the
/// optimal replica packing and what the paper's equal-size 256 KB block
/// ranking reduces to.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HitCurve {
    /// Cumulative bytes after each document, ascending.
    bytes: Vec<u64>,
    /// Cumulative request fraction after each document, ascending in (0, 1].
    hits: Vec<f64>,
    total_requests: u64,
    total_bytes: u64,
}

impl HitCurve {
    /// Builds a hit curve from per-document `(size, requests)` pairs.
    /// Documents with zero requests contribute bytes only at the tail and
    /// are dropped (they never improve the curve).
    pub fn from_documents(docs: &[(Bytes, u64)]) -> Result<Self> {
        let total_requests: u64 = docs.iter().map(|&(_, r)| r).sum();
        if total_requests == 0 {
            return Err(CoreError::Estimation(
                "hit curve needs at least one request".into(),
            ));
        }
        let mut ranked: Vec<(u64, u64)> = docs
            .iter()
            .filter(|&&(_, r)| r > 0)
            .map(|&(s, r)| (s.get().max(1), r))
            .collect();
        // Rank by requests-per-byte, descending; ties broken by smaller
        // size first (denser packing).
        ranked.sort_by(|a, b| {
            let da = a.1 as f64 / a.0 as f64;
            let db = b.1 as f64 / b.0 as f64;
            db.total_cmp(&da).then(a.0.cmp(&b.0))
        });
        let mut bytes = Vec::with_capacity(ranked.len());
        let mut hits = Vec::with_capacity(ranked.len());
        let mut cum_b = 0u64;
        let mut cum_r = 0u64;
        for (s, r) in ranked {
            cum_b = cum_b.saturating_add(s);
            cum_r = cum_r.saturating_add(r);
            bytes.push(cum_b);
            hits.push(cum_r as f64 / total_requests as f64);
        }
        Ok(HitCurve {
            bytes,
            hits,
            total_requests,
            total_bytes: cum_b,
        })
    }

    /// Number of (requested) documents on the curve.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the curve is empty (never true after `from_documents`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Total requests across all documents.
    #[inline]
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Total bytes of requested documents.
    #[inline]
    pub fn total_bytes(&self) -> Bytes {
        Bytes::new(self.total_bytes)
    }

    /// Empirical `H(b)`: fraction of requests satisfied by the best
    /// replica of at most `b` bytes (step interpolation: only whole
    /// documents are replicated).
    pub fn hit_fraction(&self, b: Bytes) -> f64 {
        let idx = self.bytes.partition_point(|&x| x <= b.get());
        if idx == 0 {
            0.0
        } else {
            self.hits[idx - 1]
        }
    }

    /// The curve's points as `(cumulative_bytes, hit_fraction)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (Bytes, f64)> + '_ {
        self.bytes
            .iter()
            .zip(&self.hits)
            .map(|(&b, &h)| (Bytes::new(b), h))
    }

    /// Fits λ by least squares on the linearized model
    /// `−ln(1 − H) = λ b` (regression through the origin), using points
    /// with `H < cap` (points too close to 1 have exploding transforms;
    /// the paper's curves saturate well before the catalog tail).
    pub fn fit_lambda(&self, cap: f64) -> Result<ExponentialPopularity> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (b, h) in self.bytes.iter().zip(&self.hits) {
            if *h < cap {
                xs.push(*b as f64);
                ys.push(-(1.0 - h).ln());
            }
        }
        let lambda = slope_through_origin(&xs, &ys)
            .ok_or_else(|| CoreError::Estimation("hit curve too degenerate to fit λ".into()))?;
        ExponentialPopularity::new(lambda)
    }

    /// Fits λ from a single anchor point: the replica fraction `frac` of
    /// total bytes and the hit rate the curve achieves there, solving
    /// `H = 1 − exp(−λ b)` for λ. A robust quick estimate when the curve
    /// is too jagged for regression.
    pub fn fit_lambda_at(&self, frac: f64) -> Result<ExponentialPopularity> {
        if !(0.0 < frac && frac <= 1.0) {
            return Err(CoreError::invalid_config("fit.frac", "must be in (0, 1]"));
        }
        let b = (self.total_bytes as f64 * frac).max(1.0);
        let h = self.hit_fraction(Bytes::new(b as u64)).min(1.0 - 1e-12);
        if h <= 0.0 {
            return Err(CoreError::Estimation(
                "anchor point has zero hit rate".into(),
            ));
        }
        ExponentialPopularity::new(-(1.0 - h).ln() / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;

    #[test]
    fn zipf_weights_normalized_and_monotone() {
        let z = Zipf::new(100, 1.0).unwrap();
        let sum: f64 = z.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        for w in z.weights().windows(2) {
            assert!(w[0] >= w[1], "weights must decrease with rank");
        }
        assert!(z.weight(0) > z.weight(99));
    }

    #[test]
    fn zipf_head_mass() {
        let z = Zipf::new(1000, 1.0).unwrap();
        assert_eq!(z.head_mass(0), 0.0);
        assert!((z.head_mass(1000) - 1.0).abs() < 1e-12);
        // With θ=1 over 1000 items the top 10% holds well over half the mass.
        assert!(z.head_mass(100) > 0.6, "got {}", z.head_mass(100));
    }

    #[test]
    fn zipf_sampling_matches_weights() {
        let z = Zipf::new(50, 0.9).unwrap();
        let mut rng = SeedTree::new(1).child("zipf").rng();
        let n = 200_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for r in [0usize, 1, 5, 20] {
            let emp = counts[r] as f64 / n as f64;
            let exp = z.weight(r);
            assert!(
                (emp - exp).abs() < 0.01,
                "rank {r}: empirical {emp} vs expected {exp}"
            );
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0).unwrap();
        for r in 0..4 {
            assert!((z.weight(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_rejects_bad_input() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
    }

    #[test]
    fn zipf_fit_recovers_theta() {
        for theta in [0.6, 1.0, 1.3] {
            let z = Zipf::new(300, theta).unwrap();
            let mut rng = SeedTree::new(77).child("zfit").rng();
            let mut counts = vec![0u64; 300];
            for _ in 0..300_000 {
                counts[z.sample(&mut rng)] += 1;
            }
            let fit = fit_zipf_theta(&counts).unwrap();
            assert!((fit - theta).abs() < 0.15, "θ={theta}: fit {fit}");
        }
    }

    #[test]
    fn zipf_fit_rejects_degenerate_input() {
        assert!(fit_zipf_theta(&[]).is_err());
        assert!(fit_zipf_theta(&[5, 3]).is_err());
        assert!(fit_zipf_theta(&[0, 0, 0]).is_err());
        // Uniform counts fit θ ≈ 0.
        let theta = fit_zipf_theta(&[10, 10, 10, 10, 10]).unwrap();
        assert!(theta.abs() < 1e-9);
    }

    #[test]
    fn pareto_respects_bounds() {
        let p = BoundedPareto::new(1.2, 100.0, 1_000_000.0).unwrap();
        let mut rng = SeedTree::new(2).child("pareto").rng();
        for _ in 0..10_000 {
            let x = p.sample(&mut rng);
            assert!((100.0..=1_000_000.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // Median far below mean is the heavy-tail signature.
        let p = BoundedPareto::new(1.1, 1_000.0, 10_000_000.0).unwrap();
        let mut rng = SeedTree::new(3).child("pareto2").rng();
        let mut xs: Vec<f64> = (0..20_000).map(|_| p.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean > 2.0 * median, "mean {mean} median {median}");
    }

    #[test]
    fn pareto_inv_cdf_endpoints() {
        let p = BoundedPareto::new(1.5, 10.0, 1000.0).unwrap();
        assert!((p.inv_cdf(0.0) - 10.0).abs() < 1e-6);
        assert!(p.inv_cdf(0.999999) <= 1000.0 + 1e-6);
    }

    #[test]
    fn pareto_rejects_bad_input() {
        assert!(BoundedPareto::new(0.0, 1.0, 2.0).is_err());
        assert!(BoundedPareto::new(1.0, 2.0, 1.0).is_err());
        assert!(BoundedPareto::new(1.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn pareto_sample_bytes_at_least_one() {
        // Sub-byte samples round up to 1 byte.
        let p = BoundedPareto::new(1.2, 0.1, 2.0).unwrap();
        let mut rng = SeedTree::new(4).child("b").rng();
        assert!(p.sample_bytes(&mut rng).get() >= 1);
    }

    #[test]
    fn exponential_model_basics() {
        let m = ExponentialPopularity::new(ExponentialPopularity::BU_WWW_LAMBDA).unwrap();
        assert!((m.hit_probability(Bytes::ZERO)).abs() < 1e-12);
        // λ·b = 1 → H = 1 − e⁻¹ ≈ 0.632.
        let b = Bytes::new((1.0 / m.lambda()).round() as u64);
        assert!((m.hit_probability(b) - 0.632).abs() < 0.01);
        assert!(m.density(Bytes::ZERO) > m.density(Bytes::from_mib(10)));
    }

    #[test]
    fn exponential_model_paper_sizing_example() {
        // §2.3: λ = 6.247e-7, α = 0.9 per server ⇒ ≈ 3.686 MB per server,
        // ×10 servers ≈ 36 MB.
        let m = ExponentialPopularity::new(6.247e-7).unwrap();
        let per_server = m.bytes_for_fraction(0.9).unwrap();
        let total_mb = per_server.get() as f64 * 10.0 / 1e6;
        assert!(
            (total_mb - 36.0).abs() < 1.0,
            "paper says ≈36 MB, got {total_mb:.1} MB"
        );
    }

    #[test]
    fn exponential_model_inverse_roundtrip() {
        let m = ExponentialPopularity::new(1e-6).unwrap();
        for alpha in [0.1, 0.5, 0.9, 0.99] {
            let b = m.bytes_for_fraction(alpha).unwrap();
            let h = m.hit_probability(b);
            assert!((h - alpha).abs() < 1e-3, "α={alpha} → H={h}");
        }
    }

    #[test]
    fn exponential_model_rejects_bad_input() {
        assert!(ExponentialPopularity::new(0.0).is_err());
        assert!(ExponentialPopularity::new(-1.0).is_err());
        assert!(ExponentialPopularity::new(f64::NAN).is_err());
        let m = ExponentialPopularity::new(1e-6).unwrap();
        assert!(m.bytes_for_fraction(1.0).is_err());
        assert!(m.bytes_for_fraction(-0.1).is_err());
    }

    fn synthetic_exponential_docs(lambda: f64, n: usize) -> Vec<(Bytes, u64)> {
        // Build equal-size documents whose cumulative hit curve follows
        // H(b) = 1 − exp(−λ b) exactly, then check the fit recovers λ.
        let size = 10_000u64;
        let mut docs = Vec::with_capacity(n);
        let mut prev = 0.0;
        for k in 1..=n {
            let b = (k as u64 * size) as f64;
            let h = 1.0 - (-lambda * b).exp();
            let share = h - prev;
            prev = h;
            docs.push((Bytes::new(size), (share * 1e9) as u64));
        }
        docs
    }

    #[test]
    fn hit_curve_fit_recovers_lambda() {
        // Use enough documents that H(b_max) ≈ 1: the empirical curve is
        // normalized by *observed* requests, so an unsaturated synthetic
        // curve would be rescaled and bias the fit.
        let lambda = 5e-7;
        let docs = synthetic_exponential_docs(lambda, 2_000);
        let curve = HitCurve::from_documents(&docs).unwrap();
        let fit = curve.fit_lambda(0.98).unwrap();
        let rel = (fit.lambda() - lambda).abs() / lambda;
        assert!(rel < 0.05, "fit λ={} true λ={lambda}", fit.lambda());
        let fit2 = curve.fit_lambda_at(0.25).unwrap();
        let rel2 = (fit2.lambda() - lambda).abs() / lambda;
        assert!(rel2 < 0.1, "anchor fit λ={}", fit2.lambda());
    }

    #[test]
    fn hit_curve_orders_by_density() {
        // A tiny hot doc must come before a huge lukewarm one.
        let docs = vec![
            (Bytes::new(1_000_000), 100u64), // 0.0001 req/B
            (Bytes::new(1_000), 50u64),      // 0.05 req/B
        ];
        let c = HitCurve::from_documents(&docs).unwrap();
        // After the first 1 KB we already have 50/150 of the hits.
        let h = c.hit_fraction(Bytes::new(1_000));
        assert!((h - 50.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn hit_curve_monotone_and_bounded() {
        let docs: Vec<(Bytes, u64)> = (1..=100).map(|i| (Bytes::new(i * 100), 1000 / i)).collect();
        let c = HitCurve::from_documents(&docs).unwrap();
        let pts: Vec<(Bytes, f64)> = c.points().collect();
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
        assert_eq!(c.hit_fraction(Bytes::ZERO), 0.0);
        assert!((c.hit_fraction(c.total_bytes()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hit_curve_ignores_unrequested_docs() {
        let docs = vec![
            (Bytes::new(100), 10u64),
            (Bytes::new(1_000_000), 0u64), // never requested
        ];
        let c = HitCurve::from_documents(&docs).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.total_bytes(), Bytes::new(100));
    }

    #[test]
    fn hit_curve_rejects_empty() {
        assert!(HitCurve::from_documents(&[]).is_err());
        assert!(HitCurve::from_documents(&[(Bytes::new(10), 0)]).is_err());
    }
}
