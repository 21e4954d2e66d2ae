//! Proxy storage allocation (§2.1–§2.3).
//!
//! Given a cluster of servers `S₁…Sₙ` with demands `R_i` (bytes/day
//! served outside the cluster) and exponential popularity rates `λ_i`,
//! the proxy `S₀` must split its storage `B₀` into per-server quotas
//! `B_i` maximizing the intercepted fraction (eq. 1):
//!
//! ```text
//! α_C = Σ R_i·H_i(B_i) / Σ R_i,   H_i(b) = 1 − exp(−λ_i b)
//! ```
//!
//! Setting all marginal gains equal (eq. 2) under the exponential model
//! yields the closed form of eqs. 4–5. Two engineering notes recorded
//! here because they matter for a faithful implementation:
//!
//! * **Non-negativity.** The closed form can assign `B_j < 0` to a
//!   sufficiently unpopular server. The true constrained optimum (KKT)
//!   drops such servers and re-solves over the rest — the classic
//!   water-filling loop, implemented in [`optimize`].
//! * **Eq. 10 as printed has a typo.** Solving eq. 9 for `B₀` gives
//!   `B₀ = (n/λ)·ln(1/(1−α))`, not `ln(1/α)`; the paper's own numeric
//!   example (λ = 6.247×10⁻⁷, n = 10, α = 0.9 ⇒ ≈36 MB) matches the
//!   corrected form, which is what [`storage_for_alpha`] implements.
//!
//! For popularity profiles that are *not* well fitted by an exponential,
//! [`optimize_empirical`] allocates directly against measured hit curves
//! by greedy marginal density — optimal for the fractional relaxation
//! and the natural generalization the paper gestures at in §2.3.

use serde::{Deserialize, Serialize};
use specweb_core::units::Bytes;
use specweb_core::{CoreError, Result};

use crate::analysis::ServerProfile;

/// One server's fitted model parameters: `(λ_i, R_i)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerModel {
    /// Exponential popularity rate `λ_i` (per byte).
    pub lambda: f64,
    /// Demand `R_i` (bytes/day served outside the cluster).
    pub demand: f64,
}

impl ServerModel {
    /// Hit probability for a replica of `b` bytes.
    pub fn hit(&self, b: f64) -> f64 {
        1.0 - (-self.lambda * b).exp()
    }
}

/// A computed allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    /// Per-server quotas `B_i`, aligned with the input order.
    pub bytes: Vec<Bytes>,
    /// Predicted intercepted fraction `α_C` (eq. 1).
    pub alpha: f64,
}

fn validate(servers: &[ServerModel]) -> Result<()> {
    if servers.is_empty() {
        return Err(CoreError::invalid_config(
            "alloc.servers",
            "need at least one server",
        ));
    }
    for (i, s) in servers.iter().enumerate() {
        if !(s.lambda.is_finite() && s.lambda > 0.0) {
            return Err(CoreError::invalid_config(
                "alloc.lambda",
                format!("server {i}: λ must be positive, got {}", s.lambda),
            ));
        }
        if !(s.demand.is_finite() && s.demand >= 0.0) {
            return Err(CoreError::invalid_config(
                "alloc.demand",
                format!("server {i}: R must be non-negative, got {}", s.demand),
            ));
        }
    }
    Ok(())
}

/// Predicted `α_C` (eq. 1) for a given allocation.
pub fn predict_alpha(servers: &[ServerModel], bytes: &[Bytes]) -> f64 {
    let total_r: f64 = servers.iter().map(|s| s.demand).sum();
    if total_r <= 0.0 {
        return 0.0;
    }
    servers
        .iter()
        .zip(bytes)
        .map(|(s, &b)| s.demand * s.hit(b.as_f64()))
        .sum::<f64>()
        / total_r
}

/// The optimal allocation (eqs. 4–5 with the non-negativity
/// water-filling loop).
///
/// ```
/// use specweb_core::Bytes;
/// use specweb_dissem::alloc::{optimize, ServerModel};
/// // One popular and one unpopular server sharing a 1 MiB proxy.
/// let servers = [
///     ServerModel { lambda: 6.247e-7, demand: 1e6 },
///     ServerModel { lambda: 6.247e-7, demand: 1e4 },
/// ];
/// let a = optimize(&servers, Bytes::from_mib(1)).unwrap();
/// assert!(a.bytes[0] > a.bytes[1]);           // popularity earns space
/// let used: u64 = a.bytes.iter().map(|b| b.get()).sum();
/// assert_eq!(used, Bytes::from_mib(1).get()); // budget fully used
/// assert!(a.alpha > 0.0 && a.alpha < 1.0);
/// ```
pub fn optimize(servers: &[ServerModel], b0: Bytes) -> Result<Allocation> {
    validate(servers)?;
    let n = servers.len();
    let budget = b0.as_f64();

    // Active set: servers that may receive a positive quota.
    let mut active: Vec<bool> = servers.iter().map(|s| s.demand > 0.0).collect();
    let mut raw = vec![0.0f64; n];

    // Water-filling re-solves are bounded by the server count but vary
    // with the demand skew; the run's total is a cheap health signal
    // for the allocator (deterministic: it depends only on the inputs,
    // never on scheduling).
    let alloc_iterations =
        specweb_core::obs::current().map(|obs| obs.metrics.counter("dissem.alloc_iterations"));

    loop {
        if let Some(iterations) = &alloc_iterations {
            iterations.incr();
        }
        // Closed form over the active set:
        //   B_j = (1/λ_j)·(ln(λ_j R_j) − c),
        //   c   = [Σ (1/λ_j)·ln(λ_j R_j) − B₀] / Σ (1/λ_j).
        let mut sum_inv = 0.0;
        let mut sum_term = 0.0;
        for (i, s) in servers.iter().enumerate() {
            if active[i] {
                sum_inv += 1.0 / s.lambda;
                sum_term += (s.lambda * s.demand).ln() / s.lambda;
            }
        }
        if sum_inv == 0.0 {
            // Nothing worth allocating to.
            raw.iter_mut().for_each(|b| *b = 0.0);
            break;
        }
        let c = (sum_term - budget) / sum_inv;
        let mut any_negative = false;
        for (i, s) in servers.iter().enumerate() {
            raw[i] = if active[i] {
                let b = ((s.lambda * s.demand).ln() - c) / s.lambda;
                if b < 0.0 {
                    any_negative = true;
                }
                b
            } else {
                0.0
            };
        }
        if !any_negative {
            break;
        }
        // KKT: deactivate servers pinned at the boundary and re-solve.
        for i in 0..n {
            if active[i] && raw[i] < 0.0 {
                active[i] = false;
            }
        }
    }

    // Round to whole bytes, preserving the budget exactly: floor each,
    // hand out the remainder to the largest fractional parts.
    let mut bytes: Vec<u64> = raw.iter().map(|&b| b.max(0.0).floor() as u64).collect();
    let assigned: u64 = bytes.iter().sum();
    let mut leftover = b0.get().saturating_sub(assigned);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a].max(0.0).fract();
        let fb = raw[b].max(0.0).fract();
        // total_cmp: a NaN share (degenerate zero-demand server) must
        // sort deterministically instead of panicking mid-allocation.
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &i in &order {
        if leftover == 0 {
            break;
        }
        if raw[i] > 0.0 {
            bytes[i] += 1;
            leftover -= 1;
        }
    }

    let bytes: Vec<Bytes> = bytes.into_iter().map(Bytes::new).collect();
    let alpha = predict_alpha(servers, &bytes);
    Ok(Allocation { bytes, alpha })
}

/// Eq. 6 — equal duplication effectiveness (`λ_i = λ` for all i):
/// `B_j = B₀/n + (1/λ)·ln(R_j / geomean(R))`. May go negative for very
/// unpopular servers, exactly as in the paper; use [`optimize`] for the
/// constrained version.
pub fn allocate_equal_lambda(lambda: f64, demands: &[f64], b0: Bytes) -> Result<Vec<f64>> {
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(CoreError::invalid_config(
            "alloc.lambda",
            "must be positive",
        ));
    }
    if demands.is_empty() || demands.iter().any(|&r| r <= 0.0) {
        return Err(CoreError::invalid_config(
            "alloc.demands",
            "all demands must be positive for the closed form",
        ));
    }
    let n = demands.len() as f64;
    let log_geomean = demands.iter().map(|r| r.ln()).sum::<f64>() / n;
    Ok(demands
        .iter()
        .map(|r| b0.as_f64() / n + (r.ln() - log_geomean) / lambda)
        .collect())
}

/// Eq. 7 — equally popular servers (`R_i = R` for all i):
/// `B_j = (1/Σ_i λ_j/λ_i)·(B₀ + Σ_i (1/λ_i)·ln(λ_j/λ_i))`.
pub fn allocate_equal_demand(lambdas: &[f64], b0: Bytes) -> Result<Vec<f64>> {
    if lambdas.is_empty() || lambdas.iter().any(|&l| !(l.is_finite() && l > 0.0)) {
        return Err(CoreError::invalid_config(
            "alloc.lambdas",
            "all λ must be positive",
        ));
    }
    Ok(lambdas
        .iter()
        .map(|&lj| {
            let denom: f64 = lambdas.iter().map(|&li| lj / li).sum();
            let corr: f64 = lambdas.iter().map(|&li| (lj / li).ln() / li).sum();
            (b0.as_f64() + corr) / denom
        })
        .collect())
}

/// Eq. 10 (corrected; see module docs) — the proxy storage needed so a
/// symmetric cluster of `n` servers with rate `λ` is shielded from a
/// fraction `alpha` of its remote requests.
pub fn storage_for_alpha(n: usize, lambda: f64, alpha: f64) -> Result<Bytes> {
    if n == 0 {
        return Err(CoreError::invalid_config("alloc.n", "must be positive"));
    }
    if !(lambda.is_finite() && lambda > 0.0) {
        return Err(CoreError::invalid_config(
            "alloc.lambda",
            "must be positive",
        ));
    }
    if !(0.0..1.0).contains(&alpha) {
        return Err(CoreError::invalid_config(
            "alloc.alpha",
            "must be in [0, 1)",
        ));
    }
    let b0 = n as f64 / lambda * (1.0 / (1.0 - alpha)).ln();
    Ok(Bytes::new(b0.ceil() as u64))
}

/// Eq. 9 — the `α` a symmetric cluster achieves with storage `b0`.
pub fn alpha_for_storage(n: usize, lambda: f64, b0: Bytes) -> f64 {
    1.0 - (-lambda * b0.as_f64() / n as f64).exp()
}

/// Baseline: uniform split `B_j = B₀/n`.
pub fn allocate_uniform(servers: &[ServerModel], b0: Bytes) -> Result<Allocation> {
    validate(servers)?;
    let share = b0.get() / servers.len() as u64;
    let bytes: Vec<Bytes> = servers.iter().map(|_| Bytes::new(share)).collect();
    let alpha = predict_alpha(servers, &bytes);
    Ok(Allocation { bytes, alpha })
}

/// Baseline: split proportional to demand `R_j`.
pub fn allocate_proportional(servers: &[ServerModel], b0: Bytes) -> Result<Allocation> {
    validate(servers)?;
    let total_r: f64 = servers.iter().map(|s| s.demand).sum();
    let bytes: Vec<Bytes> = if total_r <= 0.0 {
        servers.iter().map(|_| Bytes::ZERO).collect()
    } else {
        servers
            .iter()
            .map(|s| Bytes::new((b0.as_f64() * s.demand / total_r).floor() as u64))
            .collect()
    };
    let alpha = predict_alpha(servers, &bytes);
    Ok(Allocation { bytes, alpha })
}

/// Empirical allocation against measured hit curves: greedily pick the
/// globally best next document by remote-request density until `B₀` is
/// exhausted. Returns per-server quotas (sum ≤ `B₀`; the gap is at most
/// one document) plus the documents chosen per server.
pub fn optimize_empirical(
    profiles: &[&ServerProfile],
    b0: Bytes,
) -> Result<(Allocation, Vec<Vec<specweb_core::ids::DocId>>)> {
    if profiles.is_empty() {
        return Err(CoreError::invalid_config(
            "alloc.profiles",
            "need at least one profile",
        ));
    }
    // Flatten all docs with their server index; rank by density.
    struct Cand {
        server: usize,
        doc: specweb_core::ids::DocId,
        size: u64,
        density: f64,
    }
    let mut cands = Vec::new();
    for (si, p) in profiles.iter().enumerate() {
        for &(doc, size, remote, _) in &p.docs {
            if remote > 0 {
                cands.push(Cand {
                    server: si,
                    doc,
                    size: size.get().max(1),
                    density: remote as f64 / size.get().max(1) as f64,
                });
            }
        }
    }
    // total_cmp, not partial_cmp: NaN densities cannot occur for sane
    // inputs, but a degenerate profile must degrade to a deterministic
    // order rather than abort the optimizer.
    cands.sort_by(|a, b| {
        b.density
            .total_cmp(&a.density)
            .then(a.server.cmp(&b.server))
            .then(a.doc.cmp(&b.doc))
    });

    let mut remaining = b0.get();
    let mut quotas = vec![0u64; profiles.len()];
    let mut picked: Vec<Vec<specweb_core::ids::DocId>> = vec![Vec::new(); profiles.len()];
    for c in cands {
        if c.size <= remaining {
            remaining -= c.size;
            quotas[c.server] = quotas[c.server].saturating_add(c.size);
            picked[c.server].push(c.doc);
        }
    }

    // Achieved alpha: intercepted remote requests / total remote requests.
    let mut total = 0u64;
    let mut hit = 0u64;
    for (si, p) in profiles.iter().enumerate() {
        total = total.saturating_add(p.total_remote_requests());
        let set: std::collections::BTreeSet<_> = picked[si].iter().copied().collect();
        for &(doc, _, remote, _) in &p.docs {
            if set.contains(&doc) {
                hit = hit.saturating_add(remote);
            }
        }
    }
    let alpha = if total == 0 {
        0.0
    } else {
        hit as f64 / total as f64
    };
    Ok((
        Allocation {
            bytes: quotas.into_iter().map(Bytes::new).collect(),
            alpha,
        },
        picked,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models(pairs: &[(f64, f64)]) -> Vec<ServerModel> {
        pairs
            .iter()
            .map(|&(lambda, demand)| ServerModel { lambda, demand })
            .collect()
    }

    const LAMBDA: f64 = 6.247e-7; // the paper's cs-www.bu.edu fit

    #[test]
    fn symmetric_cluster_splits_evenly() {
        // Eq. 8: identical servers ⇒ B_j = B₀/n.
        let servers = models(&[(LAMBDA, 100.0); 10]);
        let b0 = Bytes::from_mib(36);
        let a = optimize(&servers, b0).unwrap();
        let share = b0.get() / 10;
        for &b in &a.bytes {
            assert!(
                (b.get() as i64 - share as i64).abs() <= 1,
                "expected ≈{share}, got {b}"
            );
        }
        let total: u64 = a.bytes.iter().map(|b| b.get()).sum();
        assert_eq!(total, b0.get(), "budget must be fully used");
    }

    #[test]
    fn paper_sizing_example_36mb_for_90pct() {
        // §2.3: 10 servers, 90% shielding, λ = 6.247e-7 ⇒ ≈36 MB.
        let b0 = storage_for_alpha(10, LAMBDA, 0.9).unwrap();
        let mb = b0.as_f64() / 1e6;
        assert!((mb - 36.9).abs() < 0.5, "got {mb:.1} MB");
        // And the symmetric-optimum α with that storage is 90%.
        let a = alpha_for_storage(10, LAMBDA, b0);
        assert!((a - 0.9).abs() < 1e-6);
    }

    #[test]
    fn paper_sizing_example_500mb_100_servers() {
        // §2.3: 500 MB shields 100 servers from ≈96%.
        let a = alpha_for_storage(100, LAMBDA, Bytes::new(500_000_000));
        assert!((a - 0.956).abs() < 0.01, "got {a}");
    }

    #[test]
    fn optimizer_matches_eq6_for_equal_lambdas() {
        let demands = [50.0, 100.0, 400.0];
        let servers = models(&[(LAMBDA, 50.0), (LAMBDA, 100.0), (LAMBDA, 400.0)]);
        let b0 = Bytes::from_mib(30);
        let general = optimize(&servers, b0).unwrap();
        let closed = allocate_equal_lambda(LAMBDA, &demands, b0).unwrap();
        for (g, c) in general.bytes.iter().zip(&closed) {
            assert!(
                (g.as_f64() - c).abs() < 2.0,
                "general {g} vs closed-form {c}"
            );
        }
        // Popular servers get more than B₀/n, unpopular less.
        assert!(general.bytes[2] > general.bytes[1]);
        assert!(general.bytes[1] > general.bytes[0]);
    }

    #[test]
    fn optimizer_matches_eq7_for_equal_demand() {
        let lambdas = [4e-7, 8e-7, 1.6e-6];
        let servers = models(&[(4e-7, 100.0), (8e-7, 100.0), (1.6e-6, 100.0)]);
        let b0 = Bytes::from_mib(20); // lax: all quotas positive
        let general = optimize(&servers, b0).unwrap();
        let closed = allocate_equal_demand(&lambdas, b0).unwrap();
        for (g, c) in general.bytes.iter().zip(&closed) {
            assert!(
                (g.as_f64() - c).abs() < 2.0,
                "general {g} vs closed-form {c}"
            );
        }
        // With lax storage, the more uniform (small λ) server gets more.
        assert!(general.bytes[0] > general.bytes[2]);
    }

    #[test]
    fn eq7_tight_storage_favors_intermediate_lambda() {
        // Fig. 2's tight regime: with B₀ ≈ 1/λ, a very small λ_j (too
        // uniform to cover usefully) gets *less* than an intermediate λ_j.
        let li = 1e-6;
        let b0 = Bytes::new((1.0 / li) as u64); // tight
        let others = vec![li; 9];
        let bj_at = |lj: f64| {
            let mut ls = others.clone();
            ls.insert(0, lj);
            allocate_equal_demand(&ls, b0).unwrap()[0]
        };
        let very_uniform = bj_at(li / 100.0);
        let intermediate = bj_at(li / 3.0);
        assert!(
            intermediate > very_uniform,
            "tight storage should favor intermediate λ: B(λ/3)={intermediate} B(λ/100)={very_uniform}"
        );
    }

    #[test]
    fn water_filling_zeroes_unpopular_servers() {
        // One dominant server, one with negligible demand, tiny budget:
        // the closed form would go negative on the small one.
        let servers = models(&[(LAMBDA, 1e9), (LAMBDA, 1.0)]);
        let b0 = Bytes::from_kib(100);
        let a = optimize(&servers, b0).unwrap();
        assert_eq!(a.bytes[1], Bytes::ZERO, "unpopular server must get 0");
        assert_eq!(a.bytes[0], b0, "entire budget to the popular server");
    }

    #[test]
    fn zero_demand_servers_get_nothing() {
        let servers = models(&[(LAMBDA, 100.0), (LAMBDA, 0.0)]);
        let a = optimize(&servers, Bytes::from_mib(1)).unwrap();
        assert_eq!(a.bytes[1], Bytes::ZERO);
        assert_eq!(a.bytes[0], Bytes::from_mib(1));
    }

    #[test]
    fn optimizer_beats_baselines() {
        let servers = models(&[
            (2e-7, 500.0),
            (6e-7, 100.0),
            (1e-6, 50.0),
            (3e-6, 900.0),
            (8e-7, 10.0),
        ]);
        let b0 = Bytes::from_mib(8);
        let opt = optimize(&servers, b0).unwrap();
        let uni = allocate_uniform(&servers, b0).unwrap();
        let pro = allocate_proportional(&servers, b0).unwrap();
        assert!(
            opt.alpha >= uni.alpha - 1e-9,
            "opt {} < uniform {}",
            opt.alpha,
            uni.alpha
        );
        assert!(
            opt.alpha >= pro.alpha - 1e-9,
            "opt {} < proportional {}",
            opt.alpha,
            pro.alpha
        );
        assert!(opt.alpha > 0.0 && opt.alpha < 1.0);
    }

    #[test]
    fn allocation_sums_to_budget_and_is_nonnegative() {
        let servers = models(&[(1e-7, 3.0), (9e-7, 80.0), (5e-6, 41.0), (2e-6, 0.5)]);
        let b0 = Bytes::from_mib(3);
        let a = optimize(&servers, b0).unwrap();
        let total: u64 = a.bytes.iter().map(|b| b.get()).sum();
        assert!(total <= b0.get());
        // Full budget used whenever someone has positive demand.
        assert_eq!(total, b0.get());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(optimize(&[], Bytes::from_mib(1)).is_err());
        assert!(optimize(&models(&[(0.0, 1.0)]), Bytes::from_mib(1)).is_err());
        assert!(optimize(&models(&[(1e-6, -1.0)]), Bytes::from_mib(1)).is_err());
        assert!(storage_for_alpha(0, 1e-6, 0.5).is_err());
        assert!(storage_for_alpha(1, 1e-6, 1.0).is_err());
        assert!(allocate_equal_lambda(1e-6, &[], Bytes::from_mib(1)).is_err());
        assert!(allocate_equal_demand(&[0.0], Bytes::from_mib(1)).is_err());
    }

    #[test]
    fn predict_alpha_bounds() {
        let servers = models(&[(LAMBDA, 10.0), (LAMBDA, 20.0)]);
        assert_eq!(predict_alpha(&servers, &[Bytes::ZERO, Bytes::ZERO]), 0.0);
        let big = Bytes::new(u64::MAX / 4);
        let a = predict_alpha(&servers, &[big, big]);
        assert!((a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn storage_alpha_roundtrip() {
        for alpha in [0.3, 0.6, 0.9, 0.99] {
            let b0 = storage_for_alpha(7, LAMBDA, alpha).unwrap();
            let back = alpha_for_storage(7, LAMBDA, b0);
            assert!((back - alpha).abs() < 1e-3, "α={alpha} → {back}");
        }
    }
}
