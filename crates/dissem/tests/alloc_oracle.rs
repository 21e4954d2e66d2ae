//! Independent oracles for the eq. 1–5 allocator and the eq. 9/10
//! closed forms. Closure, `P` and `decide` each have a brute-force twin;
//! these are the allocator's. None of them re-derives the closed form:
//! (a) searches budget shares exhaustively, (b) checks the optimality
//! conditions any maximiser of eq. 1 must meet, (c) inverts eq. 9
//! numerically.

use proptest::prelude::*;
use specweb_core::units::Bytes;
use specweb_dissem::alloc::{
    alpha_for_storage, optimize, predict_alpha, storage_for_alpha, ServerModel,
};

fn models(params: &[(f64, f64)]) -> Vec<ServerModel> {
    let model = |&(lambda, demand)| ServerModel { lambda, demand };
    params.iter().map(model).collect()
}

/// Every split of `b0` into whole bytes whose shares are multiples of
/// 1/`steps`, the last server taking what is left.
fn grid(n: usize, steps: u64, b0: u64) -> Vec<Vec<Bytes>> {
    // Shares of all but the last server, in units of 1/`steps`.
    let mut shares: Vec<Vec<u64>> = vec![Vec::new()];
    for _ in 1..n {
        let mut longer = Vec::new();
        for taken in &shares {
            let used: u64 = taken.iter().sum();
            for k in 0..=steps - used {
                longer.push([taken.as_slice(), &[k]].concat());
            }
        }
        shares = longer;
    }
    let split = |taken: Vec<u64>| {
        let mut bytes: Vec<u64> = taken.iter().map(|&k| b0 * k / steps).collect();
        bytes.push(b0 - bytes.iter().sum::<u64>());
        bytes.into_iter().map(Bytes::new).collect()
    };
    shares.into_iter().map(split).collect()
}

/// (a) Exhaustive search. No grid point beats `optimize` by more than
/// the whole-byte rounding it applies. (On these instances the best of
/// the 201 or 20 301 points reads within 2e-5 of the optimum's `α`, so
/// an allocation worse than that would be caught.)
#[test]
fn optimize_is_not_beaten_by_exhaustive_search_over_budget_shares() {
    const STEPS: u64 = 200;
    let instances: [(&[(f64, f64)], u64); 6] = [
        // Two servers: symmetric, skewed demand, skewed rate.
        (&[(6.247e-7, 1e6), (6.247e-7, 1e6)], 4 << 20),
        (&[(6.247e-7, 1e6), (6.247e-7, 3e4)], 4 << 20),
        (&[(2e-6, 5e5), (3e-7, 5e5)], 8 << 20),
        // Tight budget: water-filling pins the unpopular server at 0.
        (&[(6.247e-7, 1e6), (6.247e-7, 1e2)], 1 << 20),
        // Three servers, all active; then one pinned, one without demand.
        (&[(6.247e-7, 1e6), (1e-6, 4e5), (3e-7, 8e5)], 16 << 20),
        (&[(6.247e-7, 1e6), (5e-7, 1e1), (1e-6, 0.0)], 2 << 20),
    ];
    for (params, b0) in instances {
        let servers = models(params);
        let n = servers.len();
        let opt = optimize(&servers, Bytes::new(b0)).unwrap();
        let points = grid(n, STEPS, b0);
        assert_eq!(points.len(), if n == 2 { 201 } else { 201 * 202 / 2 });
        let best = points
            .iter()
            .map(|split| predict_alpha(&servers, split))
            .fold(0.0, f64::max);
        // α moves by at most max λ per byte, and rounding moves each
        // quota by under a byte.
        let max_lambda = params.iter().map(|p| p.0).fold(0.0, f64::max);
        let rounding = n as f64 * max_lambda;
        assert!(
            opt.alpha >= best - rounding,
            "{params:?}: grid found α = {best}, optimize {}",
            opt.alpha
        );
    }
}

/// Demands spanning five orders of magnitude (and some zero), so that
/// small budgets pin servers at the boundary.
fn skewed_servers() -> impl Strategy<Value = Vec<ServerModel>> {
    let demand = prop_oneof![Just(0.0), 1e2f64..1e4, 1e4f64..1e7];
    let server =
        (1e-8f64..1e-5, demand).prop_map(|(lambda, demand)| ServerModel { lambda, demand });
    prop::collection::vec(server, 2..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (b) KKT residuals. A maximiser of eq. 1 under `Σ B_i = B₀`,
    /// `B_i ≥ 0` has one marginal gain `R_i λ_i e^{−λ_i B_i}` across
    /// every server with a positive quota, and no server left at zero
    /// would gain more than that.
    #[test]
    fn optimize_meets_the_kkt_conditions(
        servers in skewed_servers(),
        b0 in 0u64..(64 << 20),
    ) {
        let alloc = optimize(&servers, Bytes::new(b0)).unwrap();
        let total: u64 = alloc.bytes.iter().map(|b| b.get()).sum();
        if servers.iter().any(|s| s.demand > 0.0) {
            prop_assert_eq!(total, b0);
        }
        // `optimize` rounds each quota by under a byte, which scales a
        // marginal by e^{±λ}.
        let tol = 2.0 * servers.iter().map(|s| s.lambda).fold(0.0, f64::max) + 1e-9;
        let marginal = |s: &ServerModel, b: Bytes| s.demand * s.lambda * (-s.lambda * b.as_f64()).exp();
        let funded: Vec<f64> = servers
            .iter()
            .zip(&alloc.bytes)
            .filter(|(_, b)| b.get() > 0)
            .map(|(s, &b)| marginal(s, b))
            .collect();
        let Some(common) = funded.iter().copied().reduce(f64::max) else {
            return Ok(());
        };
        for m in &funded {
            prop_assert!(common - m <= tol * common,
                "marginals differ: {m} vs {common} in {servers:?} → {:?}", alloc.bytes);
        }
        for (s, b) in servers.iter().zip(&alloc.bytes) {
            if b.get() == 0 {
                let at_zero = marginal(s, Bytes::ZERO);
                prop_assert!(at_zero <= common * (1.0 + tol),
                    "a pinned server would gain {at_zero} > {common} in {servers:?} → {:?}",
                    alloc.bytes);
            }
        }
    }
}

/// (c) Numeric inversion of eq. 9: the least storage whose `α` reaches
/// the target, found by bisection, is what the corrected eq. 10 says.
#[test]
fn storage_for_alpha_inverts_alpha_for_storage() {
    for n in [1usize, 3, 10, 50] {
        for lambda in [1e-8, 6.247e-7, 1e-5] {
            for alpha in [0.0, 0.1, 0.5, 0.9, 0.99] {
                let closed = storage_for_alpha(n, lambda, alpha).unwrap().get();
                let reaches = |b: u64| alpha_for_storage(n, lambda, Bytes::new(b)) >= alpha;
                let (mut lo, mut hi) = (0u64, 1u64 << 50);
                assert!(reaches(hi));
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if reaches(mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                // One byte for the ceiling, plus the bytes over which α
                // — a double near 1 — cannot change by more than 4 ulp.
                let slope = lambda / n as f64 * (1.0 - alpha);
                let tol = 1 + (4.0 * f64::EPSILON / slope).ceil() as u64;
                assert!(
                    closed.abs_diff(lo) <= tol,
                    "n={n} λ={lambda} α={alpha}: eq. 10 gives {closed}, bisection {lo}"
                );
            }
        }
    }
}
