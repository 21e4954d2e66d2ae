//! Shared workload construction for the experiment harness.
//!
//! All experiments draw from the same two calibrated workloads so the
//! numbers are comparable across figures:
//!
//! * the **bu** workload — a `cs-www.bu.edu`-flavored single-server
//!   trace (the paper's: 205,925 accesses, 8,474 clients, >20k sessions
//!   over ~90 days);
//! * the **drift** workload — the same site with visible link churn,
//!   for the §3.4 staleness experiment.

use std::sync::atomic::{AtomicUsize, Ordering};

use specweb_core::Result;
use specweb_netsim::topology::Topology;
use specweb_trace::generator::{Trace, TraceConfig, TraceGenerator};

use crate::Scale;

/// Process-wide population multiplier (the `--scale` flag): multiplies
/// `sessions_per_day` and the client count of every workload built by
/// this module. 1 = the paper's population.
static SCALE_FACTOR: AtomicUsize = AtomicUsize::new(1);

/// Sets the population multiplier for every workload built after this
/// call (clamped to ≥ 1). Called once at startup by the `figures`
/// binary; tests that set it must restore it.
pub fn set_scale_factor(factor: usize) {
    SCALE_FACTOR.store(factor.max(1), Ordering::Relaxed);
}

/// The current population multiplier.
pub fn scale_factor() -> usize {
    SCALE_FACTOR.load(Ordering::Relaxed).max(1)
}

/// The clientele tree used throughout: root (server) → 3 national
/// backbones → 9 regionals → 27 edge networks, 6 client leaves each.
/// Clients sit 4 hops from the server; interior nodes are candidate
/// proxies.
pub fn topology() -> Topology {
    Topology::balanced(3, 3, 6)
}

/// The `cs-www.bu.edu`-flavored workload at the requested scale.
pub fn bu_trace(scale: Scale, seed: u64) -> Result<Trace> {
    let _f = specweb_core::obs::profile::frame("workload.trace");
    TraceGenerator::new(bu_config(scale, seed))?.generate(&topology())
}

/// The configuration behind [`bu_trace`], with the process-wide
/// [`scale_factor`] applied to the population.
pub fn bu_config(scale: Scale, seed: u64) -> TraceConfig {
    bu_config_with_factor(scale, seed, scale_factor())
}

/// [`bu_config`] at an explicit population multiplier.
fn bu_config_with_factor(scale: Scale, seed: u64, factor: usize) -> TraceConfig {
    let mut cfg = TraceConfig::bu_www(seed);
    match scale {
        Scale::Full => {
            // ≈ 90 days × 150 sessions × ~16 accesses ≈ 220k accesses.
        }
        Scale::Quick => {
            cfg.site.n_pages = 80;
            cfg.clients.n_clients = 150;
            cfg.duration_days = 16;
            cfg.sessions_per_day = 60;
        }
    }
    if factor > 1 {
        cfg.sessions_per_day = cfg.sessions_per_day.saturating_mul(factor);
        cfg.clients.n_clients = cfg.clients.n_clients.saturating_mul(factor);
    }
    cfg
}

/// The drifting workload for the staleness experiment: same site, but
/// pages re-target their links at a visible rate, over a longer span so
/// a 60-day update cycle can actually go stale.
pub fn drift_trace(scale: Scale, seed: u64) -> Result<Trace> {
    let _f = specweb_core::obs::profile::frame("workload.trace");
    let mut cfg = bu_config(scale, seed);
    match scale {
        Scale::Full => {
            cfg.duration_days = 120;
            cfg.link_churn_per_day = 0.025;
        }
        Scale::Quick => {
            cfg.duration_days = 24;
            cfg.link_churn_per_day = 0.05;
        }
    }
    TraceGenerator::new(cfg)?.generate(&topology())
}

/// The days a spec-sim should treat as warm-up at each scale (history
/// for the first estimation).
pub fn warmup_days(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 30,
        Scale::Quick => 6,
    }
}

/// The estimator history length at each scale (the paper's 60 days,
/// scaled down for quick runs).
pub fn history_days(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 60,
        Scale::Quick => 10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workload_generates() {
        let t = bu_trace(Scale::Quick, 1).unwrap();
        assert!(t.len() > 1_000, "quick trace too small: {}", t.len());
        assert!(t.catalog.len() > 50);
    }

    #[test]
    fn drift_workload_generates() {
        let t = drift_trace(Scale::Quick, 1).unwrap();
        assert_eq!(t.days(), 24);
    }

    #[test]
    fn scale_factor_multiplies_the_population() {
        // Explicit-factor path only: mutating the process-wide factor
        // here would race the other tests in this binary.
        let base = bu_config_with_factor(Scale::Quick, 1, 1);
        let x10 = bu_config_with_factor(Scale::Quick, 1, 10);
        assert_eq!(x10.sessions_per_day, base.sessions_per_day * 10);
        assert_eq!(x10.clients.n_clients, base.clients.n_clients * 10);
        // Everything else is untouched — same site, same span.
        assert_eq!(x10.duration_days, base.duration_days);
        assert_eq!(x10.site.n_pages, base.site.n_pages);
        // Factor 1 (and the default) is the identity.
        assert_eq!(
            base.sessions_per_day,
            bu_config(Scale::Quick, 1).sessions_per_day
        );
        assert_eq!(scale_factor(), 1);
    }

    #[test]
    fn topology_has_depth_four_leaves() {
        let topo = topology();
        for &l in topo.leaves() {
            assert_eq!(topo.depth(l), 4);
        }
        assert_eq!(topo.interior_nodes().len(), 3 + 9 + 27);
    }
}
