//! Shared workload construction for the experiment harness.
//!
//! All experiments draw from the same two calibrated workloads so the
//! numbers are comparable across figures:
//!
//! * the **bu** workload — a `cs-www.bu.edu`-flavored single-server
//!   trace (the paper's: 205,925 accesses, 8,474 clients, >20k sessions
//!   over ~90 days);
//! * the **drift** workload — the same site with visible link churn,
//!   over a longer span so a 60-day update cycle can actually go stale,
//!   for the §3.4 staleness experiments.
//!
//! A [`Workbench`] is one of them built: the trace, the clientele tree
//! and (on first use) the `P`/`P*` store of the baseline estimator
//! schedule. An [`Inputs`] is what one run of the harness shares: the
//! two workbenches of its (scale, factor, seed), each built at most
//! once — by [`Inputs::prepare`] before the experiments fan out, or on
//! first use when a test hands an experiment a fresh one.

use std::sync::OnceLock;

use specweb_core::{CoreError, Result};
use specweb_netsim::topology::Topology;
use specweb_spec::estimator::{EstimatorConfig, MatrixStore};
use specweb_spec::simulate::{SpecConfig, SpecSim};
use specweb_trace::generator::{Trace, TraceConfig, TraceGenerator};

use crate::Scale;

/// Which calibrated workload a [`Workbench`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The `cs-www.bu.edu`-flavored workload.
    Bu,
    /// The same site under link churn, over a longer span.
    Drift,
}

/// The clientele tree used throughout: root (server) → 3 national
/// backbones → 9 regionals → 27 edge networks, 6 client leaves each.
/// Clients sit 4 hops from the server; interior nodes are candidate
/// proxies.
pub fn topology() -> Topology {
    Topology::balanced(3, 3, 6)
}

/// The trace configuration of `kind` at `scale`, its population
/// (`sessions_per_day` and the client count) multiplied by `factor`.
fn trace_config(kind: Kind, scale: Scale, factor: usize, seed: u64) -> TraceConfig {
    let mut cfg = TraceConfig::bu_www(seed);
    // Full scale is the preset itself: ≈ 90 days × 150 sessions × ~16
    // accesses ≈ 220k accesses.
    if scale == Scale::Quick {
        cfg.site.n_pages = 80;
        cfg.clients.n_clients = 150;
        cfg.duration_days = 16;
        cfg.sessions_per_day = 60;
    }
    if kind == Kind::Drift {
        (cfg.duration_days, cfg.link_churn_per_day) = match scale {
            Scale::Full => (120, 0.025),
            Scale::Quick => (24, 0.05),
        };
    }
    cfg.sessions_per_day = cfg.sessions_per_day.saturating_mul(factor);
    cfg.clients.n_clients = cfg.clients.n_clients.saturating_mul(factor);
    cfg
}

/// One calibrated workload, built: everything a sweep reads before its
/// first replay.
#[derive(Debug)]
pub struct Workbench {
    /// The scale it was built at.
    pub scale: Scale,
    /// The generated trace.
    pub trace: Trace,
    /// The clientele tree its clients attach to ([`topology`]).
    pub topo: Topology,
    store: OnceLock<Result<MatrixStore>>,
}

impl Workbench {
    /// Generates the `kind` workload at `scale` with its population
    /// multiplied by `factor` (the `--scale` flag; 1 = the paper's).
    pub fn build(kind: Kind, scale: Scale, factor: usize, seed: u64) -> Result<Workbench> {
        let _f = specweb_core::obs::profile::frame("workload.trace");
        let topo = topology();
        let trace =
            TraceGenerator::new(trace_config(kind, scale, factor, seed))?.generate(&topo)?;
        Ok(Workbench {
            scale,
            trace,
            topo,
            store: OnceLock::new(),
        })
    }

    /// A speculation simulator over the trace.
    pub fn sim(&self) -> SpecSim<'_> {
        SpecSim::new(&self.trace, &self.topo)
    }

    /// The §3.2 baseline at threshold `tp` with this scale's estimator
    /// history (the paper's 60 days, scaled down for quick runs) and
    /// warm-up (history for the first estimation).
    pub fn cfg(&self, tp: f64) -> SpecConfig {
        let mut cfg = SpecConfig::baseline(tp);
        (cfg.estimator.history_days, cfg.warmup_days) = match self.scale {
            Scale::Full => (60, 30),
            Scale::Quick => (10, 6),
        };
        cfg
    }

    /// The store of [`Workbench::cfg`]'s estimator schedule (the same
    /// for every `tp`), estimated on first use.
    pub fn store(&self) -> Result<&MatrixStore> {
        self.store
            .get_or_init(|| self.store_for(&self.cfg(0.5).estimator))
            .as_ref()
            .map_err(CoreError::clone)
    }

    /// A private store under another estimator schedule, over the
    /// trace's own span.
    pub fn store_for(&self, estimator: &EstimatorConfig) -> Result<MatrixStore> {
        MatrixStore::precompute(estimator, &self.trace, self.trace.days())
    }
}

/// What an experiment reads of its run's [`Inputs`] — a column of
/// [`crate::EXPERIMENTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// Closed-form or privately generated: nothing shared.
    Nothing,
    /// The bu trace and topology.
    BuTrace,
    /// The bu workbench with its standard store.
    BuStore,
    /// The drift trace and topology (the stores on it are private).
    DriftTrace,
}

/// Extra independent replications fig3 and fig5 run besides the run's
/// own seed.
pub const REPLICAS: u64 = 2;

/// The inputs one run of the harness shares between its experiments.
#[derive(Debug)]
pub struct Inputs {
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    factor: usize,
    /// By [`Kind`].
    benches: [OnceLock<Result<Workbench>>; 2],
}

impl Inputs {
    /// An empty plan for (`scale`, population multiplier `factor`,
    /// `seed`); nothing is built yet.
    pub fn new(scale: Scale, factor: usize, seed: u64) -> Inputs {
        Inputs {
            scale,
            seed,
            factor,
            benches: Default::default(),
        }
    }

    fn bench(&self, kind: Kind) -> Result<&Workbench> {
        self.benches[kind as usize]
            .get_or_init(|| Workbench::build(kind, self.scale, self.factor, self.seed))
            .as_ref()
            .map_err(CoreError::clone)
    }

    /// The bu workbench.
    pub fn bu(&self) -> Result<&Workbench> {
        self.bench(Kind::Bu)
    }

    /// The drift workbench.
    pub fn drift(&self) -> Result<&Workbench> {
        self.bench(Kind::Drift)
    }

    /// Runs `f` on the bu workbench and on one private replica of it
    /// per extra seed — [`REPLICAS`] of them, derived from this plan's
    /// seed under `label` — in parallel. Returns all seeds and results,
    /// the run's own first.
    pub fn replicated<T: Send>(
        &self,
        label: &str,
        f: impl Fn(&Workbench) -> Result<T> + Sync,
    ) -> Result<(Vec<u64>, Vec<T>)> {
        let tree = specweb_core::rng::SeedTree::new(self.seed);
        let mut seeds = vec![self.seed];
        seeds.extend((0..REPLICAS).map(|r| tree.child_idx(label, r).seed()));
        let runs = specweb_core::par::Pool::auto().try_map_indexed(&seeds, |i, &seed| {
            if i == 0 {
                f(self.bu()?)
            } else {
                f(&Workbench::build(Kind::Bu, self.scale, self.factor, seed)?)
            }
        })?;
        Ok((seeds, runs))
    }

    /// Makes this plan hold what `needs` name and the installed `Obs`
    /// carry its deterministic counters. What is absent is built here
    /// and publishes itself; what is held is republished from the
    /// values — the same additions `generate` and `precompute` made
    /// where they ran — so an experiment's manifest reads the same
    /// whoever built its inputs. `figures` prepares every requested
    /// experiment's needs before its workers start: they then only
    /// read, and which profile shows a build does not depend on
    /// scheduling.
    pub fn prepare(&self, needs: impl IntoIterator<Item = Need>) -> Result<()> {
        let obs = specweb_core::obs::current();
        let republish = |held: bool, name, n| {
            if let (true, Some(obs)) = (held, &obs) {
                obs.metrics.counter(name).add(n);
            }
        };
        for need in needs {
            let kind = match need {
                Need::Nothing => continue,
                Need::BuTrace | Need::BuStore => Kind::Bu,
                Need::DriftTrace => Kind::Drift,
            };
            let held = self.benches[kind as usize].get().is_some();
            let bench = self.bench(kind)?;
            republish(held, "trace.accesses_generated", bench.trace.len() as u64);
            republish(held, "trace.sessions_generated", bench.trace.n_sessions);
            if need == Need::BuStore {
                let held = bench.store.get().is_some();
                let store = bench.store()?;
                republish(held, "spec.closure_truncated_rows", store.truncated_rows());
                republish(held, "spec.closure_rows", store.closure_rows());
                if let (true, Some(obs)) = (held, &obs) {
                    (obs.metrics.gauge("mem.store_bytes")).record(store.heap_bytes().get());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_workload_generates() {
        let inputs = Inputs::new(Scale::Quick, 1, 1);
        let t = &inputs.bu().unwrap().trace;
        assert!(t.len() > 1_000, "quick trace too small: {}", t.len());
        assert!(t.catalog.len() > 50);
    }

    #[test]
    fn drift_workload_generates() {
        let inputs = Inputs::new(Scale::Quick, 1, 1);
        assert_eq!(inputs.drift().unwrap().trace.days(), 24);
    }

    #[test]
    fn scale_factor_multiplies_the_population() {
        for kind in [Kind::Bu, Kind::Drift] {
            let base = trace_config(kind, Scale::Quick, 1, 1);
            let x10 = trace_config(kind, Scale::Quick, 10, 1);
            assert_eq!(x10.sessions_per_day, base.sessions_per_day * 10);
            assert_eq!(x10.clients.n_clients, base.clients.n_clients * 10);
            // Everything else is untouched — same site, same span.
            assert_eq!(x10.duration_days, base.duration_days);
            assert_eq!(x10.site.n_pages, base.site.n_pages);
        }
        // Factor 1 is the identity on the preset.
        let full = trace_config(Kind::Bu, Scale::Full, 1, 1);
        assert_eq!(
            full.sessions_per_day,
            TraceConfig::bu_www(1).sessions_per_day
        );
    }

    #[test]
    fn topology_has_depth_four_leaves() {
        let topo = topology();
        for &l in topo.leaves() {
            assert_eq!(topo.depth(l), 4);
        }
        assert_eq!(topo.interior_nodes().len(), 3 + 9 + 27);
    }

    #[test]
    fn prepare_repeats_the_builders_counters_for_what_is_held() {
        let counters_of = |held: &[Need]| {
            let inputs = Inputs::new(Scale::Quick, 1, 1);
            inputs.prepare(held.iter().copied()).unwrap();
            let obs = specweb_core::obs::Obs::new();
            let _run = obs.install();
            inputs.prepare([Need::BuStore, Need::DriftTrace]).unwrap();
            obs.snapshot().deterministic
        };
        // Built inside the run, built before it, or half of each: the
        // run's counters are the same.
        let native = counters_of(&[]);
        // Two trace counters, and the store's truncated and closed rows
        // and its heap.
        assert_eq!(native.len(), 5, "{native:?}");
        assert_eq!(native, counters_of(&[Need::BuStore, Need::DriftTrace]));
        assert_eq!(native, counters_of(&[Need::BuTrace]));
    }
}
