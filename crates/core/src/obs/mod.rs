//! Observability: metrics registry, leveled logging, run manifests
//! and the span profiler for the whole workspace.
//!
//! Everything here obeys one contract, inherited from the deterministic
//! parallelism layer ([`crate::par`]): observable state is split into a
//! **deterministic channel** (a pure function of inputs + seed tree,
//! byte-identical across `--jobs` settings and golden-tested) and a
//! **wall-clock channel** (real time, thread scheduling, socket
//! accounting — explicitly non-deterministic, mirroring the
//! `perf_trajectory.json` carve-out). See `DESIGN.md` §7.
//!
//! The pieces:
//!
//! * [`registry`] — named counters / gauges / histograms behind cheap
//!   handles, snapshot into sorted [`MetricSnapshot`]s;
//! * [`logging`] — the [`crate::log!`] macro, gated by `SPECWEB_LOG`;
//! * [`manifest`] — [`RunManifest`] documents written per experiment
//!   and the `figures --report` renderer;
//! * [`profile`] — the ambient per-run context and the hierarchical
//!   span-tree profiler that rides it, exported as collapsed-stack
//!   (flamegraph) text per experiment.
//!
//! A run is observed through one [`Obs`] bundle (registry + profiler)
//! that its driver installs on the thread ([`Obs::install`]; `figures`
//! does, once per experiment) and [`crate::par`] adopts on every
//! worker. Subsystems take no handle: a recording site asks
//! [`current`] once per pass and records nothing when it answers
//! `None`, exactly as [`frame`] is a no-op outside a run — so
//! concurrently running experiments never interleave counts and
//! nothing has to be wired to be seen. Only truly process-wide
//! wall-clock series (the worker pool, the TCP client's retries, chaos
//! tallies) use [`global`]. The live server's own counters are not
//! here: they live in `specweb_serve`'s `ServerStats` and are read over
//! the wire with `STATS`.

pub mod logging;
pub mod manifest;
pub mod profile;
pub mod registry;

use std::sync::{Arc, OnceLock};

pub use logging::{set_default_level, Level};
pub use manifest::{
    git_describe, peak_rss_kib, render_report, render_report_markdown, DeterministicSection,
    NondeterministicSection, PhaseTiming, RunManifest,
};
pub use profile::{current, frame, FrameStat, Profiler};
pub use registry::{
    Channel, Counter, Gauge, HistogramHandle, MetricSnapshot, MetricValue, Registry,
};

/// One run's metrics registry and span profile, the unit of
/// instrumentation.
///
/// Cloning shares the underlying state: the driver that installs a
/// bundle keeps its handle and snapshots it when the run is done.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Named metrics.
    pub metrics: Registry,
    /// Span-tree profile of the frames closed under this bundle.
    pub profile: Arc<Profiler>,
}

impl Obs {
    /// A fresh, empty bundle.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Snapshots the registry (both channels).
    pub fn snapshot(&self) -> MetricSnapshot {
        self.metrics.snapshot()
    }
}

/// The process-wide bundle, for the wall-clock series of subsystems
/// that outlive any single run: the worker pool, the TCP client, the
/// chaos harness. Nothing falls back to it — per-run accounting goes
/// through [`current`] or nowhere — and it is never installed, so its
/// profile stays empty.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn global_is_shared() {
        global().metrics.counter("obs.test_counter").add(2);
        global().metrics.counter("obs.test_counter").incr();
        assert!(global().metrics.counter("obs.test_counter").get() >= 3);
    }

    /// Strategy for an arbitrary snapshot of counters and gauges over a
    /// small shared name pool (so merges actually collide).
    fn snapshot_strategy() -> impl Strategy<Value = MetricSnapshot> {
        const NAMES: [&str; 4] = ["a.x", "a.y", "b.x", "c.z"];
        let entry = (0usize..NAMES.len(), 0usize..2, 0u64..1_000_000);
        prop::collection::vec(entry, 0..8).prop_map(|entries| {
            let reg = Registry::new();
            for (name_idx, kind, v) in entries {
                // Suffix by kind so a name never changes type.
                let name = NAMES[name_idx];
                if kind == 0 {
                    reg.counter(&format!("{name}.count")).add(v);
                } else {
                    reg.gauge(&format!("{name}.gauge")).record(v);
                }
            }
            reg.snapshot()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Counter (and gauge) merge is commutative: a ∪ b == b ∪ a.
        #[test]
        fn snapshot_merge_is_commutative(
            a in snapshot_strategy(),
            b in snapshot_strategy(),
        ) {
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        /// Merge is associative: (a ∪ b) ∪ c == a ∪ (b ∪ c). Together
        /// with commutativity this is what makes registry totals
        /// independent of worker scheduling.
        #[test]
        fn snapshot_merge_is_associative(
            a in snapshot_strategy(),
            b in snapshot_strategy(),
            c in snapshot_strategy(),
        ) {
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }
    }
}
