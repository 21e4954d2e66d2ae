//! Metrics registry: named counters, gauges, and histograms behind
//! cheap cloneable handles.
//!
//! Every metric is registered on one of two **channels**:
//!
//! * [`Channel::Deterministic`] — values are a pure function of the
//!   inputs and the seed tree. Snapshots of this channel must be
//!   byte-identical across `--jobs` settings; the golden determinism
//!   test enforces it.
//! * [`Channel::WallClock`] — values depend on real time or thread
//!   scheduling (worker high-water marks, server socket accounting).
//!   These live in the explicitly non-deterministic section of run
//!   manifests, mirroring the `perf_trajectory.json` carve-out.
//!
//! Handles are `Arc`-backed: counters and gauges are lock-free atomics,
//! histograms take a short mutex on observe. Registering the same name
//! twice returns a handle to the same underlying metric, so call sites
//! can re-register cheaply instead of threading handles around.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::stats::Histogram;

/// Which determinism contract a metric lives under (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Channel {
    /// Pure function of inputs + seed tree; byte-identical across
    /// worker counts.
    Deterministic,
    /// Depends on real time or scheduling; excluded from golden
    /// comparisons.
    WallClock,
}

/// A monotonically increasing counter. Merge rule: sum.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water-mark gauge. `record` keeps the maximum ever seen, which
/// makes the merge rule (max) associative and commutative — the same
/// property that lets counters sum across workers.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Raises the gauge to `v` if `v` is a new high-water mark.
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current high-water mark.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A [`Histogram`] behind a mutex-guarded handle.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one observation.
    pub fn observe(&self, x: f64) {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(x);
    }

    /// Records `n` identical observations.
    pub fn observe_n(&self, x: f64, n: u64) {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_n(x, n);
    }

    /// Runs `f` against the underlying histogram (e.g. to render it).
    pub fn with<R>(&self, f: impl FnOnce(&Histogram) -> R) -> R {
        f(&self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner))
    }
}

/// One metric's value in a [`MetricSnapshot`].
///
/// Struct variants only: the vendored serde derive supports unit and
/// struct enum variants (externally tagged, like upstream serde).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// A counter's running total.
    Counter {
        /// The summed value.
        value: u64,
    },
    /// A gauge's high-water mark.
    Gauge {
        /// The maximum recorded value.
        value: u64,
    },
    /// A histogram's bins and diagnostics.
    Histogram {
        /// Inclusive lower edge of the counted range.
        lo: f64,
        /// Exclusive upper edge of the counted range.
        hi: f64,
        /// Per-bin counts.
        bins: Vec<u64>,
        /// Observations below `lo`.
        underflow: u64,
        /// Observations at or above `hi` (and NaN).
        overflow: u64,
    },
}

impl MetricValue {
    /// Merges `other` into `self` under the per-kind rule: counters
    /// sum, gauges max, histograms add element-wise. Both rules are
    /// associative and commutative, so merges can happen in any
    /// grouping or order — a property the obs proptest pins down.
    ///
    /// # Panics
    /// If the two values are of different kinds or the histograms have
    /// different shapes. A metric name maps to exactly one type and
    /// shape for the life of a run; violating that is a programming
    /// error, not data.
    pub fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter { value: a }, MetricValue::Counter { value: b }) => *a += b,
            (MetricValue::Gauge { value: a }, MetricValue::Gauge { value: b }) => *a = (*a).max(*b),
            (
                MetricValue::Histogram {
                    lo: alo,
                    hi: ahi,
                    bins: abins,
                    underflow: au,
                    overflow: ao,
                },
                MetricValue::Histogram {
                    lo: blo,
                    hi: bhi,
                    bins: bbins,
                    underflow: bu,
                    overflow: bo,
                },
            ) => {
                assert!(
                    alo == blo && ahi == bhi && abins.len() == bbins.len(),
                    "histogram shape mismatch in merge"
                );
                for (a, b) in abins.iter_mut().zip(bbins) {
                    *a += b;
                }
                *au += bu;
                *ao += bo;
            }
            (a, b) => panic!("metric kind mismatch in merge: {a:?} vs {b:?}"),
        }
    }
}

/// A point-in-time copy of a registry, split by channel.
///
/// Both maps are `BTreeMap`s, so serialization order — and therefore
/// the bytes of a written manifest — depends only on metric names and
/// values, never on registration order or thread interleaving.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Metrics on [`Channel::Deterministic`].
    pub deterministic: BTreeMap<String, MetricValue>,
    /// Metrics on [`Channel::WallClock`].
    pub wallclock: BTreeMap<String, MetricValue>,
}

impl MetricSnapshot {
    /// True when neither channel holds any metric.
    pub fn is_empty(&self) -> bool {
        self.deterministic.is_empty() && self.wallclock.is_empty()
    }

    /// Merges `other` into `self` metric-by-metric (see
    /// [`MetricValue::merge`] for the per-kind rules and panics).
    pub fn merge(&mut self, other: &MetricSnapshot) {
        merge_map(&mut self.deterministic, &other.deterministic);
        merge_map(&mut self.wallclock, &other.wallclock);
    }
}

fn merge_map(into: &mut BTreeMap<String, MetricValue>, from: &BTreeMap<String, MetricValue>) {
    for (name, value) in from {
        match into.get_mut(name) {
            Some(existing) => existing.merge(value),
            None => {
                into.insert(name.clone(), value.clone());
            }
        }
    }
}

/// A name → (channel, shared metric) table; each metric kind keeps one.
type MetricMap<M> = Mutex<BTreeMap<String, (Channel, Arc<M>)>>;

#[derive(Debug, Default)]
struct RegistryInner {
    counters: MetricMap<AtomicU64>,
    gauges: MetricMap<AtomicU64>,
    histograms: MetricMap<Mutex<Histogram>>,
}

/// A cloneable registry of named metrics (see module docs).
///
/// Clones share the same underlying metrics, so a registry can be
/// handed to several subsystems and snapshotted once at the end.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or re-fetches) a counter on the given channel.
    ///
    /// The channel of the *first* registration wins; later calls with a
    /// different channel get the existing metric unchanged.
    pub fn counter_on(&self, name: &str, channel: Channel) -> Counter {
        let mut map = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (_, cell) = map
            .entry(name.to_string())
            .or_insert_with(|| (channel, Arc::new(AtomicU64::new(0))));
        Counter(Arc::clone(cell))
    }

    /// Registers (or re-fetches) a deterministic-channel counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_on(name, Channel::Deterministic)
    }

    /// Registers (or re-fetches) a gauge on the given channel.
    pub fn gauge_on(&self, name: &str, channel: Channel) -> Gauge {
        let mut map = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (_, cell) = map
            .entry(name.to_string())
            .or_insert_with(|| (channel, Arc::new(AtomicU64::new(0))));
        Gauge(Arc::clone(cell))
    }

    /// Registers (or re-fetches) a deterministic-channel gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_on(name, Channel::Deterministic)
    }

    /// Registers (or re-fetches) a histogram over `[lo, hi)` with
    /// `nbins` bins on the given channel. The shape of the first
    /// registration wins.
    pub fn histogram_on(
        &self,
        name: &str,
        channel: Channel,
        lo: f64,
        hi: f64,
        nbins: usize,
    ) -> HistogramHandle {
        let mut map = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (_, cell) = map
            .entry(name.to_string())
            .or_insert_with(|| (channel, Arc::new(Mutex::new(Histogram::new(lo, hi, nbins)))));
        HistogramHandle(Arc::clone(cell))
    }

    /// Registers (or re-fetches) a deterministic-channel histogram.
    pub fn histogram(&self, name: &str, lo: f64, hi: f64, nbins: usize) -> HistogramHandle {
        self.histogram_on(name, Channel::Deterministic, lo, hi, nbins)
    }

    /// Copies every metric into a [`MetricSnapshot`], split by channel.
    pub fn snapshot(&self) -> MetricSnapshot {
        let mut snap = MetricSnapshot::default();
        for (name, (channel, cell)) in self
            .inner
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let value = MetricValue::Counter {
                value: cell.load(Ordering::Relaxed),
            };
            snap.channel_map(*channel).insert(name.clone(), value);
        }
        for (name, (channel, cell)) in self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let value = MetricValue::Gauge {
                value: cell.load(Ordering::Relaxed),
            };
            snap.channel_map(*channel).insert(name.clone(), value);
        }
        for (name, (channel, cell)) in self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            let h = cell
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (lo, hi) = h.range();
            let value = MetricValue::Histogram {
                lo,
                hi,
                bins: h.bins().to_vec(),
                underflow: h.underflow(),
                overflow: h.overflow(),
            };
            snap.channel_map(*channel).insert(name.clone(), value);
        }
        snap
    }
}

impl MetricSnapshot {
    fn channel_map(&mut self, channel: Channel) -> &mut BTreeMap<String, MetricValue> {
        match channel {
            Channel::Deterministic => &mut self.deterministic,
            Channel::WallClock => &mut self.wallclock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_registrations() {
        let reg = Registry::new();
        reg.counter("spec.pushes").add(3);
        reg.counter("spec.pushes").add(4);
        assert_eq!(reg.counter("spec.pushes").get(), 7);
    }

    #[test]
    fn gauge_keeps_high_water_mark() {
        let reg = Registry::new();
        let g = reg.gauge_on("par.queue_high_water", Channel::WallClock);
        g.record(5);
        g.record(3);
        g.record(9);
        g.record(1);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn snapshot_splits_channels_and_sorts_names() {
        let reg = Registry::new();
        reg.counter("b.det").add(1);
        reg.counter("a.det").add(2);
        reg.counter_on("z.wall", Channel::WallClock).add(3);
        let snap = reg.snapshot();
        let det: Vec<&String> = snap.deterministic.keys().collect();
        assert_eq!(det, ["a.det", "b.det"]);
        assert_eq!(snap.wallclock.len(), 1);
        assert_eq!(snap.wallclock["z.wall"], MetricValue::Counter { value: 3 });
    }

    #[test]
    fn histogram_snapshot_preserves_shape() {
        let reg = Registry::new();
        let h = reg.histogram("spec.prob", 0.0, 1.0, 4);
        h.observe(0.1);
        h.observe(0.6);
        h.observe_n(2.0, 3); // overflow
        let snap = reg.snapshot();
        match &snap.deterministic["spec.prob"] {
            MetricValue::Histogram {
                lo,
                hi,
                bins,
                underflow,
                overflow,
            } => {
                assert_eq!(*lo, 0.0);
                assert_eq!(*hi, 1.0);
                // Clamped observations land in the edge bin (counting
                // invariant) and are *also* tallied as overflow.
                assert_eq!(bins, &vec![1, 0, 1, 3]);
                assert_eq!(*underflow, 0);
                assert_eq!(*overflow, 3);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_merge_follows_per_kind_rules() {
        let reg_a = Registry::new();
        reg_a.counter("c").add(2);
        reg_a.gauge("g").record(5);
        let reg_b = Registry::new();
        reg_b.counter("c").add(3);
        reg_b.gauge("g").record(4);
        reg_b.counter("only_b").add(1);
        let mut snap = reg_a.snapshot();
        snap.merge(&reg_b.snapshot());
        assert_eq!(snap.deterministic["c"], MetricValue::Counter { value: 5 });
        assert_eq!(snap.deterministic["g"], MetricValue::Gauge { value: 5 });
        assert_eq!(
            snap.deterministic["only_b"],
            MetricValue::Counter { value: 1 }
        );
    }
}
