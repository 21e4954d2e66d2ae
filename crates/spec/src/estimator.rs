//! Scheduled re-estimation of `P`/`P*` (§3.2, §3.4).
//!
//! The paper assumes *"a constant number of days (HistoryLength) is used
//! to estimate the P and P* relations … this estimation is performed
//! periodically, every UpdateCycle days"* (baseline: 60-day history,
//! 1-day cycle). §3.4 then measures how stale relations degrade
//! performance (7% absolute loss with a 60-day cycle, 3% with 7 days)
//! and how shortening the history to 30 days helps (≈5%).
//!
//! [`MatrixStore::precompute`] runs exactly that schedule over a trace
//! ahead of the replay — the estimate of every update-cycle boundary,
//! held for the whole run — and is the simulator's only source of
//! matrices. A server reads row `i` of `P*` only when `D_i` is requested
//! (§3.1), so a boundary closes only the rows of the documents requested
//! on the days it serves: its *demand*. [`RollingEstimator`] is the
//! estimate of one boundary from scratch, the reference the store is
//! checked against. Both implement
//! the exponential *aging* refinement the paper envisions ("an aging
//! mechanism to phase-out dependencies exhibited in older traces"):
//! instead of a hard history window, each day's counts can be decayed
//! by a factor before the next day is added.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use specweb_core::ids::DocId;
use specweb_core::time::Duration;
use specweb_core::units::Bytes;
use specweb_core::{CoreError, Result};
use specweb_trace::generator::Trace;

use crate::deps::{vec_bytes, DepMatrix, DepMatrixBuilder};

/// Schedule and estimation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimatorConfig {
    /// Days of history used per estimation (paper baseline: 60).
    pub history_days: u64,
    /// Days between re-estimations (paper baseline: 1).
    pub update_cycle_days: u64,
    /// The dependency window `T_w` (paper baseline: 5 s).
    pub window: Duration,
    /// Minimum antecedent occurrences for a pair to be kept.
    pub min_support: u64,
    /// Closure floor (entries below can never pass a policy threshold).
    pub closure_floor: f64,
    /// Maximum closure entries per row.
    pub closure_max_row: usize,
    /// Optional exponential aging: each day's pair counts are weighted
    /// by `decay^(age_days)` instead of the hard history cutoff.
    /// `None` = the paper's hard window.
    pub aging_decay: Option<f64>,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            history_days: 60,
            update_cycle_days: 1,
            window: Duration::from_secs(5),
            min_support: 2,
            closure_floor: 0.01,
            closure_max_row: 128,
            aging_decay: None,
        }
    }
}

impl EstimatorConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.history_days == 0 {
            return Err(CoreError::invalid_config(
                "estimator.history_days",
                "must be positive",
            ));
        }
        if self.update_cycle_days == 0 {
            return Err(CoreError::invalid_config(
                "estimator.update_cycle_days",
                "must be positive",
            ));
        }
        if !(0.0 < self.closure_floor && self.closure_floor <= 1.0) {
            return Err(CoreError::invalid_config(
                "estimator.closure_floor",
                "must be in (0, 1]",
            ));
        }
        if let Some(d) = self.aging_decay {
            if !(0.0 < d && d <= 1.0) {
                return Err(CoreError::invalid_config(
                    "estimator.aging_decay",
                    "must be in (0, 1]",
                ));
            }
        }
        Ok(())
    }
}

/// The matrices in force at some point of the replay.
#[derive(Debug, Clone)]
pub struct MatrixPair {
    /// The direct matrix `P`.
    pub direct: DepMatrix,
    /// The closure `P*`.
    pub closure: DepMatrix,
    /// The day the estimate was produced.
    pub estimated_on_day: u64,
}

/// Each blended day's own direct matrix, by day.
type DayMatrices = BTreeMap<u64, DepMatrix>;

/// The documents whose `P*` rows an estimate closes.
#[derive(Debug, Clone, PartialEq)]
enum Demand {
    /// Every row: the estimate of a boundary whose days all lie past
    /// the trace's end, the one a server would deploy next.
    All,
    /// Bit `d` is set iff document `d` is requested on a day the
    /// boundary serves.
    Docs(Vec<u64>),
}

impl Demand {
    /// The demand of the estimate of `day` before any request is added:
    /// every document once the days it serves all lie past the trace's
    /// end, none otherwise.
    fn at(trace: &Trace, day: u64) -> Demand {
        match Duration::from_days(day) >= trace.duration {
            true => Demand::All,
            false => Demand::Docs(Vec::new()),
        }
    }

    /// The demand of the estimate of `day`, which serves the days
    /// `[day, day + cycle)`: the documents `trace` requests on them, or
    /// every document once those days all lie past the trace's end.
    fn served(trace: &Trace, day: u64, cycle: u64) -> Demand {
        let from = trace.accesses.partition_point(|a| a.time.day() < day);
        let served = trace.accesses[from..]
            .iter()
            .take_while(|a| a.time.day() - day < cycle);
        let mut docs = Demand::at(trace, day);
        served.for_each(|a| docs.insert(a.doc));
        docs
    }

    /// [`Demand::served`] of every boundary in `days`, `cycle` apart
    /// from day 0, in one pass over the trace.
    fn of_boundaries(trace: &Trace, days: &[u64], cycle: u64) -> Vec<Demand> {
        let mut demands: Vec<Demand> = days.iter().map(|&day| Demand::at(trace, day)).collect();
        for a in &trace.accesses {
            let boundary = usize::try_from(a.time.day() / cycle).unwrap_or(usize::MAX);
            if let Some(demand) = demands.get_mut(boundary) {
                demand.insert(a.doc);
            }
        }
        demands
    }

    /// Adds `doc` (nothing to add to every document).
    fn insert(&mut self, doc: DocId) {
        if let Demand::Docs(words) = self {
            let word = doc.index() / 64;
            if words.len() <= word {
                words.resize(word + 1, 0);
            }
            words[word] |= 1 << (doc.index() % 64);
        }
    }

    fn contains(&self, doc: DocId) -> bool {
        match self {
            Demand::All => true,
            Demand::Docs(words) => {
                (words.get(doc.index() / 64)).is_some_and(|&w| w >> (doc.index() % 64) & 1 == 1)
            }
        }
    }

    fn heap_bytes(&self) -> Bytes {
        match self {
            Demand::All => Bytes::ZERO,
            Demand::Docs(words) => vec_bytes(words),
        }
    }
}

/// The estimator of one boundary at a time over a trace: the
/// from-scratch twin of [`MatrixStore::precompute`], which also borrows
/// its per-boundary steps.
#[derive(Debug)]
pub struct RollingEstimator<'a> {
    cfg: EstimatorConfig,
    trace: &'a Trace,
}

impl<'a> RollingEstimator<'a> {
    /// Creates the estimator.
    pub fn new(cfg: EstimatorConfig, trace: &'a Trace) -> Result<Self> {
        cfg.validate()?;
        Ok(RollingEstimator { cfg, trace })
    }

    /// The configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// Produces the estimate as of the morning of `day` (using history
    /// days `[day − history, day)`), with `jobs` workers on the closure
    /// step; the result is identical for any count.
    ///
    /// This is the from-scratch estimate: a fresh builder fed the
    /// history window and nothing else. [`MatrixStore::precompute`]
    /// reaches the same matrices incrementally and is checked against
    /// this one, bit for bit. Like a stored boundary, it closes only the
    /// rows of the documents requested on the days `[day, day + cycle)`
    /// it serves, and every row once those days lie past the trace's end.
    pub fn estimate_at_jobs(&self, day: u64, jobs: usize) -> Result<MatrixPair> {
        let start = day.saturating_sub(self.cfg.history_days);
        let direct = match self.cfg.aging_decay {
            None => {
                let mut b = DepMatrixBuilder::new(self.cfg.window);
                for d in start..day {
                    b.push_all(self.trace.day_slice(d));
                }
                b.build(self.cfg.min_support)
            }
            Some(decay) => {
                let days = self.aged_days(day, decay);
                let per_day = days.map(|(d, _)| (d, self.day_matrix(d))).collect();
                self.estimate_aged(day, decay, &per_day)
            }
        };
        let demand = Demand::served(self.trace, day, self.cfg.update_cycle_days);
        self.pair(day, direct, &demand, jobs)
    }

    fn pair(
        &self,
        day: u64,
        direct: DepMatrix,
        demand: &Demand,
        jobs: usize,
    ) -> Result<MatrixPair> {
        let closure = closure_over(&self.cfg, &direct, demand, jobs)?;
        Ok(MatrixPair {
            direct,
            closure,
            estimated_on_day: day,
        })
    }

    /// The hard-window direct matrices of `boundaries` (ascending) from
    /// one pass over the trace: the builder's counting window slides, so
    /// each day is pushed once and retired once instead of being pushed
    /// again for every boundary whose history holds it.
    fn slide(&self, boundaries: &[u64]) -> Vec<DepMatrix> {
        let _f = specweb_core::obs::profile::frame("estimator.slide");
        let history = self.cfg.history_days;
        // Only days that a later boundary's window leaves behind are
        // ever retired.
        let last_start = boundaries.last().map_or(0, |b| b.saturating_sub(history));
        let mut b = DepMatrixBuilder::new(self.cfg.window).retiring_before(last_start);
        let (mut start, mut pushed) = (0, 0);
        let mut directs = Vec::with_capacity(boundaries.len());
        for &day in boundaries {
            while start < day.saturating_sub(history) {
                b.retire_day(start);
                start += 1;
            }
            // Days the window never holds (history < cycle) are skipped:
            // nothing of theirs would count.
            for d in pushed.max(start)..day {
                b.push_all(self.trace.day_slice(d));
            }
            pushed = day;
            directs.push(b.build(self.cfg.min_support));
        }
        directs
    }

    /// The days [`RollingEstimator::estimate_aged`] blends into the
    /// estimate of `day`, oldest first, each with its weight.
    fn aged_days(&self, day: u64, decay: f64) -> impl Iterator<Item = (u64, f64)> + '_ {
        let horizon = self.cfg.history_days.saturating_mul(3).min(day); // old days ≈ 0 weight
        (day - horizon..day).filter_map(move |d| {
            let age = day - 1 - d;
            let w = decay.powi(i32::try_from(age).unwrap_or(i32::MAX));
            (w >= 1e-4 && !self.trace.day_slice(d).is_empty()).then_some((d, w))
        })
    }

    /// Day `d`'s own direct matrix, the unit the aged blend is made of
    /// (a precompute holds one per blended day, shared by its
    /// boundaries).
    fn day_matrix(&self, d: u64) -> DepMatrix {
        DepMatrixBuilder::estimate(self.trace.day_slice(d), self.cfg.window, 1)
    }

    /// Aged estimation: every past day contributes, weighted by
    /// `decay^age`. Implemented by blending per-day matrices, which
    /// `per_day` holds by day — counts would be more precise, but
    /// matrices compose adequately for the drift experiment. The weight
    /// is `decay^age` alone: each day's antecedent occurrence share is
    /// approximated by equal day weights, which suffices for drift
    /// tracking.
    fn estimate_aged(&self, day: u64, decay: f64, per_day: &DayMatrices) -> DepMatrix {
        let _f = specweb_core::obs::profile::frame("estimator.aged_blend");
        let parts: Vec<(f64, &DepMatrix)> = (self.aged_days(day, decay))
            .map(|(d, w)| (w, &per_day[&d]))
            .collect();
        DepMatrix::blend(&parts)
    }
}

/// The closure of `direct` under `cfg`'s bound, holding the rows of the
/// documents in `demand`.
fn closure_over(
    cfg: &EstimatorConfig,
    direct: &DepMatrix,
    demand: &Demand,
    jobs: usize,
) -> Result<DepMatrix> {
    let wanted = |i: DocId| demand.contains(i);
    direct.closure_of(wanted, cfg.closure_floor, cfg.closure_max_row, jobs)
}

/// A precomputed set of matrix estimates for every update-cycle
/// boundary of a trace: what every speculative replay reads, read-only,
/// so its shards can share it. A single run builds its own; parameter
/// sweeps build one and share the (expensive) estimation across all
/// simulator runs with the same estimator configuration.
///
/// A boundary holds all of `P` and the `P*` rows of its demand, the
/// documents the trace requests on the days it serves, so a store
/// belongs to the trace it was built over: [`MatrixStore::demands`]
/// says whether a row a replay is about to read was closed.
#[derive(Debug)]
pub struct MatrixStore {
    cfg: EstimatorConfig,
    by_boundary: Vec<MatrixPair>,
    /// Each boundary's demand, beside it.
    demand: Vec<Demand>,
}

impl MatrixStore {
    /// Precomputes estimates for all update boundaries in
    /// `[0, total_days]`: the matrices of
    /// [`RollingEstimator::estimate_at_jobs`] at every boundary, without
    /// its repeated work. Under a hard window one serial pass slides the
    /// estimation window over the trace; under aging each day's own
    /// matrix is estimated once and shared by the boundaries that blend
    /// it.
    ///
    /// Each boundary closes the `P*` rows of its demand: the documents
    /// requested on the days it serves, `[b, b + cycle)`. A boundary
    /// whose days all lie past the trace's end closes every row:
    /// [`MatrixStore::for_day`] clamps later days to it, and it is the
    /// estimate a server would deploy next.
    ///
    /// Under an installed [`specweb_core::obs::Obs`] every store adds
    /// its [`MatrixStore::truncated_rows`] to the run's
    /// `spec.closure_truncated_rows` (registered even at 0), so silent
    /// capping of `P*` shows in the run manifest whoever built the
    /// store, and likewise its [`MatrixStore::closure_rows`] to
    /// `spec.closure_rows`; it raises the gauge `mem.store_bytes` to its
    /// [`MatrixStore::heap_bytes`].
    pub fn precompute(
        cfg: &EstimatorConfig,
        trace: &Trace,
        total_days: u64,
    ) -> Result<MatrixStore> {
        let _f = specweb_core::obs::profile::frame("estimator.precompute");
        let days = Self::boundaries(cfg, total_days)?;
        let demand = Demand::of_boundaries(trace, &days, cfg.update_cycle_days);
        Self::estimated(cfg, trace, &days, demand)
    }

    /// The boundaries of `[0, total_days]` under `cfg`'s cycle.
    fn boundaries(cfg: &EstimatorConfig, total_days: u64) -> Result<Vec<u64>> {
        cfg.validate()?;
        let cycle = usize::try_from(cfg.update_cycle_days).map_err(|_| {
            CoreError::invalid_config("estimator.update_cycle_days", "must fit a usize")
        })?;
        Ok((0..=total_days).step_by(cycle).collect())
    }

    /// The store of `days` whose boundaries close the rows of `demand`.
    fn estimated(
        cfg: &EstimatorConfig,
        trace: &Trace,
        days: &[u64],
        demand: Vec<Demand>,
    ) -> Result<MatrixStore> {
        let est = RollingEstimator::new(*cfg, trace)?;
        // Boundaries fan out on the process-default pool; assembling
        // them in day order keeps the store byte-identical to a serial
        // build. The inner closure runs serially here — one parallel
        // level is enough, and it avoids quadratic thread fan-out.
        let pool = specweb_core::par::Pool::auto();
        let by_boundary = match cfg.aging_decay {
            None => Self::closed(cfg, days, est.slide(days), &demand)?,
            Some(decay) => {
                let per_day: DayMatrices = {
                    let _f = specweb_core::obs::profile::frame("estimator.day_matrices");
                    let blended: BTreeSet<u64> = days
                        .iter()
                        .flat_map(|&day| est.aged_days(day, decay).map(|(d, _)| d))
                        .collect();
                    let blended: Vec<u64> = blended.into_iter().collect();
                    let matrices = pool.map_indexed(&blended, |_, &d| est.day_matrix(d));
                    blended.into_iter().zip(matrices).collect()
                };
                pool.try_map_indexed(days, |k, &day| {
                    est.pair(day, est.estimate_aged(day, decay, &per_day), &demand[k], 1)
                })?
            }
        };
        Ok(MatrixStore {
            cfg: *cfg,
            by_boundary,
            demand,
        }
        .published())
    }

    /// The estimates of `days` from their `directs`, each closed over
    /// its `demand`: one closure each, fanned out on the process-default
    /// pool.
    fn closed(
        cfg: &EstimatorConfig,
        days: &[u64],
        directs: Vec<DepMatrix>,
        demand: &[Demand],
    ) -> Result<Vec<MatrixPair>> {
        let closures = specweb_core::par::Pool::auto().try_map_indexed(&directs, |k, direct| {
            closure_over(cfg, direct, &demand[k], 1)
        })?;
        Ok((days.iter().zip(directs).zip(closures))
            .map(|((&estimated_on_day, direct), closure)| MatrixPair {
                direct,
                closure,
                estimated_on_day,
            })
            .collect())
    }

    /// The same `direct` matrices under another closure bound: what
    /// [`MatrixStore::precompute`] builds under this store's
    /// configuration with `closure_floor` and `closure_max_row`
    /// replaced, bit for bit, without estimating `P` again. Each
    /// boundary keeps its demand. Closures fan out and the store is
    /// published as in `precompute`.
    pub fn reclose(&self, floor: f64, max_row: usize) -> Result<MatrixStore> {
        let _f = specweb_core::obs::profile::frame("estimator.reclose");
        let cfg = EstimatorConfig {
            closure_floor: floor,
            closure_max_row: max_row,
            ..self.cfg
        };
        cfg.validate()?;
        let boundaries = self.by_boundary.iter();
        let days: Vec<u64> = boundaries.clone().map(|b| b.estimated_on_day).collect();
        let directs = boundaries.map(|b| b.direct.clone()).collect();
        let by_boundary = Self::closed(&cfg, &days, directs, &self.demand)?;
        let demand = self.demand.clone();
        Ok(MatrixStore {
            cfg,
            by_boundary,
            demand,
        }
        .published())
    }

    /// Adds this store's truncation count to the installed run's
    /// `spec.closure_truncated_rows` and its closed rows to
    /// `spec.closure_rows`, once per store built, and raises
    /// `mem.store_bytes` to its heap. The boundaries are collected on
    /// the pool, whose spare capacity depends on the worker count: it
    /// is given back first, so the heap reads the same at any count.
    fn published(mut self) -> MatrixStore {
        self.by_boundary.shrink_to_fit();
        self.demand.shrink_to_fit();
        if let Some(obs) = specweb_core::obs::current() {
            obs.metrics
                .counter("spec.closure_truncated_rows")
                .add(self.truncated_rows());
            (obs.metrics.counter("spec.closure_rows")).add(self.closure_rows());
            (obs.metrics.gauge("mem.store_bytes")).record(self.heap_bytes().get());
        }
        self
    }

    /// What [`MatrixStore::precompute`] must equal, built the slow way:
    /// the from-scratch estimate of every boundary.
    #[cfg(test)]
    pub(crate) fn from_scratch(cfg: &EstimatorConfig, trace: &Trace, total_days: u64) -> Self {
        let est = RollingEstimator::new(*cfg, trace).unwrap();
        let days = Self::boundaries(cfg, total_days).unwrap();
        let by_boundary = days
            .iter()
            .map(|&day| est.estimate_at_jobs(day, 1).unwrap());
        MatrixStore {
            cfg: *cfg,
            by_boundary: by_boundary.collect(),
            demand: Demand::of_boundaries(trace, &days, cfg.update_cycle_days),
        }
    }

    /// [`MatrixStore::precompute`] with every row closed at every
    /// boundary, as the store was before it closed only what a replay
    /// can read: the twin a demand store is checked against.
    #[cfg(test)]
    pub(crate) fn precompute_full(cfg: &EstimatorConfig, trace: &Trace, total_days: u64) -> Self {
        let days = Self::boundaries(cfg, total_days).unwrap();
        let demand = vec![Demand::All; days.len()];
        Self::estimated(cfg, trace, &days, demand).unwrap()
    }

    /// The estimator configuration this store was built with. Simulators
    /// use it to reject a store/config mismatch, which would silently
    /// speculate on the wrong matrices.
    pub fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// The index of the boundary in force on `day`.
    fn boundary_of(&self, day: u64) -> usize {
        let boundary = usize::try_from(day / self.cfg.update_cycle_days).unwrap_or(usize::MAX);
        boundary.min(self.by_boundary.len() - 1)
    }

    /// The matrices in force on `day`.
    pub fn for_day(&self, day: u64) -> &MatrixPair {
        &self.by_boundary[self.boundary_of(day)]
    }

    /// Whether the `P*` in force on `day` holds the row of `doc`: always
    /// for a document the store's trace requests on that day, and for
    /// every document past the trace's end. A replay that finds `false`
    /// is replaying another trace.
    pub fn demands(&self, day: u64, doc: DocId) -> bool {
        self.demand[self.boundary_of(day)].contains(doc)
    }

    /// Number of precomputed boundaries.
    pub fn len(&self) -> usize {
        self.by_boundary.len()
    }

    /// The `P*` rows the store closed, over all boundaries: the
    /// demanded documents that have a row of `P`.
    pub fn closure_rows(&self) -> u64 {
        let boundaries = self.by_boundary.iter().zip(&self.demand);
        let closed = boundaries.map(|(pair, demand)| {
            let rows = pair.direct.sources().filter(|&i| demand.contains(i));
            u64::try_from(rows.count()).unwrap_or(u64::MAX)
        });
        closed.sum()
    }

    /// The heap the store holds: every boundary's two matrices and
    /// demand, and the arrays that hold them.
    pub fn heap_bytes(&self) -> Bytes {
        let pairs = self.by_boundary.iter();
        let matrices = pairs.map(|m| m.direct.heap_bytes() + m.closure.heap_bytes());
        let demands = self.demand.iter().map(Demand::heap_bytes);
        vec_bytes(&self.by_boundary) + vec_bytes(&self.demand) + matrices.sum() + demands.sum()
    }

    /// Total closure rows truncated by the safety valve across all
    /// precomputed boundaries — the "no silent caps" signal sweeps
    /// should surface next to their results.
    pub fn truncated_rows(&self) -> u64 {
        self.by_boundary
            .iter()
            .map(|m| m.closure.truncated_rows())
            .sum()
    }

    /// Whether the store is empty (never true after `precompute`).
    pub fn is_empty(&self) -> bool {
        self.by_boundary.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specweb_netsim::topology::Topology;
    use specweb_trace::generator::{TraceConfig, TraceGenerator};

    fn trace(seed: u64, churn: f64) -> Trace {
        let topo = Topology::balanced(2, 3, 4);
        let mut cfg = TraceConfig::small(seed);
        cfg.duration_days = 12;
        cfg.sessions_per_day = 60;
        cfg.link_churn_per_day = churn;
        TraceGenerator::new(cfg).unwrap().generate(&topo).unwrap()
    }

    #[test]
    fn estimation_uses_only_past_days() {
        let t = trace(101, 0.0);
        let cfg = EstimatorConfig {
            history_days: 60,
            update_cycle_days: 1,
            ..EstimatorConfig::default()
        };
        let est = RollingEstimator::new(cfg, &t).unwrap();
        // Day 0 has no history: the matrix must be empty.
        let m = est.estimate_at_jobs(0, 1).unwrap();
        assert_eq!(m.direct.n_entries(), 0);
        // Day 5 has 5 days of history: non-empty.
        let m = est.estimate_at_jobs(5, 1).unwrap();
        assert!(m.direct.n_entries() > 0);
    }

    #[test]
    fn closure_is_consistent_with_direct() {
        let t = trace(102, 0.0);
        let cfg = EstimatorConfig::default();
        let est = RollingEstimator::new(cfg, &t).unwrap();
        let m = est.estimate_at_jobs(10, 1).unwrap();
        assert_eq!(m.closure.truncated_rows(), 0);
        // The estimate of day 10 serves day 10: it closes the rows of
        // the documents requested then, and no other.
        let served: BTreeSet<DocId> = t.day_slice(10).iter().map(|a| a.doc).collect();
        let mut checked = 0;
        for (i, j, p) in m.direct.entries() {
            if !served.contains(&i) {
                assert!(m.closure.row(i).is_empty(), "row {i} is not demanded");
                continue;
            }
            // A row cut to `closure_max_row` may have dropped its weakest
            // entries; any other row keeps every direct edge at or above
            // the floor, at no less than its direct probability.
            if p >= cfg.closure_floor && m.closure.row(i).len() < cfg.closure_max_row {
                assert!(m.closure.get(i, j) >= p, "closure lost ({i},{j},{p})");
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} direct entries were checked");
    }

    #[test]
    fn drift_makes_old_estimates_stale() {
        // With heavy churn, a matrix estimated from days [0,6) should
        // overlap *less* with one from days [6,12) than the no-churn
        // case overlaps with itself.
        let t = trace(103, 0.4);
        let cfg = EstimatorConfig {
            history_days: 6,
            update_cycle_days: 1,
            min_support: 1,
            ..EstimatorConfig::default()
        };
        let est = RollingEstimator::new(cfg, &t).unwrap();
        let early = est.estimate_at_jobs(6, 1).unwrap().direct;
        let late_builder =
            DepMatrixBuilder::estimate(&t.accesses[t.day_slice(0).len()..], cfg.window, 1);
        // Jaccard overlap of the *traversal* edge sets (p < 0.95 —
        // embedding edges never churn, so including them would mask the
        // drift the experiment is about).
        let edges = |m: &DepMatrix| {
            m.entries()
                .filter(|&(_, _, p)| p < 0.95)
                .map(|(i, j, _)| (i, j))
                .collect::<std::collections::HashSet<_>>()
        };
        let a = edges(&early);
        let b = edges(&late_builder);
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count().max(1) as f64;
        let overlap = inter / union;
        assert!(
            overlap < 0.8,
            "churned trace: early/late overlap {overlap} suspiciously high"
        );
    }

    #[test]
    fn aged_estimation_tracks_recent_days_more() {
        let t = trace(104, 0.5);
        let aged_cfg = EstimatorConfig {
            history_days: 6,
            aging_decay: Some(0.5),
            min_support: 1,
            ..EstimatorConfig::default()
        };
        let est = RollingEstimator::new(aged_cfg, &t).unwrap();
        let m = est.estimate_at_jobs(10, 1).unwrap();
        assert!(m.direct.n_entries() > 0);
        for (_, _, p) in m.direct.entries() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    /// Two stores hold the same estimate at every boundary, bit for bit.
    fn assert_same_stores(kept: &MatrixStore, fresh: &MatrixStore) {
        let cfg = &fresh.cfg;
        assert_eq!(kept.cfg, fresh.cfg);
        assert_eq!(kept.len(), fresh.len());
        for (kept, fresh) in kept.by_boundary.iter().zip(&fresh.by_boundary) {
            let day = fresh.estimated_on_day;
            assert_eq!(kept.estimated_on_day, day);
            assert!(
                fresh.direct.rows_in_order() && fresh.closure.rows_in_order(),
                "row order on day {day}, {cfg:?}"
            );
            assert_eq!(
                kept.direct.bits(),
                fresh.direct.bits(),
                "P on day {day}, {cfg:?}"
            );
            assert_eq!(
                kept.closure.bits(),
                fresh.closure.bits(),
                "P* on day {day}, {cfg:?}"
            );
            assert_eq!(
                kept.closure.truncated_rows(),
                fresh.closure.truncated_rows()
            );
        }
    }

    /// Every boundary of the store equals the from-scratch estimate.
    fn assert_store_is_exact(cfg: &EstimatorConfig, t: &Trace, total_days: u64) {
        let store = MatrixStore::precompute(cfg, t, total_days).unwrap();
        assert_same_stores(&store, &MatrixStore::from_scratch(cfg, t, total_days));
    }

    #[test]
    fn reclose_equals_precompute_under_the_new_bound() {
        let t = trace(106, 0.2);
        for aging_decay in [None, Some(0.9)] {
            let cfg = EstimatorConfig {
                history_days: 5,
                aging_decay,
                ..EstimatorConfig::default()
            };
            let store = MatrixStore::precompute(&cfg, &t, t.days()).unwrap();
            for closure_max_row in [2, 8, 128] {
                let obs = specweb_core::obs::Obs::new();
                let reclosed = {
                    let _run = obs.install();
                    store.reclose(0.05, closure_max_row).unwrap()
                };
                let bound = EstimatorConfig {
                    closure_floor: 0.05,
                    closure_max_row,
                    ..cfg
                };
                let fresh = MatrixStore::precompute(&bound, &t, t.days()).unwrap();
                assert_same_stores(&reclosed, &fresh);
                // It closes what the store it came from demands.
                assert_eq!(reclosed.demand, store.demand);
                assert_eq!(reclosed.closure_rows(), store.closure_rows());
                // …and it says what it truncated, like a precompute.
                assert_eq!(
                    obs.snapshot().deterministic["spec.closure_truncated_rows"],
                    specweb_core::obs::MetricValue::Counter {
                        value: fresh.truncated_rows()
                    }
                );
            }
            assert!(store.reclose(0.0, 8).is_err(), "floor is validated");
        }
    }

    #[test]
    fn matrix_store_matches_rolling_estimator() {
        let t = trace(106, 0.0);
        let cfg = EstimatorConfig {
            history_days: 5,
            update_cycle_days: 2,
            ..EstimatorConfig::default()
        };
        assert_store_is_exact(&cfg, &t, 11);
        let store = MatrixStore::precompute(&cfg, &t, 11).unwrap();
        assert_eq!(store.len(), 6); // days 0,2,4,6,8,10
        assert!(store.for_day(10).direct.n_entries() > 0);
        // A day inside a cycle uses the estimate of the boundary before.
        for (day, boundary) in [(0u64, 0u64), (3, 2), (7, 6), (10, 10)] {
            assert_eq!(store.for_day(day).estimated_on_day, boundary);
        }
        // Days past the horizon clamp to the last boundary.
        assert_eq!(store.for_day(99).estimated_on_day, 10);
    }

    #[test]
    fn a_history_longer_than_any_trace_is_the_whole_trace() {
        // `history_days * 3` and `decay.powi(age as i32)` used to wrap.
        let t = trace(106, 0.2);
        for aging_decay in [None, Some(0.9)] {
            let stores = [u64::MAX, t.days()].map(|history_days| {
                let cfg = EstimatorConfig {
                    history_days,
                    aging_decay,
                    ..EstimatorConfig::default()
                };
                MatrixStore::precompute(&cfg, &t, t.days()).unwrap()
            });
            assert_eq!(stores[0].len(), stores[1].len());
            for (all, whole) in stores[0].by_boundary.iter().zip(&stores[1].by_boundary) {
                assert!(whole.estimated_on_day == 0 || whole.direct.n_entries() > 0);
                assert_eq!(all.direct.bits(), whole.direct.bits(), "{aging_decay:?}");
                assert_eq!(all.closure.bits(), whole.closure.bits(), "{aging_decay:?}");
            }
        }
    }

    #[test]
    fn an_imported_logs_last_day_is_a_stored_boundary() {
        use specweb_trace::import::{trace_from_records, ImportConfig};
        use specweb_trace::logfmt::LogRecord;
        // An imported trace ends 1 ms after its last record — here the
        // first instant of day 3, the tightest fit of `Trace::days`.
        let records: Vec<LogRecord> = (0..=3)
            .map(|day| LogRecord {
                client: specweb_core::ids::ClientId::new(7),
                time: specweb_core::SimTime::from_days(day),
                method: "GET".into(),
                path: "/a.html".into(),
                status: 200,
                size: specweb_core::units::Bytes::new(100),
            })
            .collect();
        let topo = Topology::balanced(2, 3, 4);
        let t = trace_from_records(&records, &topo, &ImportConfig::default(), |_| true).unwrap();
        let last_day = t.accesses.last().unwrap().time.day();
        assert_eq!((t.days(), last_day), (3, 3));
        for update_cycle_days in 1..=4 {
            let cfg = EstimatorConfig {
                update_cycle_days,
                ..EstimatorConfig::default()
            };
            let store = MatrixStore::precompute(&cfg, &t, t.days()).unwrap();
            // A store one boundary short would clamp to an older one.
            assert_eq!(
                store.for_day(last_day).estimated_on_day,
                last_day - last_day % update_cycle_days
            );
        }
    }

    /// The documents `t` requests on the days `[day, day + cycle)`, by
    /// definition, or `None` (every document) once those days all lie
    /// past the trace's end.
    fn served_by_definition(t: &Trace, day: u64, cycle: u64) -> Option<BTreeSet<DocId>> {
        let past_the_end = day
            .checked_mul(86_400_000)
            .is_none_or(|ms| ms >= t.duration.as_millis());
        let served = t
            .accesses
            .iter()
            .filter(|a| (day..day.saturating_add(cycle)).contains(&a.time.day()));
        (!past_the_end).then(|| served.map(|a| a.doc).collect())
    }

    #[test]
    fn the_boundary_past_the_end_closes_every_row_and_for_day_clamps_to_it() {
        let t = trace(109, 0.0);
        let cfg = EstimatorConfig {
            history_days: 4,
            ..EstimatorConfig::default()
        };
        let store = MatrixStore::precompute(&cfg, &t, t.days()).unwrap();
        let full = MatrixStore::precompute_full(&cfg, &t, t.days());
        let last = t.days();
        assert_eq!(store.for_day(last + 30).estimated_on_day, last);
        assert_eq!(
            store.for_day(last).closure.bits(),
            full.for_day(last).closure.bits()
        );
        assert!(store.for_day(last).closure.n_rows() > store.for_day(last - 1).closure.n_rows());
        // Every earlier boundary closes fewer rows than the full store.
        assert!(store.closure_rows() < full.closure_rows());
        assert!(store.heap_bytes() < full.heap_bytes());
        let requested = t.day_slice(5).first().unwrap().doc;
        assert!(store.demands(5, requested) && store.demands(last + 30, DocId::new(u32::MAX)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn demanded_rows_equal_the_full_closure_bit_for_bit(
            seed in 0u64..1_000,
            update_cycle_days in 1u64..=7,
            history_days in 1u64..=8,
            aging_decay in prop::option::of(Just(0.7)),
            closure_max_row in prop_oneof![Just(3usize), Just(128)],
            extra_days in 0u64..10,
        ) {
            let mut tc = TraceConfig::small(seed);
            tc.duration_days = 9;
            tc.sessions_per_day = 30;
            let t = TraceGenerator::new(tc).unwrap().generate(&Topology::balanced(2, 3, 4)).unwrap();
            let cfg = EstimatorConfig {
                history_days,
                update_cycle_days,
                min_support: 1,
                closure_max_row,
                aging_decay,
                ..EstimatorConfig::default()
            };
            // Some stores run on past the trace, with several boundaries
            // past its end.
            let total_days = t.days() + extra_days;
            let store = MatrixStore::precompute(&cfg, &t, total_days).unwrap();
            let full = MatrixStore::precompute_full(&cfg, &t, total_days);
            prop_assert_eq!(store.len(), full.len());
            for (kept, all) in store.by_boundary.iter().zip(&full.by_boundary) {
                let day = all.estimated_on_day;
                prop_assert_eq!(kept.direct.bits(), all.direct.bits(), "P on day {}", day);
                let want: Vec<_> = match served_by_definition(&t, day, update_cycle_days) {
                    None => all.closure.bits(),
                    Some(served) => {
                        let rows = all.closure.bits().into_iter();
                        rows.filter(|(i, ..)| served.contains(i)).collect()
                    }
                };
                prop_assert_eq!(kept.closure.bits(), want, "P* on day {}", day);
                for a in t.accesses.iter().filter(|a| a.time.day() / update_cycle_days == day / update_cycle_days) {
                    prop_assert!(store.demands(a.time.day(), a.doc));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn precompute_equals_the_from_scratch_estimate_at_every_boundary(
            schedule in (prop_oneof![1u64..8, Just(40u64)], 1u64..5, 1u64..4),
            window in prop_oneof![
                Just(Duration::from_secs(5)),
                Just(Duration::from_days(2)),
                Just(Duration::INFINITE),
            ],
            aging_decay in prop::option::of(prop_oneof![Just(0.9), Just(0.3), Just(0.05)]),
            closure_max_row in prop_oneof![Just(4usize), Just(128)],
            churned in 0usize..2,
            total_days in 10u64..15,
        ) {
            static TRACES: std::sync::OnceLock<[Trace; 2]> = std::sync::OnceLock::new();
            let traces = TRACES.get_or_init(|| [trace(107, 0.0), trace(108, 0.3)]);
            let (history_days, update_cycle_days, min_support) = schedule;
            let cfg = EstimatorConfig {
                history_days,
                update_cycle_days,
                window,
                min_support,
                closure_max_row,
                aging_decay,
                ..EstimatorConfig::default()
            };
            // The trace has 12 days: the last boundaries lie past its end.
            assert_store_is_exact(&cfg, &traces[churned], total_days);
        }
    }

    #[test]
    fn precompute_publishes_its_own_truncation_count() {
        use specweb_core::obs::{MetricValue, Obs};
        let t = trace(106, 0.0);
        let truncated_under = |cfg: EstimatorConfig| {
            let obs = Obs::new();
            let store = {
                let _run = obs.install();
                MatrixStore::precompute(&cfg, &t, t.days()).unwrap()
            };
            match obs
                .snapshot()
                .deterministic
                .get("spec.closure_truncated_rows")
            {
                Some(MetricValue::Counter { value }) => {
                    assert_eq!(*value, store.truncated_rows());
                    *value
                }
                other => panic!("truncation counter not registered: {other:?}"),
            }
        };
        let tight = EstimatorConfig {
            closure_max_row: 2,
            ..EstimatorConfig::default()
        };
        assert!(truncated_under(tight) > 0, "a 2-entry valve must bite");
        // The default bound truncates nothing here, and says so.
        assert_eq!(truncated_under(EstimatorConfig::default()), 0);
    }

    #[test]
    fn rejects_bad_config() {
        let t = trace(105, 0.0);
        let bad = [
            EstimatorConfig {
                history_days: 0,
                ..Default::default()
            },
            EstimatorConfig {
                update_cycle_days: 0,
                ..Default::default()
            },
            EstimatorConfig {
                closure_floor: 0.0,
                ..Default::default()
            },
            EstimatorConfig {
                aging_decay: Some(1.5),
                ..Default::default()
            },
        ];
        for cfg in bad {
            assert!(RollingEstimator::new(cfg, &t).is_err(), "{cfg:?}");
        }
    }
}
