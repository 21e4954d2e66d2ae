//! The trace-driven speculative-service simulator (§3.2–§3.4).
//!
//! Replays a trace twice — once with speculation, once without — and
//! reports the paper's four ratios. Key modelling decisions, all taken
//! from the paper:
//!
//! * **Speculation happens on server-visible requests only.** A cache
//!   hit never reaches the server, so it can trigger no push. This is
//!   what makes embedding-only speculation (`T_p ≈ 1`) traffic-neutral:
//!   with a long-lived cache each document misses at most once per
//!   client, and the pushed embedded objects are exactly the ones the
//!   client was about to request.
//! * **A push rides on the triggering response**: it costs bytes but no
//!   additional server request — reducing server load is the protocol's
//!   point.
//! * **Non-cooperative servers are stateless**: they may push documents
//!   the client already holds (wasted bytes). Cooperative clients
//!   piggyback a cache digest that suppresses those pushes (§3.4).
//! * **Hints** (hybrid policy) are client-*initiated* prefetches: each
//!   one the client acts on is a normal request — it costs a request
//!   and bytes, but its latency is off the critical path.
//! * **The matrices in force on a day are fixed before the replay.**
//!   `P`/`P*` of every `UpdateCycle` boundary are estimated from the
//!   trace's earlier days into a [`MatrixStore`] ahead of time — by the
//!   caller for a sweep, by the run itself otherwise — so a replay only
//!   reads them and any client partition replays independently.

use serde::{Deserialize, Serialize};
use specweb_core::metrics::{CostWeights, Ratios, RunTotals};
use specweb_core::stats::{ServiceQuantiles, ServiceTimeDist};
use specweb_core::units::Bytes;
use specweb_core::{CoreError, Result};
use specweb_netsim::cost::LatencyModel;
use specweb_netsim::replay::{ClusterShards, ShardClients};
use specweb_netsim::topology::Topology;
use specweb_trace::generator::Trace;

use crate::cache::{CacheModel, ClientCache};
use crate::estimator::{EstimatorConfig, MatrixStore};
use crate::policy::{decide, Policy};
use crate::prefetch::{HintPolicy, UserProfile};

/// Full simulation configuration (the paper's §3.2 parameter table plus
/// the §3.4 refinements).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SpecConfig {
    /// The speculation policy (baseline: `p*[i,j] ≥ T_p`).
    pub policy: Policy,
    /// `MaxSize`: documents larger than this are never pushed
    /// (baseline: ∞).
    pub max_size: Bytes,
    /// The client cache model (baseline: `SessionTimeout = ∞`).
    pub cache: CacheModel,
    /// Estimation schedule: `T_w` window, `HistoryLength`, `UpdateCycle`
    /// (baseline: 5 s / 60 days / 1 day).
    pub estimator: EstimatorConfig,
    /// Cooperative clients: piggybacked cache digests (baseline: off).
    pub cooperative: bool,
    /// How clients react to hints (only meaningful with
    /// [`Policy::Hybrid`]; baseline: ignore).
    pub hint_policy: HintPolicy,
    /// Pure client-side prefetching from per-user profiles: prefetch any
    /// own-profile prediction at or above this probability (the \[5\]
    /// companion study; baseline: off).
    pub client_profile_prefetch: Option<f64>,
    /// The latency model for the service-time metric.
    pub latency: LatencyModel,
    /// The §3.2 cost weights (reported, not optimized against).
    pub cost: CostWeights,
    /// Metrics are collected from this day on (earlier days warm the
    /// caches and the estimator).
    pub warmup_days: u64,
}

impl SpecConfig {
    /// The paper's baseline parameters at threshold `tp`.
    pub fn baseline(tp: f64) -> SpecConfig {
        SpecConfig {
            policy: Policy::Threshold { tp },
            max_size: Bytes::INFINITE,
            cache: CacheModel::Infinite,
            estimator: EstimatorConfig::default(),
            cooperative: false,
            hint_policy: HintPolicy::Ignore,
            client_profile_prefetch: None,
            latency: LatencyModel::default(),
            cost: CostWeights::default(),
            warmup_days: 7,
        }
    }
}

/// Simulation results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpecOutcome {
    /// Totals of the speculative run (measured window only).
    pub speculative: RunTotals,
    /// Totals of the non-speculative run.
    pub baseline: RunTotals,
    /// The four ratios.
    pub ratios: Ratios,
    /// Documents pushed speculatively.
    pub pushes: u64,
    /// Pushed documents that were already in the client's cache
    /// (wasted; zero for cooperative clients).
    pub wasted_pushes: u64,
    /// Client-initiated prefetch requests issued.
    pub prefetches: u64,
    /// Combined §3.2 cost of the speculative run.
    pub cost_speculative: f64,
    /// Combined §3.2 cost of the baseline run.
    pub cost_baseline: f64,
    /// Exact per-access service-time quantiles of the speculative run
    /// (cache hits count as 0 ms — the paper's service-time numerator is
    /// the *client-observed* wait, and a hit waits for nothing).
    pub service_times: ServiceQuantiles,
    /// The same quantiles for the baseline run, so reports can show how
    /// speculation moves the tail, not just the mean ratio.
    pub baseline_service_times: ServiceQuantiles,
}

impl SpecOutcome {
    /// The outcome of one speculative replay measured against `base`.
    fn assemble(
        cfg: &SpecConfig,
        speculative: RunTotals,
        counters: &ReplayCounters,
        base: BaselineRun,
    ) -> SpecOutcome {
        SpecOutcome {
            cost_speculative: cfg.cost.total_cost(&speculative),
            cost_baseline: cfg.cost.total_cost(&base.totals),
            service_times: counters.service.quantiles(),
            baseline_service_times: base.service_times,
            ratios: Ratios::between(&speculative, &base.totals),
            speculative,
            baseline: base.totals,
            pushes: counters.pushes,
            wasted_pushes: counters.wasted_pushes,
            prefetches: counters.prefetches,
        }
    }
}

/// A precomputed baseline replay: the totals plus its service-time
/// summary. Parameter sweeps compute this **once** via
/// [`SpecSim::baseline_totals`] and hand it to every
/// [`SpecSim::run_with_store_and_baseline`] point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BaselineRun {
    /// Totals of the non-speculative replay (measured window).
    pub totals: RunTotals,
    /// Exact service-time quantiles of that replay.
    pub service_times: ServiceQuantiles,
    /// What it was replayed under — the three configuration values a
    /// baseline replay reads. A point under any other value must not
    /// be measured against it.
    cache: CacheModel,
    warmup_days: u64,
    latency: LatencyModel,
}

impl BaselineRun {
    /// The baseline replay `(totals, counters)` ran under `cfg`.
    fn under(cfg: &SpecConfig, totals: RunTotals, counters: &ReplayCounters) -> BaselineRun {
        BaselineRun {
            totals,
            service_times: counters.service.quantiles(),
            cache: cfg.cache,
            warmup_days: cfg.warmup_days,
            latency: cfg.latency,
        }
    }

    /// Whether a replay under `cfg` would reproduce this one.
    fn holds_for(&self, cfg: &SpecConfig) -> bool {
        (self.cache, self.warmup_days, self.latency) == (cfg.cache, cfg.warmup_days, cfg.latency)
    }
}

/// The simulator.
#[derive(Debug)]
pub struct SpecSim<'a> {
    trace: &'a Trace,
    /// Per-client hop distance to the home servers (at the tree root).
    hops: Vec<u32>,
    /// The replay kernel's cluster partition (DESIGN.md §12). Replay
    /// state is strictly per-client (caches, profiles), the matrices
    /// are read-only, and every accumulator is an integer sum — so any
    /// client partition replays independently and merges *exactly*.
    shards: ClusterShards,
}

#[derive(Debug, Default, PartialEq, Eq)]
struct ReplayCounters {
    pushes: u64,
    push_bytes: u64,
    wasted_pushes: u64,
    wasted_push_bytes: u64,
    cache_hits: u64,
    prefetches: u64,
    /// Per-access service times of every access (cache hits record
    /// 0 ms). A multiset, so shard merges compare equal to a serial
    /// replay structurally.
    service: ServiceTimeDist,
}

impl ReplayCounters {
    /// Merges a shard's counters (saturating sums, so the merge is exact
    /// short of u64::MAX and order-independent; shards still merge in
    /// canonical order).
    fn merge(&mut self, other: &ReplayCounters) {
        self.pushes = self.pushes.saturating_add(other.pushes);
        self.push_bytes = self.push_bytes.saturating_add(other.push_bytes);
        self.wasted_pushes = self.wasted_pushes.saturating_add(other.wasted_pushes);
        self.wasted_push_bytes = self
            .wasted_push_bytes
            .saturating_add(other.wasted_push_bytes);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.prefetches = self.prefetches.saturating_add(other.prefetches);
        self.service.merge(&other.service);
    }
}

impl<'a> SpecSim<'a> {
    /// Creates a simulator over a trace and the topology its clients
    /// live on.
    pub fn new(trace: &'a Trace, topo: &Topology) -> SpecSim<'a> {
        let hops = trace.clients.iter().map(|c| topo.depth(c.node)).collect();
        let nodes: Vec<specweb_core::ids::NodeId> = trace.clients.iter().map(|c| c.node).collect();
        let shards = ClusterShards::partition(topo, &nodes);
        SpecSim {
            trace,
            hops,
            shards,
        }
    }

    /// Runs both replays and computes the ratios.
    pub fn run(&self, cfg: &SpecConfig) -> Result<SpecOutcome> {
        self.run_with_store_and_baseline(cfg, None, None)
    }

    /// The baseline (no-speculation) replay alone. The baseline depends
    /// only on the trace and on `cache`, `warmup_days` and `latency` —
    /// not on policy, `max_size`, cooperation, hints or the estimator —
    /// so parameter sweeps over those knobs can compute it **once** and
    /// hand it to [`SpecSim::run_with_store_and_baseline`] instead of
    /// re-replaying an identical baseline at every sweep point.
    pub fn baseline_totals(&self, cfg: &SpecConfig) -> Result<BaselineRun> {
        let (totals, counters) = self.replay(cfg, None)?;
        Ok(BaselineRun::under(cfg, totals, &counters))
    }

    /// Like [`SpecSim::run`], but reuses what a parameter sweep shares
    /// between its points. `store` is a precomputed [`MatrixStore`] (it
    /// must have been built with the same estimator configuration), so
    /// `P`/`P*` are not re-estimated for every policy point; `None`
    /// precomputes one here over the trace's own day span. `baseline` is
    /// a replay computed by [`SpecSim::baseline_totals`] under the same
    /// `cache` model, `warmup_days` and `latency` model — the only
    /// configuration the baseline replay reads, and one computed under
    /// other values is rejected; `None` replays the baseline here.
    pub fn run_with_store_and_baseline(
        &self,
        cfg: &SpecConfig,
        store: Option<&MatrixStore>,
        baseline: Option<&BaselineRun>,
    ) -> Result<SpecOutcome> {
        cfg.policy.validate()?;
        if baseline.is_some_and(|b| !b.holds_for(cfg)) {
            return Err(CoreError::invalid_config(
                "spec.baseline",
                "baseline was replayed under a different cache, warmup_days or latency",
            ));
        }
        let own;
        let store = match store {
            Some(s) if *s.config() != cfg.estimator => {
                return Err(CoreError::invalid_config(
                    "spec.matrix_store",
                    "store was precomputed with a different estimator configuration",
                ));
            }
            // `for_day` clamps to the last boundary: a store that ends
            // before the trace does would serve its last matrices for
            // every later day.
            Some(s)
                if self.trace.days()
                    > (s.len() as u64).saturating_mul(cfg.estimator.update_cycle_days) =>
            {
                return Err(CoreError::invalid_config(
                    "spec.matrix_store",
                    "store was precomputed over fewer days than the trace spans",
                ));
            }
            Some(s) => s,
            None => {
                own = MatrixStore::precompute(&cfg.estimator, self.trace, self.trace.days())?;
                &own
            }
        };
        let (speculative, counters) = self.replay(cfg, Some(store))?;
        let base = match baseline {
            Some(b) => *b,
            None => self.baseline_totals(cfg)?,
        };
        Ok(SpecOutcome::assemble(cfg, speculative, &counters, base))
    }

    /// One replay pass through the kernel — speculative on `store`'s
    /// matrices, the baseline without one — which may fan the cluster
    /// shards out and merge the partial totals; the merge is exact (see
    /// the `shards` field), so the result is byte-identical to a serial
    /// replay for any worker count.
    fn replay(
        &self,
        cfg: &SpecConfig,
        store: Option<&MatrixStore>,
    ) -> Result<(RunTotals, ReplayCounters)> {
        // One frame per replay pass — placed here (not per shard, whose
        // call count varies with the kernel's worker gate) so profiler
        // call counts stay jobs-invariant.
        let _f = specweb_core::obs::profile::frame(match store {
            Some(_) => "spec.replay",
            None => "spec.replay.baseline",
        });
        let (totals, counters) = self.shards.replay_sharded(
            &self.trace.accesses,
            |a| a.client.index(),
            |clients, accesses| self.replay_shard(cfg, store, clients, accesses),
            |whole: &mut (RunTotals, ReplayCounters), (totals, counters)| {
                whole.0.merge(&totals);
                whole.1.merge(&counters);
            },
        )?;
        self.record_replay(cfg, store, &totals, &counters);
        Ok((totals, counters))
    }

    /// Replays one shard of accesses (or, on the serial path, all of
    /// them) of the clients `owned`, holding a cache — and a profile, if
    /// the configuration reads one — for each of those and no other.
    /// Accesses must arrive in trace order within the shard. A request
    /// whose `P*` row the store never closed means the store was built
    /// over another trace: the replay stops with `invalid_config`.
    fn replay_shard(
        &self,
        cfg: &SpecConfig,
        store: Option<&MatrixStore>,
        owned: ShardClients<'_>,
        accesses: &mut dyn Iterator<Item = &specweb_trace::generator::Access>,
    ) -> Result<(RunTotals, ReplayCounters)> {
        let trace = self.trace;
        let catalog = &trace.catalog;

        let mut caches = vec![ClientCache::new(cfg.cache); owned.len()];
        let needs_profiles =
            cfg.client_profile_prefetch.is_some() || cfg.hint_policy.reads_profile();
        let n_profiles = if needs_profiles { owned.len() } else { 0 };
        let mut profiles = vec![UserProfile::new(cfg.estimator.window); n_profiles];

        let mut totals = RunTotals::new();
        let mut counters = ReplayCounters::default();

        for a in accesses {
            let day = a.time.day();
            let measured = day >= cfg.warmup_days;
            let ci = a.client.index();
            let slot = owned.slot(ci);
            let size = catalog.size(a.doc);
            let hops = self.hops[ci];

            caches[slot].on_request(a.time);
            if measured {
                totals.accesses += 1;
                totals.accessed_bytes += size;
            }

            let hit = caches[slot].contains(a.doc);
            if hit {
                if measured {
                    counters.cache_hits += 1;
                    // A hit is served instantly: it still contributes a
                    // sample (0 ms) so the quantiles describe what the
                    // *client* experienced, not just the misses.
                    counters.service.record(0);
                }
                // Cache hits are free and invisible to the server; only
                // client-side machinery observes them.
                if store.is_some() {
                    if let Some(tp) = cfg.client_profile_prefetch {
                        self.prefetch(
                            profiles[slot]
                                .predict(a.doc, tp)
                                .into_iter()
                                .map(|(j, _)| j),
                            measured,
                            &mut caches[slot],
                            &mut totals,
                            &mut counters,
                        );
                    }
                }
                if needs_profiles {
                    profiles[slot].record(a.time, a.doc);
                }
                continue;
            }

            // Miss: fetch from the server.
            if measured {
                totals.miss_bytes += size;
                totals.server_requests += 1;
                totals.bytes_sent += size;
                let served_ms = cfg.latency.fetch(size, hops).as_millis();
                totals.latency_ms = totals.latency_ms.saturating_add(served_ms);
                counters.service.record(served_ms);
            }
            caches[slot].insert(a.doc, size);

            // The server sees this request — speculation may ride along.
            if let Some(store) = store {
                if cfg.policy.reads_closure() && !store.demands(day, a.doc) {
                    return Err(CoreError::invalid_config(
                        "spec.matrix_store",
                        format!(
                            "store was precomputed over another trace: it holds no P* row \
                             of document {} on day {day}",
                            a.doc
                        ),
                    ));
                }
                let matrices = store.for_day(day);
                let cache = &mut caches[slot];
                // Only cooperative clients tell the server what they hold.
                let decision = decide(
                    &cfg.policy,
                    &matrices.closure,
                    &matrices.direct,
                    a.doc,
                    catalog,
                    cfg.max_size,
                    |j| cfg.cooperative && cache.peek(j),
                );
                for &(j, _) in &decision.push {
                    if j == a.doc {
                        continue;
                    }
                    let jsize = catalog.size(j);
                    counters.pushes += 1;
                    counters.push_bytes = counters.push_bytes.saturating_add(jsize.get());
                    if cache.peek(j) {
                        counters.wasted_pushes += 1;
                        counters.wasted_push_bytes =
                            counters.wasted_push_bytes.saturating_add(jsize.get());
                    }
                    if measured {
                        totals.bytes_sent += jsize;
                    }
                    cache.insert(j, jsize);
                }
                // Hints → client-initiated prefetches (cost a request).
                if !decision.hints.is_empty() {
                    let chosen = cfg
                        .hint_policy
                        .select(&decision.hints, |j| profiles[slot].probability(a.doc, j));
                    self.prefetch(
                        chosen,
                        measured,
                        &mut caches[slot],
                        &mut totals,
                        &mut counters,
                    );
                }
            }

            // Pure client-side profile prefetching (with or without
            // server speculation — the paper proposes combining them).
            // Like pushes, it is part of the treatment: the baseline
            // replay must not prefetch.
            if store.is_some() {
                if let Some(tp) = cfg.client_profile_prefetch {
                    self.prefetch(
                        profiles[slot]
                            .predict(a.doc, tp)
                            .into_iter()
                            .map(|(j, _)| j),
                        measured,
                        &mut caches[slot],
                        &mut totals,
                        &mut counters,
                    );
                }
            }

            if needs_profiles {
                profiles[slot].record(a.time, a.doc);
            }
        }
        Ok((totals, counters))
    }

    /// Publishes one replay's accounting into the run's installed obs
    /// bundle (no-op outside a run). Aggregate `spec.*` counters match
    /// the ISSUE-level names; `spec.policy.<label>.*` break the same
    /// numbers down per speculation policy. Everything here is a pure
    /// function of trace + config, so it all sits on the deterministic
    /// channel and merges additively across replays and sweep points.
    fn record_replay(
        &self,
        cfg: &SpecConfig,
        store: Option<&MatrixStore>,
        totals: &RunTotals,
        counters: &ReplayCounters,
    ) {
        let Some(obs) = &specweb_core::obs::current() else {
            return;
        };
        if store.is_none() {
            obs.metrics
                .counter("spec.baseline_requests")
                .add(totals.server_requests);
            counters
                .service
                .publish(obs, "spec.baseline.service_time_ms");
            return;
        }
        let label = cfg.policy.kind_label();
        counters.service.publish(obs, "spec.service_time_ms");
        counters
            .service
            .publish(obs, &format!("spec.policy.{label}.service_time_ms"));
        let pairs = [
            ("accesses", totals.accesses),
            ("server_requests", totals.server_requests),
            ("cache_hits", counters.cache_hits),
            ("pushes", counters.pushes),
            ("push_bytes", counters.push_bytes),
            ("pushes_wasted", counters.wasted_pushes),
            ("pushes_wasted_bytes", counters.wasted_push_bytes),
            ("prefetches", counters.prefetches),
        ];
        for (name, v) in pairs {
            obs.metrics.counter(&format!("spec.{name}")).add(v);
            obs.metrics
                .counter(&format!("spec.policy.{label}.{name}"))
                .add(v);
        }
    }

    /// Client-initiated prefetches of `docs` — hints the client acts
    /// on, or its own profile's predictions, which run on *every* access
    /// (the client sees its cache hits even though the server does not).
    /// Each one not already cached is a normal request.
    fn prefetch(
        &self,
        docs: impl IntoIterator<Item = specweb_core::ids::DocId>,
        measured: bool,
        cache: &mut ClientCache,
        totals: &mut RunTotals,
        counters: &mut ReplayCounters,
    ) {
        for j in docs {
            if cache.peek(j) {
                continue; // clients know their own cache
            }
            let jsize = self.trace.catalog.size(j);
            counters.prefetches += 1;
            if measured {
                totals.server_requests += 1;
                totals.bytes_sent += jsize;
            }
            cache.insert(j, jsize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specweb_trace::generator::{TraceConfig, TraceGenerator};

    fn setup(seed: u64) -> (Trace, Topology) {
        let topo = Topology::balanced(2, 3, 4);
        let mut tc = TraceConfig::small(seed);
        tc.duration_days = 14;
        tc.sessions_per_day = 60;
        let trace = TraceGenerator::new(tc).unwrap().generate(&topo).unwrap();
        (trace, topo)
    }

    fn cfg(tp: f64) -> SpecConfig {
        let mut c = SpecConfig::baseline(tp);
        c.estimator.history_days = 10;
        c.warmup_days = 4;
        c
    }

    /// The worker count is process-wide and gates the sharded path, so
    /// a test that pins it to compare widths holds this lock meanwhile
    /// (every other test's output is the same at any width).
    fn pin_jobs() -> std::sync::MutexGuard<'static, ()> {
        static JOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        JOBS.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn speculation_off_is_exactly_unity() {
        let (trace, topo) = setup(200);
        let sim = SpecSim::new(&trace, &topo);
        // T_p = 1 + ε can never fire… but T_p must be ≤ 1; use a policy
        // that can't match instead: threshold exactly 1.0 pushes only
        // certain deps, so use TopK with k = 0.
        let mut c = cfg(0.5);
        c.policy = Policy::TopK { k: 0, floor: 0.5 };
        let out = sim.run(&c).unwrap();
        assert_eq!(out.pushes, 0);
        assert_eq!(out.speculative, out.baseline);
        assert!((out.ratios.bandwidth - 1.0).abs() < 1e-12);
        assert!((out.ratios.server_load - 1.0).abs() < 1e-12);
        assert!((out.ratios.service_time - 1.0).abs() < 1e-12);
        assert!((out.ratios.miss_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn moderate_speculation_improves_the_three_metrics() {
        let (trace, topo) = setup(201);
        let sim = SpecSim::new(&trace, &topo);
        let out = sim.run(&cfg(0.4)).unwrap();
        assert!(out.pushes > 0, "no speculation happened");
        assert!(
            out.ratios.bandwidth >= 1.0,
            "speculation cannot reduce traffic: {}",
            out.ratios.bandwidth
        );
        assert!(
            out.ratios.server_load < 1.0,
            "server load should drop: {}",
            out.ratios.server_load
        );
        assert!(
            out.ratios.service_time < 1.0,
            "service time should drop: {}",
            out.ratios.service_time
        );
        assert!(
            out.ratios.miss_rate < 1.0,
            "miss rate should drop: {}",
            out.ratios.miss_rate
        );
    }

    #[test]
    fn lower_threshold_means_more_traffic_and_more_savings() {
        let (trace, topo) = setup(202);
        let sim = SpecSim::new(&trace, &topo);
        let conservative = sim.run(&cfg(0.8)).unwrap();
        let aggressive = sim.run(&cfg(0.1)).unwrap();
        assert!(
            aggressive.ratios.bandwidth >= conservative.ratios.bandwidth,
            "aggressive speculation must cost at least as much traffic"
        );
        assert!(
            aggressive.ratios.server_load <= conservative.ratios.server_load + 1e-9,
            "aggressive speculation must save at least as much load"
        );
    }

    #[test]
    fn diminishing_returns_of_aggressive_speculation() {
        // The paper's headline shape: the first percent of extra traffic
        // buys far more load reduction than the last.
        let (trace, topo) = setup(203);
        let sim = SpecSim::new(&trace, &topo);
        let mid = sim.run(&cfg(0.5)).unwrap();
        let aggr = sim.run(&cfg(0.05)).unwrap();
        let eff = |o: &SpecOutcome| {
            let extra = (o.ratios.bandwidth - 1.0).max(1e-9);
            (1.0 - o.ratios.server_load) / extra
        };
        assert!(
            eff(&mid) > eff(&aggr),
            "efficiency should fall with aggression: mid {} aggr {}",
            eff(&mid),
            eff(&aggr)
        );
    }

    #[test]
    fn embedding_only_is_nearly_traffic_neutral() {
        let (trace, topo) = setup(204);
        let sim = SpecSim::new(&trace, &topo);
        let mut c = cfg(0.5);
        c.policy = Policy::EmbeddingOnly;
        let out = sim.run(&c).unwrap();
        // Pushing only certain dependencies wastes almost nothing: the
        // only waste is re-pushing *shared* icons the client already
        // cached via another page, and icons are a few hundred bytes.
        assert!(
            out.ratios.bandwidth < 1.08,
            "embedding-only should be ≈ traffic neutral, got {}",
            out.ratios.bandwidth
        );
        // …and still saves some load (the <5% the paper reports).
        assert!(out.ratios.server_load <= 1.0);
    }

    #[test]
    fn cooperative_clients_save_bandwidth_not_lose_load() {
        let (trace, topo) = setup(205);
        let sim = SpecSim::new(&trace, &topo);
        let mut plain = cfg(0.2);
        plain.cache = CacheModel::Session {
            timeout: specweb_core::time::Duration::from_secs(3_600),
        };
        let mut coop = plain;
        coop.cooperative = true;
        let p = sim.run(&plain).unwrap();
        let c = sim.run(&coop).unwrap();
        assert_eq!(c.wasted_pushes, 0, "cooperative clients never waste");
        assert!(
            c.ratios.bandwidth <= p.ratios.bandwidth + 1e-9,
            "cooperation must not increase traffic: {} vs {}",
            c.ratios.bandwidth,
            p.ratios.bandwidth
        );
        assert!(
            (c.ratios.server_load - p.ratios.server_load).abs() < 0.02,
            "cooperation should barely affect load: {} vs {}",
            c.ratios.server_load,
            p.ratios.server_load
        );
    }

    #[test]
    fn max_size_caps_traffic() {
        let (trace, topo) = setup(206);
        let sim = SpecSim::new(&trace, &topo);
        let unlimited = sim.run(&cfg(0.2)).unwrap();
        let mut small = cfg(0.2);
        small.max_size = Bytes::from_kib(8);
        let capped = sim.run(&small).unwrap();
        assert!(
            capped.ratios.bandwidth <= unlimited.ratios.bandwidth,
            "MaxSize must not increase traffic"
        );
    }

    #[test]
    fn gains_persist_without_long_term_cache() {
        // §3.4: "possible even in the absence of any long-term client
        // cache" — i.e. with only a short-lived session cache to hold
        // the pushed documents.
        let (trace, topo) = setup(207);
        let sim = SpecSim::new(&trace, &topo);
        let mut c = cfg(0.3);
        c.cache = CacheModel::Session {
            timeout: specweb_core::time::Duration::from_secs(600),
        };
        let out = sim.run(&c).unwrap();
        assert!(
            out.ratios.server_load < 1.0,
            "speculation should still help without a long-term cache: {}",
            out.ratios.server_load
        );
        assert!(out.ratios.service_time < 1.0);
    }

    #[test]
    fn strict_no_cache_makes_speculation_useless() {
        // The theoretical endpoint: if the client discards even the
        // documents just pushed to it, speculation cannot help — only
        // cost bandwidth.
        let (trace, topo) = setup(207);
        let sim = SpecSim::new(&trace, &topo);
        let mut c = cfg(0.3);
        c.cache = CacheModel::None;
        let out = sim.run(&c).unwrap();
        assert!((out.ratios.server_load - 1.0).abs() < 1e-9);
        assert!(out.ratios.bandwidth >= 1.0);
    }

    #[test]
    fn session_cache_sits_between_none_and_infinite() {
        let (trace, topo) = setup(208);
        let sim = SpecSim::new(&trace, &topo);
        let run_with = |cache: CacheModel| {
            let mut c = cfg(0.3);
            c.cache = cache;
            sim.run(&c).unwrap()
        };
        let none = run_with(CacheModel::None);
        let session = run_with(CacheModel::Session {
            timeout: specweb_core::time::Duration::from_secs(3_600),
        });
        let inf = run_with(CacheModel::Infinite);
        // Absolute baseline load falls as caches grow.
        assert!(none.baseline.server_requests >= session.baseline.server_requests);
        assert!(session.baseline.server_requests >= inf.baseline.server_requests);
    }

    #[test]
    fn hybrid_hints_generate_prefetch_requests() {
        let (trace, topo) = setup(209);
        let sim = SpecSim::new(&trace, &topo);
        let mut c = cfg(0.3);
        c.policy = Policy::Hybrid {
            push_tp: 0.9,
            hint_tp: 0.2,
        };
        c.hint_policy = HintPolicy::Threshold { tp: 0.2 };
        let out = sim.run(&c).unwrap();
        assert!(out.prefetches > 0, "hints should trigger prefetches");
        // Prefetches count as server requests, so load reduction is
        // smaller than for pure pushes at the same coverage. A threshold
        // reads the hints alone: the replay used to record a
        // `UserProfile` per client beside it that nothing looked up, and
        // these are the numbers it produced then (commit ef83d7b).
        let s = &out.speculative;
        assert_eq!(
            (out.pushes, out.wasted_pushes, out.prefetches),
            (259, 44, 1_030),
            "pushes, wasted, prefetches"
        );
        assert_eq!(
            (s.server_requests, s.bytes_sent.get(), s.latency_ms),
            (1_065, 1_371_103, 54_470),
            "requests, bytes, latency"
        );
    }

    #[test]
    fn client_profile_prefetch_runs() {
        // Re-traversals only exist across sessions, so the client needs
        // a session cache for profile prefetching to have work to do.
        let (trace, topo) = setup(210);
        let sim = SpecSim::new(&trace, &topo);
        let mut c = cfg(0.3);
        c.policy = Policy::TopK { k: 0, floor: 1.0 }; // no server pushes
        c.cache = CacheModel::Session {
            timeout: specweb_core::time::Duration::from_secs(3_600),
        };
        c.client_profile_prefetch = Some(0.5);
        let out = sim.run(&c).unwrap();
        assert!(
            out.prefetches > 0,
            "profile prefetching should fire on re-traversals"
        );
        // Miss rate should improve (re-traversals predicted)…
        assert!(out.ratios.miss_rate <= 1.0);
    }

    #[test]
    fn obs_records_per_policy_accounting() {
        use specweb_core::obs::{MetricValue, Obs};
        let (trace, topo) = setup(230);
        let obs = Obs::new();
        let sim = SpecSim::new(&trace, &topo);
        let out = {
            let _run = obs.install();
            sim.run(&cfg(0.3)).unwrap()
        };
        let snap = obs.snapshot();
        assert!(
            snap.wallclock.is_empty(),
            "replay metrics are deterministic"
        );
        let counter = |name: &str| match snap.deterministic.get(name) {
            Some(MetricValue::Counter { value }) => *value,
            other => panic!("missing counter {name}: {other:?}"),
        };
        assert_eq!(counter("spec.pushes"), out.pushes);
        assert_eq!(counter("spec.policy.threshold.pushes"), out.pushes);
        assert_eq!(counter("spec.pushes_wasted"), out.wasted_pushes);
        assert_eq!(counter("spec.accesses"), out.speculative.accesses);
        assert_eq!(
            counter("spec.server_requests"),
            out.speculative.server_requests
        );
        assert_eq!(
            counter("spec.baseline_requests"),
            out.baseline.server_requests
        );
        assert!(
            counter("spec.push_bytes") >= counter("spec.pushes_wasted_bytes"),
            "wasted bytes are a subset of pushed bytes"
        );
        assert!(counter("spec.cache_hits") > 0, "warm caches must hit");
        // The service-time distribution lands on the deterministic
        // channel as a log₂-bucketed histogram, total mass = accesses.
        for name in [
            "spec.service_time_ms",
            "spec.policy.threshold.service_time_ms",
            "spec.baseline.service_time_ms",
        ] {
            match snap.deterministic.get(name) {
                Some(MetricValue::Histogram { bins, .. }) => {
                    assert!(bins.iter().sum::<u64>() > 0, "{name} histogram is empty");
                }
                other => panic!("missing histogram {name}: {other:?}"),
            }
        }

        // The same runs against a fresh registry must reproduce the
        // snapshot byte-for-byte: the channel is deterministic.
        let obs2 = Obs::new();
        {
            let _run = obs2.install();
            sim.run(&cfg(0.3)).unwrap();
        }
        assert_eq!(obs2.snapshot(), snap);
    }

    #[test]
    fn deterministic() {
        let (trace, topo) = setup(211);
        let sim = SpecSim::new(&trace, &topo);
        let a = sim.run(&cfg(0.3)).unwrap();
        let b = sim.run(&cfg(0.3)).unwrap();
        assert_eq!(a.speculative, b.speculative);
        assert_eq!(a.baseline, b.baseline);
    }

    #[test]
    fn conservation_laws() {
        let (trace, topo) = setup(212);
        let sim = SpecSim::new(&trace, &topo);
        let out = sim.run(&cfg(0.3)).unwrap();
        for run in [&out.speculative, &out.baseline] {
            assert!(run.bytes_sent >= run.miss_bytes, "sent ≥ missed");
            assert!(run.accessed_bytes >= run.miss_bytes);
            assert!(run.accesses >= run.server_requests - out.prefetches);
        }
        // Both replays see the same client demand.
        assert_eq!(out.speculative.accesses, out.baseline.accesses);
        assert_eq!(out.speculative.accessed_bytes, out.baseline.accessed_bytes);
        // Costs are consistent with the weights.
        assert!(out.cost_speculative > 0.0 && out.cost_baseline > 0.0);
    }

    #[test]
    fn rejects_mismatched_matrix_store() {
        use crate::estimator::MatrixStore;
        let (trace, topo) = setup(214);
        let sim = SpecSim::new(&trace, &topo);
        let cfg_a = cfg(0.3);
        assert_eq!(trace.days(), 14);
        let store = MatrixStore::precompute(&cfg_a.estimator, &trace, 14).unwrap();
        // Same config over exactly the trace's span works…
        assert!(sim
            .run_with_store_and_baseline(&cfg_a, Some(&store), None)
            .is_ok());
        // …a store that ends before the trace does is rejected, not
        // replayed on its last boundary's matrices…
        let short = MatrixStore::precompute(&cfg_a.estimator, &trace, 5).unwrap();
        let err = sim
            .run_with_store_and_baseline(&cfg_a, Some(&short), None)
            .unwrap_err();
        assert!(err.to_string().contains("spec.matrix_store"), "{err}");
        // …a different estimator config is rejected.
        let mut cfg_b = cfg_a;
        cfg_b.estimator.history_days += 1;
        assert!(sim
            .run_with_store_and_baseline(&cfg_b, Some(&store), None)
            .is_err());
    }

    #[test]
    fn a_store_over_another_trace_is_refused() {
        // A store closes the `P*` rows its own trace requests: a replay
        // of another trace of the same span asks for rows it never
        // closed, and is refused rather than served empty rows.
        use crate::estimator::MatrixStore;
        let (trace, topo) = setup(215);
        let (other, _) = setup(216);
        let c = cfg(0.3);
        let store = MatrixStore::precompute(&c.estimator, &other, other.days()).unwrap();
        let err = SpecSim::new(&trace, &topo)
            .run_with_store_and_baseline(&c, Some(&store), None)
            .unwrap_err();
        let err = err.to_string();
        assert!(
            err.contains("spec.matrix_store") && err.contains("another trace"),
            "{err}"
        );
        // Its own trace replays on it…
        let own = SpecSim::new(&other, &topo);
        assert!(own
            .run_with_store_and_baseline(&c, Some(&store), None)
            .is_ok());
        // …and a policy that reads `P` alone reads nothing it lacks.
        let direct = SpecConfig {
            policy: Policy::DirectThreshold { tp: 0.3 },
            ..c
        };
        let sim = SpecSim::new(&trace, &topo);
        assert!(sim
            .run_with_store_and_baseline(&direct, Some(&store), None)
            .is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn outcomes_are_equal_under_the_demand_store_and_the_full_twin(
            seed in 300u64..400,
            update_cycle_days in 1u64..=7,
            history_days in 1u64..=8,
            aging_decay in proptest::prop_oneof![
                proptest::prelude::Just(None),
                proptest::prelude::Just(Some(0.8)),
            ],
        ) {
            use crate::estimator::MatrixStore;
            let (trace, topo) = setup(seed);
            let sim = SpecSim::new(&trace, &topo);
            let mut base = cfg(0.3);
            base.estimator.update_cycle_days = update_cycle_days;
            base.estimator.history_days = history_days;
            base.estimator.aging_decay = aging_decay;
            let est = &base.estimator;
            let demand = MatrixStore::precompute(est, &trace, trace.days()).unwrap();
            let full = MatrixStore::precompute_full(est, &trace, trace.days());
            let baseline = sim.baseline_totals(&base).unwrap();
            let policies = [
                (Policy::Threshold { tp: 0.2 }, HintPolicy::Ignore),
                (Policy::DirectThreshold { tp: 0.2 }, HintPolicy::Ignore),
                (Policy::TopK { k: 3, floor: 0.05 }, HintPolicy::Ignore),
                (Policy::EmbeddingOnly, HintPolicy::Ignore),
                (
                    Policy::Hybrid { push_tp: 0.8, hint_tp: 0.2 },
                    HintPolicy::Threshold { tp: 0.3 },
                ),
            ];
            for (policy, hint_policy) in policies {
                for cooperative in [false, true] {
                    let c = SpecConfig { policy, hint_policy, cooperative, ..base };
                    let [got, want] = [&demand, &full].map(|store| {
                        let out = sim.run_with_store_and_baseline(&c, Some(store), Some(&baseline));
                        serde_json::to_string(&out.unwrap()).unwrap()
                    });
                    proptest::prop_assert_eq!(got, want, "{:?}, cooperative {}", policy, cooperative);
                }
            }
        }
    }

    /// The replay paths that keep different per-client state: the
    /// bitset alone, the LRU's recency list, hints taken without a
    /// profile, hints gated by one, and profile-driven prefetching.
    fn state_variants() -> Vec<(&'static str, SpecConfig)> {
        let hybrid = Policy::Hybrid {
            push_tp: 0.9,
            hint_tp: 0.2,
        };
        let base = cfg(0.3);
        vec![
            ("infinite", base),
            (
                "lru",
                SpecConfig {
                    cache: CacheModel::Lru {
                        capacity: Bytes::from_kib(256),
                    },
                    ..base
                },
            ),
            (
                "hybrid + threshold hints",
                SpecConfig {
                    policy: hybrid,
                    hint_policy: HintPolicy::Threshold { tp: 0.2 },
                    ..base
                },
            ),
            (
                "hybrid + profile-gated hints",
                SpecConfig {
                    policy: hybrid,
                    hint_policy: HintPolicy::ProfileGated {
                        tp: 0.2,
                        own_tp: 0.3,
                    },
                    ..base
                },
            ),
            (
                "client profile prefetch",
                SpecConfig {
                    cache: CacheModel::Session {
                        timeout: specweb_core::time::Duration::from_secs(3_600),
                    },
                    client_profile_prefetch: Some(0.5),
                    ..base
                },
            ),
        ]
    }

    #[test]
    fn sharded_replay_equals_serial_replay() {
        // The per-cluster shards — each holding caches and profiles for
        // its own clients only — must merge to exactly what a single
        // full-order pass over the whole population produces:
        // speculative and baseline, on every replay path. Sharding only
        // engages with >1 worker; output is identical at any width, so
        // pinning the process default is side-effect-free.
        let _pinned = pin_jobs();
        let (trace, topo) = setup(240);
        let sim = SpecSim::new(&trace, &topo);
        assert!(
            sim.shards.n_shards() > 1,
            "topology must yield several shards"
        );
        let store = MatrixStore::precompute(&cfg(0.3).estimator, &trace, 14).unwrap();
        for (label, c) in state_variants() {
            for store in [Some(&store), None] {
                let serial = sim
                    .replay_shard(
                        &c,
                        store,
                        sim.shards.all_clients(),
                        &mut trace.accesses.iter(),
                    )
                    .unwrap();
                for jobs in [1, 2, 4] {
                    specweb_core::par::set_default_jobs(jobs);
                    let sharded = sim.replay(&c, store).unwrap();
                    let which = (label, store.is_some(), jobs);
                    assert_eq!(
                        serial.0, sharded.0,
                        "totals diverge (path, spec, jobs) = {which:?}"
                    );
                    assert_eq!(
                        serial.1, sharded.1,
                        "counters diverge (path, spec, jobs) = {which:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_equals_a_serial_replay_of_from_scratch_estimates() {
        // The two things `run` does on its own — precompute the store
        // over the trace's day span, replay through the kernel — against
        // the slow twin of each: the from-scratch estimate of every
        // boundary, replayed in one pass.
        let _pinned = pin_jobs();
        let (trace, topo) = setup(243);
        let sim = SpecSim::new(&trace, &topo);
        let hard = cfg(0.3);
        let mut aged = hard;
        aged.estimator.aging_decay = Some(0.8);
        for c in [hard, aged] {
            let slow = MatrixStore::from_scratch(&c.estimator, &trace, trace.days());
            let [(spec, counters), (base, base_counters)] = [Some(&slow), None].map(|store| {
                let all = sim.shards.all_clients();
                (sim.replay_shard(&c, store, all, &mut trace.accesses.iter())).unwrap()
            });
            let base = BaselineRun::under(&c, base, &base_counters);
            let serial = SpecOutcome::assemble(&c, spec, &counters, base);
            let serial = serde_json::to_string(&serial).unwrap();
            for jobs in [1, 2] {
                specweb_core::par::set_default_jobs(jobs);
                assert_eq!(
                    serde_json::to_string(&sim.run(&c).unwrap()).unwrap(),
                    serial,
                    "run at jobs {jobs}, {:?}",
                    c.estimator
                );
            }
        }
    }

    #[test]
    fn baseline_reuse_is_exact() {
        // The demand replay depends only on trace + cache + warmup, so a
        // precomputed baseline must reproduce the inline one exactly —
        // including across policy changes, which is what lets sweeps
        // share one baseline replay.
        let (trace, topo) = setup(241);
        let sim = SpecSim::new(&trace, &topo);
        let c = cfg(0.3);
        let store = MatrixStore::precompute(&c.estimator, &trace, 14).unwrap();
        let inline = sim
            .run_with_store_and_baseline(&c, Some(&store), None)
            .unwrap();
        let base = sim.baseline_totals(&c).unwrap();
        let reused = sim
            .run_with_store_and_baseline(&c, Some(&store), Some(&base))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&inline).unwrap(),
            serde_json::to_string(&reused).unwrap()
        );
        let mut c2 = c;
        c2.policy = Policy::TopK { k: 3, floor: 0.2 };
        let inline2 = sim
            .run_with_store_and_baseline(&c2, Some(&store), None)
            .unwrap();
        let reused2 = sim
            .run_with_store_and_baseline(&c2, Some(&store), Some(&base))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&inline2).unwrap(),
            serde_json::to_string(&reused2).unwrap()
        );
        // What the baseline replay does read must match: a baseline
        // replayed under another value would silently skew every ratio.
        let mut other_cache = c;
        other_cache.cache = CacheModel::None;
        let mut other_warmup = c;
        other_warmup.warmup_days += 1;
        let mut other_latency = c;
        other_latency.latency.bytes_per_sec *= 2;
        for other in [other_cache, other_warmup, other_latency] {
            let err = sim
                .run_with_store_and_baseline(&other, Some(&store), Some(&base))
                .unwrap_err();
            assert!(err.to_string().contains("spec.baseline"), "{err}");
        }
    }

    #[test]
    fn service_time_quantiles_are_jobs_invariant() {
        // The ISSUE's golden property: the exact quantile summary — an
        // order statistic over every served access — must serialize
        // byte-identically whether the replay ran serially or sharded
        // over four workers. Pinning the process default is
        // side-effect-free for the same reason as above.
        let (trace, topo) = setup(242);
        let sim = SpecSim::new(&trace, &topo);
        assert!(
            sim.shards.n_shards() > 1,
            "topology must yield several shards"
        );
        let c = cfg(0.3);
        let store = MatrixStore::precompute(&c.estimator, &trace, 14).unwrap();
        let _pinned = pin_jobs();
        specweb_core::par::set_default_jobs(1);
        let serial = sim
            .run_with_store_and_baseline(&c, Some(&store), None)
            .unwrap();
        specweb_core::par::set_default_jobs(4);
        let parallel = sim
            .run_with_store_and_baseline(&c, Some(&store), None)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "service-time quantiles diverged across --jobs"
        );
        // Every measured access records one sample, so the summary
        // covers all of them; hits at 0 ms drag the median below the
        // miss-dominated mean.
        assert_eq!(serial.service_times.count, serial.speculative.accesses);
        assert!(serial.service_times.p50_ms <= serial.service_times.p99_ms);
        assert!(serial.service_times.max_ms > 0);
        // Speculation turns misses into hits, so the speculative tail
        // sits at or below the baseline tail.
        assert!(serial.service_times.p90_ms <= serial.baseline_service_times.p90_ms);
    }

    #[test]
    fn rejects_invalid_policy() {
        let (trace, topo) = setup(213);
        let sim = SpecSim::new(&trace, &topo);
        let mut c = cfg(0.3);
        c.policy = Policy::Threshold { tp: 0.0 };
        assert!(sim.run(&c).is_err());
    }
}
