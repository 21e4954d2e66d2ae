//! Deterministic fault injection for degraded-mode evaluation.
//!
//! The paper evaluates dissemination and speculation on a healthy
//! network. A robustness question it leaves open is how the protocols
//! behave when the substrate misbehaves: links fail and recover, proxies
//! crash, node capacity degrades. This module generates a **fault plan**
//! — a fixed schedule of fault windows derived from a [`SeedTree`] — that
//! the simulators replay against. Because the plan is materialized up
//! front (not sampled during replay), a given seed produces bit-for-bit
//! identical degraded-mode results on every run.
//!
//! Fault classes (each an independent renewal process per node, with
//! exponentially distributed up- and down-times):
//!
//! * **link faults** — the edge from a node to its parent is down; any
//!   request whose path crosses the edge cannot be served through it;
//! * **link delays** — the edge is up but slow by a constant factor
//!   (latency inflation);
//! * **proxy crashes** — an interior node loses its replica service
//!   until it recovers (requests fall through toward the home server);
//! * **capacity faults** — an interior node can only serve a fraction
//!   of the requests it sees while the window lasts;
//! * **slow clients** — a leaf drains responses slowly (its fetch
//!   latency is inflated), the classic event-loop stressor;
//! * **partial writes** — a leaf's transfers fragment into tiny pieces;
//!   a speculative push caught in the window arrives truncated and is
//!   re-sent or wasted;
//! * **stalls** — a leaf goes completely quiet mid-session and resumes
//!   when the window ends; its pending requests are deferred.
//!
//! The three client-side classes model the degraded peers the
//! `specweb-serve` event loop must absorb without pinning threads; the
//! serve chaos harness replays the same windows against real sockets.

use std::collections::BTreeMap;

use rand::Rng as _;
use serde::{Deserialize, Serialize};
use specweb_core::ids::NodeId;
use specweb_core::rng::SeedTree;
use specweb_core::time::{Duration, SimTime};
use specweb_core::{CoreError, Result};

use crate::topology::Topology;

/// A half-open interval `[start, end)` during which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub start: SimTime,
    /// First instant after recovery.
    pub end: SimTime,
}

impl FaultWindow {
    /// Is the fault active at `t`?
    #[inline]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Mean up/down times of one renewal-process fault class.
///
/// `Duration::INFINITE` for `mean_up` disables the class entirely.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultRate {
    /// Mean time between fault onsets (exponential).
    pub mean_up: Duration,
    /// Mean time to recovery (exponential).
    pub mean_down: Duration,
}

impl FaultRate {
    /// A disabled fault class.
    pub const OFF: FaultRate = FaultRate {
        mean_up: Duration::INFINITE,
        mean_down: Duration::ZERO,
    };

    fn enabled(&self) -> bool {
        !self.mean_up.is_infinite()
    }

    fn validate(&self, what: &'static str) -> Result<()> {
        if self.enabled() && (self.mean_up.as_millis() == 0 || self.mean_down.as_millis() == 0) {
            return Err(CoreError::invalid_config(
                what,
                "mean_up and mean_down must be positive when the class is enabled",
            ));
        }
        Ok(())
    }
}

/// Configuration for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultConfig {
    /// The span of simulated time the plan covers.
    pub horizon: Duration,
    /// Link (edge-to-parent) failure process, per non-root node.
    pub link: FaultRate,
    /// Link slowdown process, per non-root node.
    pub slow: FaultRate,
    /// Latency multiplier while a link is slow (> 1).
    pub slow_factor: f64,
    /// Proxy crash/recovery process, per interior node.
    pub crash: FaultRate,
    /// Capacity-degradation process, per interior node.
    pub capacity: FaultRate,
    /// Fraction of request-serving capacity left during a capacity
    /// fault (in `(0, 1]`).
    pub capacity_factor: f64,
    /// Slow-client process, per leaf node: the client drains its
    /// responses slowly, inflating its fetch latency.
    pub slow_client: FaultRate,
    /// Fetch-latency multiplier while a client is slow (≥ 1).
    pub slow_client_factor: f64,
    /// Partial-write process, per leaf node: transfers fragment into
    /// tiny pieces; pushes caught in the window arrive truncated.
    pub partial_write: FaultRate,
    /// Stall process, per leaf node: the client goes silent until the
    /// window ends; its requests are deferred.
    pub stall: FaultRate,
}

impl FaultConfig {
    /// A mild default: most of the time everything is healthy, but each
    /// class fires a handful of times over a multi-week horizon.
    pub fn light(horizon: Duration) -> FaultConfig {
        FaultConfig {
            horizon,
            link: FaultRate {
                mean_up: Duration::from_days(6),
                mean_down: Duration::from_secs(3 * 3600),
            },
            slow: FaultRate {
                mean_up: Duration::from_days(3),
                mean_down: Duration::from_secs(6 * 3600),
            },
            slow_factor: 4.0,
            crash: FaultRate {
                mean_up: Duration::from_days(8),
                mean_down: Duration::from_secs(12 * 3600),
            },
            capacity: FaultRate {
                mean_up: Duration::from_days(4),
                mean_down: Duration::from_secs(8 * 3600),
            },
            capacity_factor: 0.25,
            // The client-side classes are off in the mild preset so the
            // committed degraded-mode experiment results are unchanged;
            // `chaotic` turns them on.
            slow_client: FaultRate::OFF,
            slow_client_factor: 1.0,
            partial_write: FaultRate::OFF,
            stall: FaultRate::OFF,
        }
    }

    /// The serve-chaos preset: everything in [`FaultConfig::light`]
    /// plus the client-side classes (slow clients, partial writes,
    /// stalls), with rates scaled off the horizon so a plan of any span
    /// — multi-week simulations or a seconds-long chaos run against
    /// real sockets — sees each class fire several times.
    pub fn chaotic(horizon: Duration) -> FaultConfig {
        let frac = |div: u64| Duration::from_millis((horizon.as_millis() / div).max(1));
        FaultConfig {
            slow_client: FaultRate {
                mean_up: frac(6),
                mean_down: frac(12),
            },
            slow_client_factor: 3.0,
            partial_write: FaultRate {
                mean_up: frac(8),
                mean_down: frac(16),
            },
            stall: FaultRate {
                mean_up: frac(8),
                mean_down: frac(24),
            },
            ..FaultConfig::light(horizon)
        }
    }

    fn validate(&self) -> Result<()> {
        if self.horizon.as_millis() == 0 {
            return Err(CoreError::invalid_config(
                "fault.horizon",
                "must be positive",
            ));
        }
        self.link.validate("fault.link")?;
        self.slow.validate("fault.slow")?;
        self.crash.validate("fault.crash")?;
        self.capacity.validate("fault.capacity")?;
        self.slow_client.validate("fault.slow_client")?;
        self.partial_write.validate("fault.partial_write")?;
        self.stall.validate("fault.stall")?;
        if self.slow_client.enabled() && self.slow_client_factor < 1.0 {
            return Err(CoreError::invalid_config(
                "fault.slow_client_factor",
                format!("must be ≥ 1, got {}", self.slow_client_factor),
            ));
        }
        if self.slow.enabled() && self.slow_factor < 1.0 {
            return Err(CoreError::invalid_config(
                "fault.slow_factor",
                format!("must be ≥ 1, got {}", self.slow_factor),
            ));
        }
        if self.capacity.enabled() && !(self.capacity_factor > 0.0 && self.capacity_factor <= 1.0) {
            return Err(CoreError::invalid_config(
                "fault.capacity_factor",
                format!("must be in (0, 1], got {}", self.capacity_factor),
            ));
        }
        Ok(())
    }
}

/// A deterministic client retry policy for degraded-mode replays: after
/// a failed attempt `k` (0-based), wait `min(base · 2^k, cap)` and try
/// again, up to `max_attempts` retries. No jitter — replays must be
/// bit-for-bit reproducible; the live client adds seeded jitter instead.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RetrySchedule {
    /// Maximum number of retries after the initial attempt.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
}

impl Default for RetrySchedule {
    fn default() -> Self {
        RetrySchedule {
            max_attempts: 4,
            base: Duration::from_secs(2),
            cap: Duration::from_secs(60),
        }
    }
}

impl RetrySchedule {
    /// Backoff before retry `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let ms = self
            .base
            .as_millis()
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        Duration::from_millis(ms.min(self.cap.as_millis()))
    }

    /// Validates the schedule.
    pub fn validate(&self) -> Result<()> {
        if self.base.as_millis() == 0 || self.cap < self.base {
            return Err(CoreError::invalid_config(
                "retry.schedule",
                "base must be positive and cap ≥ base",
            ));
        }
        Ok(())
    }
}

/// A materialized, deterministic schedule of fault windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// End of the covered span.
    pub horizon: SimTime,
    /// Latency multiplier during a slow window.
    pub slow_factor: f64,
    /// Serving-capacity fraction during a capacity window.
    pub capacity_factor: f64,
    /// Down-windows of the edge `node → parent(node)`.
    pub link_down: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Slow-windows of the edge `node → parent(node)`.
    pub link_slow: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Crash windows of interior (proxy-candidate) nodes.
    pub crashes: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Capacity-fault windows of interior nodes.
    pub capacity: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Fetch-latency multiplier during a slow-client window.
    pub slow_client_factor: f64,
    /// Slow-client windows of leaf nodes.
    pub slow_clients: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Partial-write windows of leaf nodes.
    pub partial_writes: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Stall windows of leaf nodes.
    pub stalls: BTreeMap<NodeId, Vec<FaultWindow>>,
}

/// Draws an exponential duration with the given mean (≥ 1 ms so renewal
/// processes always advance).
fn exp_duration(rng: &mut specweb_core::rng::Rng, mean: Duration) -> Duration {
    let u: f64 = rng.gen();
    let ms = -(1.0 - u).ln() * mean.as_millis() as f64;
    Duration::from_millis((ms as u64).max(1))
}

/// One renewal process: alternate exponential up- and down-times until
/// the horizon.
fn renewal_windows(seed: &SeedTree, rate: &FaultRate, horizon: Duration) -> Vec<FaultWindow> {
    if !rate.enabled() {
        return Vec::new();
    }
    let mut rng = seed.rng();
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO.saturating_add(horizon);
    loop {
        t = t.saturating_add(exp_duration(&mut rng, rate.mean_up));
        if t >= end {
            break;
        }
        let down_until = t.saturating_add(exp_duration(&mut rng, rate.mean_down));
        out.push(FaultWindow {
            start: t,
            end: down_until.min(end),
        });
        t = down_until;
        if t >= end {
            break;
        }
    }
    out
}

fn active(windows: Option<&Vec<FaultWindow>>, t: SimTime) -> bool {
    // Windows are few and sorted; a linear scan with early exit is
    // cheaper than binary search at these sizes.
    windows.is_some_and(|ws| {
        ws.iter()
            .take_while(|w| w.start <= t)
            .any(|w| w.contains(t))
    })
}

impl FaultPlan {
    /// A plan with no faults at all (the healthy baseline).
    pub fn none() -> FaultPlan {
        FaultPlan {
            horizon: SimTime::ZERO,
            slow_factor: 1.0,
            capacity_factor: 1.0,
            link_down: BTreeMap::new(),
            link_slow: BTreeMap::new(),
            crashes: BTreeMap::new(),
            capacity: BTreeMap::new(),
            slow_client_factor: 1.0,
            slow_clients: BTreeMap::new(),
            partial_writes: BTreeMap::new(),
            stalls: BTreeMap::new(),
        }
    }

    /// Generates the fault schedule for `topo` from a seed.
    ///
    /// Link classes run on every non-root node (the edge to its
    /// parent); crash and capacity classes on interior nodes only —
    /// client leaves have no service to lose and the root is the home
    /// server itself, whose load is what the experiment measures. The
    /// client-side classes (slow client, partial write, stall) run on
    /// leaf nodes, where the clients live.
    pub fn generate(seed: &SeedTree, topo: &Topology, cfg: &FaultConfig) -> Result<FaultPlan> {
        cfg.validate()?;
        let mut plan = FaultPlan {
            horizon: SimTime::ZERO.saturating_add(cfg.horizon),
            slow_factor: if cfg.slow.enabled() {
                cfg.slow_factor
            } else {
                1.0
            },
            capacity_factor: if cfg.capacity.enabled() {
                cfg.capacity_factor
            } else {
                1.0
            },
            link_down: BTreeMap::new(),
            link_slow: BTreeMap::new(),
            crashes: BTreeMap::new(),
            capacity: BTreeMap::new(),
            slow_client_factor: if cfg.slow_client.enabled() {
                cfg.slow_client_factor
            } else {
                1.0
            },
            slow_clients: BTreeMap::new(),
            partial_writes: BTreeMap::new(),
            stalls: BTreeMap::new(),
        };
        for raw in 0..topo.len() as u32 {
            let node = NodeId::new(raw);
            if topo.parent(node) != node {
                let w = renewal_windows(
                    &seed.child_idx("link-down", raw.into()),
                    &cfg.link,
                    cfg.horizon,
                );
                if !w.is_empty() {
                    plan.link_down.insert(node, w);
                }
                let w = renewal_windows(
                    &seed.child_idx("link-slow", raw.into()),
                    &cfg.slow,
                    cfg.horizon,
                );
                if !w.is_empty() {
                    plan.link_slow.insert(node, w);
                }
            }
        }
        for node in topo.interior_nodes() {
            let raw: u64 = node.raw().into();
            let w = renewal_windows(&seed.child_idx("crash", raw), &cfg.crash, cfg.horizon);
            if !w.is_empty() {
                plan.crashes.insert(node, w);
            }
            let w = renewal_windows(&seed.child_idx("capacity", raw), &cfg.capacity, cfg.horizon);
            if !w.is_empty() {
                plan.capacity.insert(node, w);
            }
        }
        for &node in topo.leaves() {
            let raw: u64 = node.raw().into();
            let w = renewal_windows(
                &seed.child_idx("slow-client", raw),
                &cfg.slow_client,
                cfg.horizon,
            );
            if !w.is_empty() {
                plan.slow_clients.insert(node, w);
            }
            let w = renewal_windows(
                &seed.child_idx("partial-write", raw),
                &cfg.partial_write,
                cfg.horizon,
            );
            if !w.is_empty() {
                plan.partial_writes.insert(node, w);
            }
            let w = renewal_windows(&seed.child_idx("stall", raw), &cfg.stall, cfg.horizon);
            if !w.is_empty() {
                plan.stalls.insert(node, w);
            }
        }
        Ok(plan)
    }

    /// Is the edge from `node` to its parent usable at `t`?
    pub fn link_up(&self, node: NodeId, t: SimTime) -> bool {
        !active(self.link_down.get(&node), t)
    }

    /// Is the proxy at `node` alive at `t`?
    pub fn proxy_up(&self, node: NodeId, t: SimTime) -> bool {
        !active(self.crashes.get(&node), t)
    }

    /// Fraction of serving capacity `node` has at `t` (1 when healthy).
    pub fn capacity_factor(&self, node: NodeId, t: SimTime) -> f64 {
        if active(self.capacity.get(&node), t) {
            self.capacity_factor
        } else {
            1.0
        }
    }

    /// Is the edge from `node` to its parent slow at `t`? Returns the
    /// latency multiplier for that single edge (1 when healthy).
    pub fn edge_delay_factor(&self, node: NodeId, t: SimTime) -> f64 {
        if active(self.link_slow.get(&node), t) {
            self.slow_factor
        } else {
            1.0
        }
    }

    /// Fetch-latency multiplier for the client at leaf `node` at `t`
    /// (1 when the client drains at full speed).
    pub fn client_slow_factor(&self, node: NodeId, t: SimTime) -> f64 {
        if active(self.slow_clients.get(&node), t) {
            self.slow_client_factor
        } else {
            1.0
        }
    }

    /// Is the client at leaf `node` fragmenting its transfers into
    /// partial writes at `t`?
    pub fn partial_write_active(&self, node: NodeId, t: SimTime) -> bool {
        active(self.partial_writes.get(&node), t)
    }

    /// If the client at leaf `node` is stalled at `t`, the first
    /// instant it resumes; `None` when it is not stalled.
    pub fn stalled_until(&self, node: NodeId, t: SimTime) -> Option<SimTime> {
        self.stalls.get(&node).and_then(|ws| {
            ws.iter()
                .take_while(|w| w.start <= t)
                .find(|w| w.contains(t))
                .map(|w| w.end)
        })
    }

    /// Are all the edges owned by `edges` (each node names the edge to
    /// its parent) usable at `t`?
    pub fn edges_up(&self, edges: &[NodeId], t: SimTime) -> bool {
        edges.iter().all(|&n| self.link_up(n, t))
    }

    /// Combined latency multiplier over a set of edges — the product of
    /// per-edge slowdowns.
    pub fn edges_delay_factor(&self, edges: &[NodeId], t: SimTime) -> f64 {
        edges
            .iter()
            .map(|&n| self.edge_delay_factor(n, t))
            .product()
    }

    /// The earliest time ≥ `t` at which no edge in `edges` is down, or
    /// `None` if that never happens before the horizon. Used by retry
    /// models to decide whether a deferred request can ever succeed.
    pub fn edges_recovery(&self, edges: &[NodeId], t: SimTime) -> Option<SimTime> {
        let mut at = t;
        // Each iteration either returns or advances `at` past the end of
        // some active window, so this terminates (windows are finite).
        loop {
            let mut blocked_until: Option<SimTime> = None;
            for &n in edges {
                if let Some(ws) = self.link_down.get(&n) {
                    for w in ws.iter().take_while(|w| w.start <= at) {
                        if w.contains(at) {
                            blocked_until = Some(blocked_until.map_or(w.end, |b| b.max(w.end)));
                        }
                    }
                }
            }
            match blocked_until {
                None => return Some(at),
                Some(b) if b >= self.horizon => return None,
                Some(b) => at = b,
            }
        }
    }

    /// Collects the edge-owning nodes on the path from `from` up to
    /// ancestor `to` (each returned node names the edge to its parent).
    fn edges_between(topo: &Topology, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut n = from;
        while n != to {
            out.push(n);
            let p = topo.parent(n);
            if p == n {
                // `to` was not an ancestor; the full root path is the
                // requirement.
                break;
            }
            n = p;
        }
        out
    }

    /// Is every edge on the path from `from` up to ancestor `to` usable
    /// at `t`? (`from == to` is trivially reachable.)
    pub fn path_up(&self, topo: &Topology, from: NodeId, to: NodeId, t: SimTime) -> bool {
        self.edges_up(&Self::edges_between(topo, from, to), t)
    }

    /// Combined latency multiplier along the path from `from` up to
    /// ancestor `to` at `t` — the product of per-edge slowdowns.
    pub fn path_delay_factor(&self, topo: &Topology, from: NodeId, to: NodeId, t: SimTime) -> f64 {
        self.edges_delay_factor(&Self::edges_between(topo, from, to), t)
    }

    /// The earliest time ≥ `t` at which the path from `from` up to
    /// ancestor `to` has no down edge, or `None` if that never happens
    /// before the horizon.
    pub fn path_recovery(
        &self,
        topo: &Topology,
        from: NodeId,
        to: NodeId,
        t: SimTime,
    ) -> Option<SimTime> {
        self.edges_recovery(&Self::edges_between(topo, from, to), t)
    }

    /// Every fault class, by metric label.
    fn classes(&self) -> [(&'static str, &BTreeMap<NodeId, Vec<FaultWindow>>); 7] {
        [
            ("link_down", &self.link_down),
            ("link_slow", &self.link_slow),
            ("crash", &self.crashes),
            ("capacity", &self.capacity),
            ("slow_client", &self.slow_clients),
            ("partial_write", &self.partial_writes),
            ("stall", &self.stalls),
        ]
    }

    /// Total number of fault windows in the plan (all classes).
    pub fn n_windows(&self) -> usize {
        let per_node = self.classes().into_iter().flat_map(|(_, map)| map.values());
        per_node.map(Vec::len).sum()
    }

    /// Publishes the injected-fault tallies to the run's installed
    /// observability bundle (no-op outside a run): per-class
    /// `netsim.fault_*_windows` counters (classes with no window
    /// publish nothing) and the `netsim.faults_injected` total.
    ///
    /// The plan is materialized up front from the seed tree, so
    /// everything recorded here sits on the deterministic channel.
    pub fn record_to(&self) {
        let Some(obs) = specweb_core::obs::current() else {
            return;
        };
        for (class, map) in self.classes() {
            let windows: u64 = map.values().map(|ws| ws.len() as u64).sum();
            if windows == 0 {
                continue;
            }
            obs.metrics
                .counter(&format!("netsim.fault_{class}_windows"))
                .add(windows);
        }
        obs.metrics
            .counter("netsim.faults_injected")
            .add(self.n_windows() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::balanced(2, 3, 4)
    }

    fn cfg() -> FaultConfig {
        FaultConfig::light(Duration::from_days(30))
    }

    #[test]
    fn generation_is_deterministic_bit_for_bit() {
        let t = topo();
        let a = FaultPlan::generate(&SeedTree::new(11), &t, &cfg()).unwrap();
        let b = FaultPlan::generate(&SeedTree::new(11), &t, &cfg()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let c = FaultPlan::generate(&SeedTree::new(12), &t, &cfg()).unwrap();
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn windows_are_sorted_disjoint_and_within_horizon() {
        let t = topo();
        let plan = FaultPlan::generate(&SeedTree::new(5), &t, &cfg()).unwrap();
        assert!(plan.n_windows() > 0, "light config over 30 days is quiet");
        for ws in plan
            .link_down
            .values()
            .chain(plan.link_slow.values())
            .chain(plan.crashes.values())
            .chain(plan.capacity.values())
        {
            for w in ws {
                assert!(w.start < w.end);
                assert!(w.end <= plan.horizon);
            }
            for pair in ws.windows(2) {
                assert!(pair[0].end <= pair[1].start, "overlapping windows");
            }
        }
    }

    #[test]
    fn record_to_publishes_the_injected_fault_log() {
        use specweb_core::obs::{MetricValue, Obs};
        let plan = FaultPlan::generate(&SeedTree::new(5), &topo(), &cfg()).unwrap();
        let obs = Obs::new();
        let _run = obs.install();
        plan.record_to();
        let snap = obs.snapshot();
        assert_eq!(
            snap.deterministic["netsim.faults_injected"],
            MetricValue::Counter {
                value: plan.n_windows() as u64
            }
        );
        assert!(snap.wallclock.is_empty(), "fault log is deterministic");
        // The per-class counters partition the total.
        let per_class: u64 = snap
            .deterministic
            .iter()
            .filter(|(name, _)| name.starts_with("netsim.fault_") && name.ends_with("_windows"))
            .map(|(_, v)| match v {
                MetricValue::Counter { value } => *value,
                other => panic!("fault tallies are counters, got {other:?}"),
            })
            .sum();
        assert_eq!(per_class, plan.n_windows() as u64);
        // Recording the same plan twice must double the counters —
        // deterministic replays merge additively.
        plan.record_to();
        assert_eq!(
            obs.snapshot().deterministic["netsim.faults_injected"],
            MetricValue::Counter {
                value: 2 * plan.n_windows() as u64
            }
        );
    }

    #[test]
    fn queries_reflect_windows() {
        let t = topo();
        let mut plan = FaultPlan::none();
        plan.horizon = SimTime::from_days(10);
        let node = t.interior_nodes()[0];
        let w = FaultWindow {
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(200),
        };
        plan.crashes.insert(node, vec![w]);
        assert!(plan.proxy_up(node, SimTime::from_secs(99)));
        assert!(!plan.proxy_up(node, SimTime::from_secs(100)));
        assert!(!plan.proxy_up(node, SimTime::from_secs(199)));
        assert!(plan.proxy_up(node, SimTime::from_secs(200)));

        plan.link_down.insert(node, vec![w]);
        let leaf = *t
            .leaves()
            .iter()
            .find(|&&l| t.is_ancestor(node, l))
            .unwrap();
        let root = NodeId::new(0);
        assert!(!plan.path_up(&t, leaf, root, SimTime::from_secs(150)));
        assert!(plan.path_up(&t, leaf, root, SimTime::from_secs(250)));
        // Below the faulty edge the path is clean.
        assert!(plan.path_up(&t, leaf, node, SimTime::from_secs(150)));
        assert_eq!(
            plan.path_recovery(&t, leaf, root, SimTime::from_secs(150)),
            Some(SimTime::from_secs(200))
        );
    }

    #[test]
    fn delay_factors_multiply_along_the_path() {
        let t = topo();
        let mut plan = FaultPlan::none();
        plan.horizon = SimTime::from_days(10);
        plan.slow_factor = 3.0;
        let leaf = t.leaves()[0];
        let mid = t.parent(leaf);
        let w = FaultWindow {
            start: SimTime::ZERO,
            end: SimTime::from_days(10),
        };
        plan.link_slow.insert(leaf, vec![w]);
        plan.link_slow.insert(mid, vec![w]);
        let root = NodeId::new(0);
        let f = plan.path_delay_factor(&t, leaf, root, SimTime::from_secs(5));
        assert!((f - 9.0).abs() < 1e-12, "expected 3×3, got {f}");
    }

    #[test]
    fn disabled_classes_generate_nothing() {
        let t = topo();
        let mut c = cfg();
        c.link = FaultRate::OFF;
        c.slow = FaultRate::OFF;
        c.crash = FaultRate::OFF;
        c.capacity = FaultRate::OFF;
        let plan = FaultPlan::generate(&SeedTree::new(9), &t, &c).unwrap();
        assert_eq!(plan.n_windows(), 0);
        assert!(plan.link_up(NodeId::new(3), SimTime::from_secs(1)));
        assert_eq!(plan.capacity_factor(NodeId::new(1), SimTime::ZERO), 1.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let t = topo();
        let mut c = cfg();
        c.capacity_factor = 0.0;
        assert!(FaultPlan::generate(&SeedTree::new(1), &t, &c).is_err());
        let mut c = cfg();
        c.slow_factor = 0.5;
        assert!(FaultPlan::generate(&SeedTree::new(1), &t, &c).is_err());
        let mut c = cfg();
        c.horizon = Duration::ZERO;
        assert!(FaultPlan::generate(&SeedTree::new(1), &t, &c).is_err());
        let mut c = cfg();
        c.link.mean_up = Duration::ZERO;
        assert!(FaultPlan::generate(&SeedTree::new(1), &t, &c).is_err());
    }

    #[test]
    fn chaotic_preset_generates_client_side_windows_on_leaves_only() {
        let t = topo();
        let cfg = FaultConfig::chaotic(Duration::from_days(30));
        let plan = FaultPlan::generate(&SeedTree::new(31), &t, &cfg).unwrap();
        let leaves: std::collections::BTreeSet<NodeId> = t.leaves().iter().copied().collect();
        for map in [&plan.slow_clients, &plan.partial_writes, &plan.stalls] {
            assert!(!map.is_empty(), "chaotic config over 30 days is quiet");
            assert!(map.keys().all(|n| leaves.contains(n)));
        }
        // Determinism: same seed, same plan, bit for bit.
        let again = FaultPlan::generate(&SeedTree::new(31), &t, &cfg).unwrap();
        assert_eq!(plan, again);
        // The light preset keeps the new classes silent.
        let light = FaultPlan::generate(
            &SeedTree::new(31),
            &t,
            &FaultConfig::light(Duration::from_days(30)),
        )
        .unwrap();
        assert!(light.slow_clients.is_empty());
        assert!(light.partial_writes.is_empty());
        assert!(light.stalls.is_empty());
        assert_eq!(light.slow_client_factor, 1.0);
    }

    #[test]
    fn client_side_queries_reflect_windows() {
        let t = topo();
        let mut plan = FaultPlan::none();
        plan.horizon = SimTime::from_days(10);
        plan.slow_client_factor = 3.0;
        let leaf = t.leaves()[0];
        let w = FaultWindow {
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(200),
        };
        plan.slow_clients.insert(leaf, vec![w]);
        plan.partial_writes.insert(leaf, vec![w]);
        plan.stalls.insert(leaf, vec![w]);
        assert_eq!(plan.client_slow_factor(leaf, SimTime::from_secs(99)), 1.0);
        assert_eq!(plan.client_slow_factor(leaf, SimTime::from_secs(150)), 3.0);
        assert!(!plan.partial_write_active(leaf, SimTime::from_secs(99)));
        assert!(plan.partial_write_active(leaf, SimTime::from_secs(150)));
        assert_eq!(plan.stalled_until(leaf, SimTime::from_secs(99)), None);
        assert_eq!(
            plan.stalled_until(leaf, SimTime::from_secs(150)),
            Some(SimTime::from_secs(200))
        );
        assert_eq!(plan.stalled_until(leaf, SimTime::from_secs(200)), None);
        // Other leaves are untouched.
        let other = t.leaves()[1];
        assert_eq!(plan.client_slow_factor(other, SimTime::from_secs(150)), 1.0);
        assert_eq!(plan.n_windows(), 3);
    }

    #[test]
    fn invalid_client_side_configs_are_rejected() {
        let t = topo();
        let mut c = FaultConfig::chaotic(Duration::from_days(10));
        c.slow_client_factor = 0.5;
        assert!(FaultPlan::generate(&SeedTree::new(1), &t, &c).is_err());
        let mut c = FaultConfig::chaotic(Duration::from_days(10));
        c.stall.mean_down = Duration::ZERO;
        assert!(FaultPlan::generate(&SeedTree::new(1), &t, &c).is_err());
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let t = topo();
        let plan = FaultPlan::generate(&SeedTree::new(21), &t, &cfg()).unwrap();
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(plan, back);
    }
}
