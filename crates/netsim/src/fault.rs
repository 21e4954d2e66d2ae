//! Deterministic client-side fault windows for the live chaos harness.
//!
//! The paper evaluates both protocols on a healthy network and has no
//! fault model; the simulators replay healthy. What a server must still
//! survive is misbehaving *peers*, and the `specweb-serve` chaos harness
//! drives them against real sockets. This module generates its **fault
//! plan** — a fixed schedule of fault windows derived from a
//! [`SeedTree`] — so a given seed degrades the same clients at the same
//! simulated offsets on every run.
//!
//! Three classes run on every leaf of the topology (where the clients
//! live), each an independent renewal process with exponentially
//! distributed up- and down-times:
//!
//! * **slow clients** — a leaf drains responses slowly (its transfers
//!   take three times as long), the classic event-loop stressor;
//! * **partial writes** — a leaf's transfers fragment into tiny pieces;
//! * **stalls** — a leaf goes completely quiet mid-session and resumes
//!   when the window ends.

use std::collections::BTreeMap;

use rand::Rng as _;
use specweb_core::ids::NodeId;
use specweb_core::rng::SeedTree;
use specweb_core::time::{Duration, SimTime};
use specweb_core::{CoreError, Result};

use crate::topology::Topology;

/// Transfer-time multiplier while a client is in a slow-client window.
const SLOW_CLIENT_FACTOR: f64 = 3.0;

/// A half-open interval `[start, end)` during which a fault is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultWindow {
    start: SimTime,
    end: SimTime,
}

impl FaultWindow {
    fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// A materialized, deterministic schedule of client-side fault windows.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Slow-client windows of leaf nodes.
    slow_clients: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Partial-write windows of leaf nodes.
    partial_writes: BTreeMap<NodeId, Vec<FaultWindow>>,
    /// Stall windows of leaf nodes.
    stalls: BTreeMap<NodeId, Vec<FaultWindow>>,
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
fn renewal_windows(
    seed: &SeedTree,
    mean_up: Duration,
    mean_down: Duration,
    horizon: Duration,
) -> Vec<FaultWindow> {
    let mut rng = seed.rng();
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO.saturating_add(horizon);
    loop {
        t = t.saturating_add(exp_duration(&mut rng, mean_up));
        if t >= end {
            break;
        }
        let down_until = t.saturating_add(exp_duration(&mut rng, mean_down));
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
    /// Generates the fault schedule of every leaf of `topo` over
    /// `horizon`. Each class's mean up- and down-time is a fixed share of
    /// the horizon, so a plan of any span — a seconds-long chaos run or a
    /// multi-week one — sees each class fire several times.
    pub fn generate(seed: &SeedTree, topo: &Topology, horizon: Duration) -> Result<FaultPlan> {
        if horizon.as_millis() == 0 {
            return Err(CoreError::invalid_config(
                "fault.horizon",
                "must be positive",
            ));
        }
        let share = |div: u64| Duration::from_millis((horizon.as_millis() / div).max(1));
        // One renewal process per leaf, seeded by class label and node.
        let class = |label: &str, up: u64, down: u64| {
            let mut map = BTreeMap::new();
            for &node in topo.leaves() {
                let seed = seed.child_idx(label, node.raw().into());
                let w = renewal_windows(&seed, share(up), share(down), horizon);
                if !w.is_empty() {
                    map.insert(node, w);
                }
            }
            map
        };
        Ok(FaultPlan {
            slow_clients: class("slow-client", 6, 12),
            partial_writes: class("partial-write", 8, 16),
            stalls: class("stall", 8, 24),
        })
    }

    /// Transfer-time multiplier for the client at leaf `node` at `t`:
    /// 3 inside a slow-client window, 1 otherwise.
    pub fn client_slow_factor(&self, node: NodeId, t: SimTime) -> f64 {
        if active(self.slow_clients.get(&node), t) {
            SLOW_CLIENT_FACTOR
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::balanced(2, 3, 4)
    }

    fn horizon() -> Duration {
        Duration::from_days(30)
    }

    /// The three classes, in a fixed order.
    fn classes(plan: &FaultPlan) -> [&BTreeMap<NodeId, Vec<FaultWindow>>; 3] {
        [&plan.slow_clients, &plan.partial_writes, &plan.stalls]
    }

    #[test]
    fn generation_is_deterministic_bit_for_bit() {
        let t = topo();
        let a = FaultPlan::generate(&SeedTree::new(11), &t, horizon()).unwrap();
        let b = FaultPlan::generate(&SeedTree::new(11), &t, horizon()).unwrap();
        assert_eq!(a, b);
        let c = FaultPlan::generate(&SeedTree::new(12), &t, horizon()).unwrap();
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn windows_are_sorted_disjoint_and_within_horizon() {
        let plan = FaultPlan::generate(&SeedTree::new(5), &topo(), horizon()).unwrap();
        let end = SimTime::ZERO.saturating_add(horizon());
        for ws in classes(&plan).into_iter().flat_map(BTreeMap::values) {
            for w in ws {
                assert!(w.start < w.end);
                assert!(w.end <= end);
            }
            for pair in ws.windows(2) {
                assert!(pair[0].end <= pair[1].start, "overlapping windows");
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let err = FaultPlan::generate(&SeedTree::new(1), &topo(), Duration::ZERO).unwrap_err();
        assert!(err.to_string().contains("fault.horizon"), "{err}");
    }

    #[test]
    fn chaotic_preset_generates_client_side_windows_on_leaves_only() {
        let t = topo();
        let plan = FaultPlan::generate(&SeedTree::new(31), &t, horizon()).unwrap();
        let leaves: std::collections::BTreeSet<NodeId> = t.leaves().iter().copied().collect();
        for map in classes(&plan) {
            assert!(!map.is_empty(), "a 30-day plan is quiet");
            assert!(map.keys().all(|n| leaves.contains(n)));
        }
    }

    #[test]
    fn client_side_queries_reflect_windows() {
        let t = topo();
        let leaf = t.leaves()[0];
        let w = FaultWindow {
            start: SimTime::from_secs(100),
            end: SimTime::from_secs(200),
        };
        let one = || BTreeMap::from([(leaf, vec![w])]);
        let plan = FaultPlan {
            slow_clients: one(),
            partial_writes: one(),
            stalls: one(),
        };
        assert_eq!(plan.client_slow_factor(leaf, SimTime::from_secs(99)), 1.0);
        assert_eq!(
            plan.client_slow_factor(leaf, SimTime::from_secs(150)),
            SLOW_CLIENT_FACTOR
        );
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
    }

    /// FNV-1a 64 over every window — class by class, node by node — with
    /// each class's window count.
    fn fingerprint(plan: &FaultPlan) -> ([usize; 3], u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut counts = [0; 3];
        for (k, map) in classes(plan).into_iter().enumerate() {
            for (node, ws) in map {
                eat(node.raw().into());
                for w in ws {
                    eat(w.start.as_millis());
                    eat(w.end.as_millis());
                }
                counts[k] += ws.len();
            }
        }
        (counts, h)
    }

    #[test]
    fn the_chaos_harness_plan_is_pinned() {
        // The default chaos run's plan: 64 clients, seed 7, a 2 s
        // horizon. Its windows must not move when this module changes.
        let topo = Topology::two_level(1, 64);
        let seed = SeedTree::new(7).child("chaos");
        let plan = FaultPlan::generate(&seed, &topo, Duration::from_millis(2_000)).unwrap();
        assert_eq!(fingerprint(&plan), ([256, 359, 382], 0x97f8_b05f_713e_bf6a));
    }
}
