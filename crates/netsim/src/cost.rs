//! Cost, traffic and service-time models.
//!
//! Three pieces of accounting drive the paper's evaluation:
//!
//! * the §3.2 **cost model** — a symmetric network where moving one byte
//!   costs `CommCost` and serving one request costs `ServCost`
//!   (baseline 1 : 10,000);
//! * **traffic in bytes×hops** — Fig. 3 measures dissemination savings
//!   in hop-weighted bytes, so transfers must know their path length;
//! * a **service-time model** — client-perceived latency composed of a
//!   fixed per-request server overhead, a per-hop propagation cost and a
//!   bandwidth-limited transfer term. The 1995 numbers (28.8k modems,
//!   multi-second page loads) don't matter; the *structure* (latency ∝
//!   overhead + distance + size) is what the service-time ratio needs.

use serde::{Deserialize, Serialize};
use specweb_core::time::Duration;
use specweb_core::units::{ByteHops, Bytes};

/// The §3.2 cost model: per-byte communication cost vs. per-request
/// service cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of communicating one byte between any server and any client.
    pub comm_cost: f64,
    /// Cost of servicing one request.
    pub serv_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Paper baseline: CommCost = 1 unit, ServCost = 10,000 units.
        CostModel {
            comm_cost: 1.0,
            serv_cost: 10_000.0,
        }
    }
}

impl CostModel {
    /// Combined cost of a run that moved `bytes` and served `requests`.
    pub fn cost(&self, bytes: Bytes, requests: u64) -> f64 {
        self.comm_cost * bytes.as_f64() + self.serv_cost * requests as f64
    }
}

/// Client-perceived latency model.
///
/// `latency = request_overhead + hops × per_hop + size / bandwidth`,
/// with cache hits costing zero (the document is already local).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed server processing overhead per request.
    pub request_overhead: Duration,
    /// Propagation cost per network hop (round trip share).
    pub per_hop: Duration,
    /// Transfer bandwidth in bytes per second.
    pub bytes_per_sec: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // 1995-flavored defaults: 50 ms server overhead, 10 ms per hop,
        // ~128 kB/s effective transfer rate.
        LatencyModel {
            request_overhead: Duration::from_millis(50),
            per_hop: Duration::from_millis(10),
            bytes_per_sec: 128 * 1024,
        }
    }
}

impl LatencyModel {
    /// Latency of fetching `size` bytes across `hops` hops.
    pub fn fetch(&self, size: Bytes, hops: u32) -> Duration {
        let transfer_ms = if self.bytes_per_sec == 0 {
            0
        } else {
            // Round up: a 1-byte transfer still costs a millisecond slot.
            (size.get().saturating_mul(1_000)).div_ceil(self.bytes_per_sec)
        };
        self.request_overhead + self.per_hop * u64::from(hops) + Duration::from_millis(transfer_ms)
    }
}

/// Accumulates traffic in both raw bytes and hop-weighted bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficAccount {
    /// Total raw bytes moved.
    pub bytes: Bytes,
    /// Total hop-weighted bytes moved.
    pub byte_hops: ByteHops,
    /// Number of transfers recorded.
    pub transfers: u64,
}

impl TrafficAccount {
    /// An empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transfer of `size` bytes over `hops` hops.
    pub fn record(&mut self, size: Bytes, hops: u32) {
        self.record_n(size, hops, 1);
    }

    /// Records `n` transfers of `size` bytes over `hops` hops: the same
    /// account as `n` calls of [`TrafficAccount::record`] (the sums
    /// saturate, so one saturating multiply equals the repeated adds).
    pub fn record_n(&mut self, size: Bytes, hops: u32, n: u64) {
        self.bytes += size * n;
        self.byte_hops += size.over_hops(hops) * n;
        self.transfers = self.transfers.saturating_add(n);
    }

    /// Merges another account.
    pub fn merge(&mut self, other: &TrafficAccount) {
        self.bytes += other.bytes;
        self.byte_hops += other.byte_hops;
        self.transfers = self.transfers.saturating_add(other.transfers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_defaults_match_paper() {
        let m = CostModel::default();
        assert_eq!(m.comm_cost, 1.0);
        assert_eq!(m.serv_cost, 10_000.0);
        assert!((m.cost(Bytes::new(500), 2) - 20_500.0).abs() < 1e-9);
    }

    #[test]
    fn latency_components_add_up() {
        let m = LatencyModel {
            request_overhead: Duration::from_millis(50),
            per_hop: Duration::from_millis(10),
            bytes_per_sec: 1_000,
        };
        // 50 + 3×10 + 2000 B / 1000 B/s = 50 + 30 + 2000 ms.
        assert_eq!(m.fetch(Bytes::new(2_000), 3), Duration::from_millis(2_080));
    }

    #[test]
    fn latency_transfer_rounds_up() {
        let m = LatencyModel {
            request_overhead: Duration::ZERO,
            per_hop: Duration::ZERO,
            bytes_per_sec: 1_000,
        };
        assert_eq!(m.fetch(Bytes::new(1), 0), Duration::from_millis(1));
        assert_eq!(m.fetch(Bytes::new(1_001), 0), Duration::from_millis(1_001));
        assert_eq!(m.fetch(Bytes::new(1_999), 0), Duration::from_millis(1_999));
        assert_eq!(m.fetch(Bytes::new(999), 0), Duration::from_millis(999));
    }

    #[test]
    fn latency_zero_bandwidth_means_free_transfer() {
        let m = LatencyModel {
            request_overhead: Duration::from_millis(5),
            per_hop: Duration::ZERO,
            bytes_per_sec: 0,
        };
        assert_eq!(m.fetch(Bytes::from_mib(1), 0), Duration::from_millis(5));
    }

    #[test]
    fn latency_grows_with_distance_and_size() {
        let m = LatencyModel::default();
        assert!(m.fetch(Bytes::new(1_000), 5) > m.fetch(Bytes::new(1_000), 1));
        assert!(m.fetch(Bytes::from_kib(100), 3) > m.fetch(Bytes::new(100), 3));
    }

    #[test]
    fn traffic_account_records() {
        let mut t = TrafficAccount::new();
        t.record(Bytes::new(100), 3);
        t.record(Bytes::new(50), 1);
        assert_eq!(t.bytes, Bytes::new(150));
        assert_eq!(t.byte_hops, ByteHops(350));
        assert_eq!(t.transfers, 2);
    }

    #[test]
    fn traffic_merge_and_savings() {
        let mut base = TrafficAccount::new();
        base.record(Bytes::new(1_000), 4); // 4000 B·hop
        let mut better = TrafficAccount::new();
        better.record(Bytes::new(1_000), 1); // 1000 B·hop

        let mut merged = TrafficAccount::new();
        merged.merge(&base);
        merged.merge(&better);
        assert_eq!(merged.bytes, Bytes::new(2_000));
        assert_eq!(merged.transfers, 2);
    }

    #[test]
    fn zero_hop_transfer_costs_no_byte_hops() {
        let mut t = TrafficAccount::new();
        t.record(Bytes::new(100), 0);
        assert_eq!(t.bytes, Bytes::new(100));
        assert_eq!(t.byte_hops, ByteHops::ZERO);
    }
}
