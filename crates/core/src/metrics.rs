//! The paper's four evaluation metrics (§3.2).
//!
//! Every speculative-service experiment is summarized by four ratios of a
//! *speculative* run against a *non-speculative baseline* run on the same
//! trace:
//!
//! 1. **Bandwidth ratio** — bytes communicated with speculation ÷ without;
//! 2. **Server-load ratio** — requests reaching the server with ÷ without;
//! 3. **Service-time ratio** — client-perceived retrieval latency with ÷
//!    without;
//! 4. **Miss-rate ratio** — client byte miss rate with ÷ without, where
//!    the byte miss rate is bytes *not* found in the client cache ÷ total
//!    bytes accessed.
//!
//! A ratio below 1 is an improvement; bandwidth is expected to sit
//! *above* 1 (speculation buys the other three with extra traffic).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::Bytes;

/// Raw totals accumulated over one simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTotals {
    /// Total bytes moved server→client (requested + speculated).
    pub bytes_sent: Bytes,
    /// Number of requests the server had to process (speculative pushes
    /// ride on the triggering request and are *not* extra requests —
    /// that is the entire point of the protocol).
    pub server_requests: u64,
    /// Sum of client-perceived retrieval latency, in milliseconds.
    pub latency_ms: u64,
    /// Number of client accesses contributing to `latency_ms`.
    pub accesses: u64,
    /// Bytes the client needed but did not find in its cache.
    pub miss_bytes: Bytes,
    /// Total bytes of all client accesses (hit or miss).
    pub accessed_bytes: Bytes,
}

impl RunTotals {
    /// An all-zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another run's totals (e.g. per-client partials).
    /// Saturating throughout: at `--scale 100` the byte totals are a
    /// few orders below u64::MAX, but a shard-merge must never wrap.
    pub fn merge(&mut self, other: &RunTotals) {
        self.bytes_sent += other.bytes_sent;
        self.server_requests = self.server_requests.saturating_add(other.server_requests);
        self.latency_ms = self.latency_ms.saturating_add(other.latency_ms);
        self.accesses = self.accesses.saturating_add(other.accesses);
        self.miss_bytes += other.miss_bytes;
        self.accessed_bytes += other.accessed_bytes;
    }

    /// Mean client-perceived latency, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.latency_ms as f64 / self.accesses as f64
        }
    }

    /// Global byte miss rate (misses ÷ accessed bytes).
    pub fn byte_miss_rate(&self) -> f64 {
        self.miss_bytes.ratio(self.accessed_bytes)
    }
}

/// The paper's four ratios between a speculative run and its baseline.
///
/// ```
/// use specweb_core::metrics::{Ratios, RunTotals};
/// use specweb_core::Bytes;
/// let base = RunTotals {
///     bytes_sent: Bytes::new(1_000), server_requests: 100,
///     latency_ms: 10_000, accesses: 100,
///     miss_bytes: Bytes::new(500), accessed_bytes: Bytes::new(2_000),
/// };
/// let spec = RunTotals {
///     bytes_sent: Bytes::new(1_100), server_requests: 70,
///     latency_ms: 7_700, accesses: 100,
///     miss_bytes: Bytes::new(400), accessed_bytes: Bytes::new(2_000),
/// };
/// let r = Ratios::between(&spec, &base);
/// assert!((r.traffic_increase_pct() - 10.0).abs() < 1e-9);
/// assert!((r.server_load_reduction_pct() - 30.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ratios {
    /// Bytes communicated, speculative ÷ baseline (≥ 1 expected).
    pub bandwidth: f64,
    /// Server requests, speculative ÷ baseline (≤ 1 expected).
    pub server_load: f64,
    /// Retrieval latency, speculative ÷ baseline (≤ 1 expected).
    pub service_time: f64,
    /// Byte miss rate, speculative ÷ baseline (≤ 1 expected).
    pub miss_rate: f64,
}

impl Ratios {
    /// The identity ratios (speculation disabled ⇒ all exactly 1).
    pub const UNITY: Ratios = Ratios {
        bandwidth: 1.0,
        server_load: 1.0,
        service_time: 1.0,
        miss_rate: 1.0,
    };

    /// Computes the four ratios of `speculative` against `baseline`.
    /// Zero-over-zero cases are defined as 1 (no change).
    pub fn between(speculative: &RunTotals, baseline: &RunTotals) -> Ratios {
        fn safe(n: f64, d: f64) -> f64 {
            if d == 0.0 {
                if n == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                n / d
            }
        }
        Ratios {
            bandwidth: safe(
                speculative.bytes_sent.as_f64(),
                baseline.bytes_sent.as_f64(),
            ),
            server_load: safe(
                speculative.server_requests as f64,
                baseline.server_requests as f64,
            ),
            service_time: safe(speculative.latency_ms as f64, baseline.latency_ms as f64),
            miss_rate: safe(speculative.byte_miss_rate(), baseline.byte_miss_rate()),
        }
    }

    /// Percentage of *extra* traffic: `(bandwidth − 1) × 100`.
    pub fn traffic_increase_pct(&self) -> f64 {
        (self.bandwidth - 1.0) * 100.0
    }

    /// Percentage *reduction* in server load: `(1 − server_load) × 100`.
    pub fn server_load_reduction_pct(&self) -> f64 {
        (1.0 - self.server_load) * 100.0
    }

    /// Percentage reduction in service time.
    pub fn service_time_reduction_pct(&self) -> f64 {
        (1.0 - self.service_time) * 100.0
    }

    /// Percentage reduction in client byte miss rate.
    pub fn miss_rate_reduction_pct(&self) -> f64 {
        (1.0 - self.miss_rate) * 100.0
    }
}

impl fmt::Display for Ratios {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "traffic {:+.1}% | load −{:.1}% | time −{:.1}% | miss −{:.1}%",
            self.traffic_increase_pct(),
            self.server_load_reduction_pct(),
            self.service_time_reduction_pct(),
            self.miss_rate_reduction_pct()
        )
    }
}

/// The combined cost of a run under the paper's §3.2 cost model:
/// `CommCost` per byte communicated plus `ServCost` per request served.
/// Used to weigh a server-load reduction against a traffic increase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Cost of communicating one byte (paper baseline: 1 unit).
    pub comm_cost: f64,
    /// Cost of servicing one request (paper baseline: 10,000 units).
    pub serv_cost: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // The paper's baseline parameters (§3.2 table).
        CostWeights {
            comm_cost: 1.0,
            serv_cost: 10_000.0,
        }
    }
}

impl CostWeights {
    /// Total weighted cost of a run.
    pub fn total_cost(&self, run: &RunTotals) -> f64 {
        self.comm_cost * run.bytes_sent.as_f64() + self.serv_cost * run.server_requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(bytes: u64, reqs: u64, lat: u64, acc: u64, miss: u64, accessed: u64) -> RunTotals {
        RunTotals {
            bytes_sent: Bytes::new(bytes),
            server_requests: reqs,
            latency_ms: lat,
            accesses: acc,
            miss_bytes: Bytes::new(miss),
            accessed_bytes: Bytes::new(accessed),
        }
    }

    #[test]
    fn ratios_basic() {
        let spec = run(110, 70, 770, 100, 80, 1000);
        let base = run(100, 100, 1000, 100, 100, 1000);
        let r = Ratios::between(&spec, &base);
        assert!((r.bandwidth - 1.1).abs() < 1e-12);
        assert!((r.server_load - 0.7).abs() < 1e-12);
        assert!((r.service_time - 0.77).abs() < 1e-12);
        assert!((r.miss_rate - 0.8).abs() < 1e-12);
        assert!((r.traffic_increase_pct() - 10.0).abs() < 1e-9);
        assert!((r.server_load_reduction_pct() - 30.0).abs() < 1e-9);
        assert!((r.service_time_reduction_pct() - 23.0).abs() < 1e-9);
        assert!((r.miss_rate_reduction_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn identical_runs_are_unity() {
        let a = run(100, 10, 500, 50, 30, 300);
        let r = Ratios::between(&a, &a);
        assert!((r.bandwidth - 1.0).abs() < 1e-12);
        assert!((r.server_load - 1.0).abs() < 1e-12);
        assert!((r.service_time - 1.0).abs() < 1e-12);
        assert!((r.miss_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_runs_are_unity_not_nan() {
        let r = Ratios::between(&RunTotals::new(), &RunTotals::new());
        assert_eq!(r, Ratios::UNITY);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = run(10, 1, 5, 1, 2, 20);
        a.merge(&run(30, 2, 15, 3, 4, 40));
        assert_eq!(a, run(40, 3, 20, 4, 6, 60));
    }

    /// Regression for the W1 fix in `merge`: shard-merging totals that
    /// sit near the integer edge saturates instead of wrapping, so a
    /// corrupt or adversarial shard cannot flip a huge total into a
    /// tiny one.
    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = run(u64::MAX - 1, u64::MAX - 1, u64::MAX - 1, 1, 0, 0);
        a.merge(&run(10, 10, 10, 1, 0, 0));
        assert_eq!(a.bytes_sent.get(), u64::MAX);
        assert_eq!(a.server_requests, u64::MAX);
        assert_eq!(a.latency_ms, u64::MAX);
        assert_eq!(a.accesses, 2);
    }

    #[test]
    fn derived_rates() {
        let a = run(0, 0, 300, 3, 50, 200);
        assert!((a.mean_latency_ms() - 100.0).abs() < 1e-12);
        assert!((a.byte_miss_rate() - 0.25).abs() < 1e-12);
        assert_eq!(RunTotals::new().mean_latency_ms(), 0.0);
        assert_eq!(RunTotals::new().byte_miss_rate(), 0.0);
    }

    #[test]
    fn cost_weights_paper_defaults() {
        let w = CostWeights::default();
        assert_eq!(w.comm_cost, 1.0);
        assert_eq!(w.serv_cost, 10_000.0);
        let r = run(1_000, 5, 0, 0, 0, 0);
        assert!((w.total_cost(&r) - 51_000.0).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        let spec = run(105, 65, 750, 100, 82, 1000);
        let base = run(100, 100, 1000, 100, 100, 1000);
        let s = Ratios::between(&spec, &base).to_string();
        assert!(s.contains("traffic +5.0%"), "{s}");
        assert!(s.contains("load −35.0%"), "{s}");
    }
}
