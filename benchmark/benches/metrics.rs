//! The fixed metric and workload names. Later issues cite them verbatim;
//! `BENCHMARK.json` lists the same sets (a self-test compares them).

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The workloads, in suite order.
pub const WORKLOADS: [&str; 6] = [
    "est-daily",
    "est-aged",
    "replay-wide",
    "dissem-cluster",
    "serve-paced",
    "serve-sessions",
];

/// What a user of the system sees. Every workload reports every one of
/// them and none is ever 0 (README gives the per-workload definition).
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    lower("sweep_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("access_wait_mean_us", "us"),
    lower("server_load_ratio", "ratio"),
    lower("bandwidth_ratio", "ratio"),
];

/// Single-layer numbers from the traced run. A workload that does not
/// touch a layer reports 0 for it.
pub const PER_LAYER: [MetricDef; 67] = [
    // End-to-end numbers that exist on some workloads only.
    higher("fetches_per_s", "1/s"),
    lower("fetch_p50_us", "us"),
    lower("fetch_p90_us", "us"),
    lower("service_time_ratio", "ratio"),
    lower("miss_rate_ratio", "ratio"),
    higher("traffic_reduction", "ratio"),
    // trace.generator
    lower("trace.generate_s", "s"),
    higher("trace.accesses_per_s", "1/s"),
    higher("trace.accesses", "count"),
    higher("trace.sessions", "count"),
    // spec.deps
    lower("deps.build_s", "s"),
    higher("deps.build_accesses_per_s", "1/s"),
    lower("deps.closure_s", "s"),
    higher("deps.closure_rows_per_s", "1/s"),
    lower("deps.closure_entries", "count"),
    lower("deps.truncated_rows", "count"),
    // spec.estimator
    lower("estimator.precompute_s", "s"),
    lower("estimator.boundaries", "count"),
    higher("estimator.boundaries_per_s", "1/s"),
    lower("estimator.accesses_pushed", "count"),
    lower("estimator.repush_ratio", "ratio"),
    lower("estimator.self_s", "s"),
    lower("estimator.aged_day_estimate_s", "s"),
    // spec.simulate
    lower("specsim.new_s", "s"),
    lower("specsim.baseline_s", "s"),
    lower("specsim.point_s_p50", "s"),
    higher("specsim.replay_accesses_per_s", "1/s"),
    lower("specsim.pushes", "count"),
    lower("specsim.wasted_push_ratio", "ratio"),
    lower("specsim.prefetches", "count"),
    // spec.policy
    higher("policy.decide_per_s", "1/s"),
    lower("policy.pushes_per_decision", "count"),
    // dissem.analysis, dissem.alloc, dissem.simulate, netsim.routing
    lower("analysis.mine_s", "s"),
    higher("analysis.accesses_per_s", "1/s"),
    lower("alloc.optimize_us", "us"),
    higher("alloc.predicted_alpha", "ratio"),
    lower("dissemsim.place_s", "s"),
    lower("dissemsim.point_s_p50", "s"),
    lower("dissemsim.tailored_point_s", "s"),
    higher("dissemsim.replay_accesses_per_s", "1/s"),
    higher("dissemsim.intercepted_fraction", "ratio"),
    higher("netsim.route_per_s", "1/s"),
    // core.par, core.stats
    higher("par.replay_speedup_jobs2", "ratio"),
    higher("par.precompute_speedup_jobs2", "ratio"),
    lower("stats.dist_merge_us", "us"),
    lower("stats.quantiles_us", "us"),
    // serve.protocol, serve.conn
    higher("protocol.parse_get_per_s", "1/s"),
    higher("protocol.parse_have64_per_s", "1/s"),
    higher("conn.requests_per_s", "1/s"),
    higher("conn.have_requests_per_s", "1/s"),
    lower("conn.bytes_out_per_request", "count"),
    lower("conn.pushes_per_request", "count"),
    // serve.reactor
    lower("reactor.fetch_p99_us", "us"),
    higher("reactor.burst_req_per_s", "1/s"),
    lower("reactor.connect_to_first_reply_p50_us", "us"),
    lower("reactor.stats_roundtrip_us", "us"),
    lower("reactor.refused", "count"),
    lower("reactor.shed", "count"),
    // serve.client
    lower("client.wire_fetch_p50_us", "us"),
    lower("client.raw_fetch_p50_us", "us"),
    lower("client.overhead_us", "us"),
    higher("client.cache_hit_ratio", "ratio"),
    lower("client.retries", "count"),
    lower("client.backoff_ms", "ms"),
    // harness
    lower("loadgen.lag_p99_us", "us"),
    lower("loadgen.tracing_overhead_ratio", "ratio"),
    higher("body.attributed_ratio", "ratio"),
];

/// Measured values by metric name, with the number of samples behind
/// each one where that is more than one.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, u64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name, samples as u64);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn samples(&self, name: &str) -> Option<u64> {
        self.samples.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let metric_names = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
        for name in WORKLOADS.into_iter().chain(metric_names) {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    /// `BENCHMARK.json` and these tables must name the same workloads
    /// and metrics, with the same units and directions.
    #[test]
    fn benchmark_json_lists_the_same_sets() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &serde_json::Value, key: &str| -> String {
            entry
                .get(key)
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| panic!("{key} missing in {entry:?}"))
                .to_string()
        };
        let list = |key: &str| -> Vec<serde_json::Value> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is not a list"))
                .to_vec()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, String)> = list(key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }
}
