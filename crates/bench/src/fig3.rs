//! Figure 3 — bandwidth saved as a result of dissemination.
//!
//! Trace-driven: the % reduction in network traffic (bytes × hops) as a
//! function of the number of proxies, with the most popular 10% and 4%
//! of the server's data disseminated (the same data to all proxies, as
//! in the paper). Each curve is labeled with the total proxy storage it
//! consumes, exactly like the figure.

use serde::Serialize;
use specweb_core::Result;
use specweb_dissem::simulate::{DisseminationConfig, DisseminationSim};

use crate::workloads::Workbench;
use crate::{Inputs, Report, Scale};

/// One point of one curve.
#[derive(Debug, Serialize)]
pub struct Fig3Point {
    /// Number of proxies.
    pub n_proxies: usize,
    /// Fraction of bytes×hops saved.
    pub reduction: f64,
    /// Fraction of requests intercepted.
    pub intercepted: f64,
    /// Total storage across all proxies (bytes).
    pub total_storage: u64,
    /// Median per-request service time, ms (exact order statistic).
    pub p50_ms: f64,
    /// 99th-percentile service time, ms — the tail interception trims.
    pub p99_ms: f64,
    /// Baseline (no-dissemination) 99th percentile, ms.
    pub baseline_p99_ms: f64,
}

/// Machine-readable result. `top10`/`top4` stay at the top level (the
/// figure's two curves); `replication` summarizes the extra seeds.
#[derive(Debug, Serialize)]
pub struct Fig3 {
    /// The 10%-dissemination curve.
    pub top10: Vec<Fig3Point>,
    /// The 4%-dissemination curve.
    pub top4: Vec<Fig3Point>,
    /// Cross-seed dispersion of the headline number.
    pub replication: Fig3Replication,
}

/// Dispersion of the top-10% saved fraction at the largest proxy count,
/// across the base seed plus [`crate::workloads::REPLICAS`] derived seeds.
#[derive(Debug, Serialize)]
pub struct Fig3Replication {
    /// All seeds, base first.
    pub seeds: Vec<u64>,
    /// Mean saved fraction at the maximum proxy count (top-10% curve).
    pub saved_at_max_mean: f64,
    /// Sample standard deviation of the same.
    pub saved_at_max_sd: f64,
}

/// One seed's pair of curves.
struct Curves {
    top10: Vec<Fig3Point>,
    top4: Vec<Fig3Point>,
}

/// Runs both dissemination sweeps on one seed's workload. The
/// proxy-count grid fans out over `jobs` workers; every point is an
/// independent replay of the same mined profiles, so output is
/// identical for any `jobs`.
fn compute(bench: &Workbench, jobs: usize) -> Result<Curves> {
    let sim = DisseminationSim::new(&bench.trace, &bench.topo)?;

    let proxy_counts: &[usize] = match bench.scale {
        Scale::Full => &[1, 2, 4, 6, 9, 12, 16, 20, 27, 33, 39],
        Scale::Quick => &[1, 2, 4, 9, 16, 27],
    };

    let sweep = |fraction: f64| -> Result<Vec<Fig3Point>> {
        specweb_core::par::Pool::new(jobs).try_map_indexed(proxy_counts, |_, &k| {
            let out = sim.run(
                &DisseminationConfig {
                    fraction,
                    n_proxies: k,
                    ..DisseminationConfig::default()
                },
                &[],
            )?;
            Ok(Fig3Point {
                n_proxies: k,
                reduction: out.reduction,
                intercepted: out.intercepted_fraction,
                total_storage: out.total_proxy_storage.get(),
                p50_ms: out.service_times.p50_ms,
                p99_ms: out.service_times.p99_ms,
                baseline_p99_ms: out.baseline_service_times.p99_ms,
            })
        })
    };

    Ok(Curves {
        top10: sweep(0.10)?,
        top4: sweep(0.04)?,
    })
}

/// Runs the experiment: the base seed's curves on the shared bu
/// workload, replicated across [`crate::workloads::REPLICAS`] extra
/// derived seeds (a private workload each) run in parallel.
pub fn run(inputs: &Inputs) -> Result<Report> {
    // One fan-out over seeds; each seed's inner proxy grid runs serially
    // so the parallelism does not nest. All seeds record into the one
    // run: counter merges are commutative sums, so totals are
    // schedule-independent.
    let (seeds, mut curves) = inputs.replicated("fig3-rep", |bench| compute(bench, 1))?;

    let saved_at_max: Vec<f64> = curves
        .iter()
        .filter_map(|c| c.top10.last())
        .map(|p| p.reduction)
        .collect();
    let (mean, sd) = crate::fig5::mean_sd(&saved_at_max);

    let base = curves.swap_remove(0);
    let result = Fig3 {
        top10: base.top10,
        top4: base.top4,
        replication: Fig3Replication {
            seeds: seeds.clone(),
            saved_at_max_mean: mean,
            saved_at_max_sd: sd,
        },
    };

    let mut text = String::new();
    text.push_str(&format!(
        "workload: {} accesses; same data disseminated to all proxies\n\n",
        inputs.bu()?.trace.len()
    ));
    text.push_str("            -------- top 10% of data --------      ---- top 4% of data ----\n");
    text.push_str(
        " proxies    saved   intercept  storage  p99 ms      saved   intercept  storage\n",
    );
    for (a, b) in result.top10.iter().zip(&result.top4) {
        text.push_str(&format!(
            "{:>8}   {:>6.1}%   {:>6.1}%  {:>8}  {:>6.0}   {:>7.1}%   {:>6.1}%  {:>8}\n",
            a.n_proxies,
            a.reduction * 100.0,
            a.intercepted * 100.0,
            format!("{}K", a.total_storage / 1024),
            a.p99_ms,
            b.reduction * 100.0,
            b.intercepted * 100.0,
            format!("{}K", b.total_storage / 1024),
        ));
    }
    if let Some(last) = result.top10.last() {
        text.push_str(&format!(
            "\nservice-time tail (top-10% curve, max proxies): p50 {:.0} ms, \
             p99 {:.0} ms vs baseline p99 {:.0} ms\n",
            last.p50_ms, last.p99_ms, last.baseline_p99_ms
        ));
    }
    text.push_str("\nbytes×hops saved (%) vs number of proxies:\n");
    let series = vec![
        crate::plot::Series::new(
            "10% disseminated",
            result
                .top10
                .iter()
                .map(|p| (p.n_proxies as f64, p.reduction * 100.0))
                .collect(),
        ),
        crate::plot::Series::new(
            "4% disseminated",
            result
                .top4
                .iter()
                .map(|p| (p.n_proxies as f64, p.reduction * 100.0))
                .collect(),
        ),
    ];
    text.push_str(&crate::plot::render(&series, 64, 12));
    text.push_str(
        "\nshape check: savings grow with proxies and with the disseminated\n\
         fraction, with diminishing returns (the paper reaches ≈40% at the\n\
         right edge of its tree).\n",
    );
    text.push_str(&format!(
        "\nreplication across {} independent seeds {:?}: saved at the\n\
         largest proxy count (top-10% curve) {:.1}% ± {:.1}.\n",
        seeds.len(),
        seeds,
        mean * 100.0,
        sd * 100.0
    ));

    Ok(Report::new(
        "fig3",
        "bandwidth saved (bytes × hops) vs number of proxies",
        text,
        &result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_has_the_right_shape() {
        let r = run(&Inputs::new(Scale::Quick, 1, 13)).unwrap();
        let curve = |name: &str| -> Vec<(usize, f64)> {
            r.json[name]
                .as_array()
                .unwrap()
                .iter()
                .map(|p| {
                    (
                        p["n_proxies"].as_u64().unwrap() as usize,
                        p["reduction"].as_f64().unwrap(),
                    )
                })
                .collect()
        };
        let top10 = curve("top10");
        let top4 = curve("top4");

        // Monotone in proxies (within tolerance).
        for w in top10.windows(2) {
            assert!(w[1].1 >= w[0].1 - 0.02, "top10 not monotone: {w:?}");
        }
        // More data ⇒ more savings at the right edge.
        assert!(top10.last().unwrap().1 >= top4.last().unwrap().1 - 1e-9);
        // Meaningful savings at the right edge.
        assert!(
            top10.last().unwrap().1 > 0.10,
            "max savings too small: {}",
            top10.last().unwrap().1
        );

        // The replication summary is present and sane.
        let rep = &r.json["replication"];
        assert_eq!(
            rep["seeds"].as_array().unwrap().len(),
            1 + crate::workloads::REPLICAS as usize
        );
        assert!(rep["saved_at_max_mean"].as_f64().unwrap() > 0.0);
        assert!(rep["saved_at_max_sd"].as_f64().unwrap() >= 0.0);
    }
}
