//! Figure 4 — histogram of document pairs over `p[i,j]` ranges.
//!
//! The paper computes `P` from one month of logs (>50,000 accesses,
//! `T_w = 5 s`) and finds a histogram with peaks at `p = 1/k` (a page's
//! `k` anchors are followed near-uniformly) and an embedding peak at
//! `p ≈ 1`. We estimate `P` from the bu workload and check for the same
//! peaks.

use serde::Serialize;
use specweb_core::time::Duration;
use specweb_core::Result;
use specweb_spec::deps::DepMatrixBuilder;

use crate::{Inputs, Report};

/// Machine-readable result.
#[derive(Debug, Serialize)]
pub struct Fig4 {
    /// Histogram bin counts over `[0, 1]` (last bin holds `p = 1`).
    pub bins: Vec<u64>,
    /// Number of bins.
    pub nbins: usize,
    /// Total (i, j) pairs.
    pub total_pairs: u64,
    /// Pairs in the embedding peak (`p ≥ 0.95`).
    pub embedding_pairs: u64,
}

/// Runs the experiment.
pub fn run(inputs: &Inputs) -> Result<Report> {
    let trace = &inputs.bu()?.trace;
    // Like the paper: one month of accesses (or everything, if less).
    let cutoff = trace.accesses.partition_point(|a| a.time.day() < 30);
    let slice = &trace.accesses[..cutoff.max(1)];
    let matrix = DepMatrixBuilder::estimate(slice, Duration::from_secs(5), 3);

    let nbins = 20usize;
    let hist = matrix.probability_histogram(nbins);
    let embedding_pairs = matrix.entries().filter(|&(_, _, p)| p >= 0.95).count() as u64;

    // Deterministic-channel accounting: everything here is a pure
    // function of (scale, seed), so manifest snapshots must match
    // byte-for-byte across worker counts.
    if let Some(obs) = specweb_core::obs::current() {
        obs.metrics
            .counter("fig4.accesses_used")
            .add(slice.len() as u64);
        obs.metrics.counter("fig4.pairs_total").add(hist.total());
        obs.metrics
            .counter("fig4.embedding_pairs")
            .add(embedding_pairs);
        let phist = obs.metrics.histogram("fig4.probability", 0.0, 1.0, nbins);
        for (_, _, p) in matrix.entries() {
            phist.observe(p);
        }
    }
    let result = Fig4 {
        bins: hist.bins().to_vec(),
        nbins,
        total_pairs: hist.total(),
        embedding_pairs,
    };

    let mut text = String::new();
    text.push_str(&format!(
        "P estimated from {} accesses, T_w = 5 s; {} document pairs\n\n",
        slice.len(),
        result.total_pairs
    ));
    text.push_str(&hist.render(44));
    text.push_str(&format!(
        "\nembedding peak (p ≥ 0.95): {} pairs\n",
        result.embedding_pairs
    ));
    text.push_str(
        "shape check: peaks near 1/k for small k (uniform anchor choice)\n\
         and a distinct embedding peak at the right edge, as in the paper.\n",
    );

    Ok(Report::new(
        "fig4",
        "document pairs per p[i,j] range (T_w = 5 s)",
        text,
        &result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_quick_shows_embedding_peak_and_spread() {
        let r = run(&Inputs::new(crate::Scale::Quick, 1, 14)).unwrap();
        let bins: Vec<u64> = r.json["bins"]
            .as_array()
            .unwrap()
            .iter()
            .map(|b| b.as_u64().unwrap())
            .collect();
        let total: u64 = bins.iter().sum();
        assert!(total > 50, "too few pairs: {total}");
        // Embedding peak: the top bin is well populated.
        assert!(
            r.json["embedding_pairs"].as_u64().unwrap() > 0,
            "no embedding dependencies found"
        );
        // Traversal spread: mass exists below 0.5 too (the 1/k region
        // for k ≥ 2).
        let low: u64 = bins[..10].iter().sum();
        assert!(low > 0, "no traversal dependencies below p = 0.5");
    }
}
