//! Figure 1 — popularity of data blocks and cumulative bandwidth saved.
//!
//! The paper's measurements on `cs-www.bu.edu`: the most popular 256 KB
//! block (0.5% of bytes) drew 69% of all requests; 10% of blocks drew
//! 91%. We regenerate the two curves (per-block request share and
//! cumulative bandwidth saved by serving the top blocks at an earlier
//! stage) from the bu workload and report the same two checkpoints.

use serde::Serialize;
use specweb_core::ids::ServerId;
use specweb_core::units::Bytes;
use specweb_core::Result;
use specweb_dissem::analysis::{BlockPopularity, ServerProfile};

use crate::{Inputs, Report};

/// Machine-readable result.
#[derive(Debug, Serialize)]
pub struct Fig1 {
    /// Block size used (scaled with the catalog so the block count is
    /// comparable to the paper's).
    pub block_size: u64,
    /// Request share per block, most popular first.
    pub block_request_share: Vec<f64>,
    /// Cumulative bandwidth saved after each block.
    pub cumulative_bandwidth_saved: Vec<f64>,
    /// Request share of the most popular ~0.5% of bytes.
    pub head_share_0p5: f64,
    /// Request share of the most popular 10% of bytes.
    pub head_share_10: f64,
    /// Fitted exponential rate λ.
    pub lambda: f64,
}

/// Runs the experiment.
pub fn run(inputs: &Inputs) -> Result<Report> {
    let trace = &inputs.bu()?.trace;
    let days = trace.days();
    let profile = ServerProfile::from_trace(trace, ServerId::new(0), days)?;

    // The paper's 256 KB blocks split its ~36 MB of remotely-accessed
    // bytes into ~140 blocks; scale the block size to produce a similar
    // resolution on our catalog.
    let accessed = profile.remotely_accessed_bytes();
    let block_size = Bytes::new((accessed.get() / 140).max(4 * 1024));
    let blocks = BlockPopularity::from_profile(&profile, block_size)?;

    let head = |frac: f64| {
        let b = Bytes::new((accessed.as_f64() * frac) as u64);
        profile.hit_curve.hit_fraction(b)
    };
    let result = Fig1 {
        block_size: block_size.get(),
        block_request_share: blocks.block_request_share.clone(),
        cumulative_bandwidth_saved: blocks.cumulative_bandwidth_saved.clone(),
        head_share_0p5: head(0.005),
        head_share_10: head(0.10),
        lambda: profile.lambda,
    };

    let mut text = String::new();
    text.push_str(&format!(
        "workload: {} accesses; remotely-accessed bytes: {accessed}; block = {block_size}\n\n",
        trace.len()
    ));
    text.push_str("block  req-share  cum-bandwidth-saved\n");
    let n = result.block_request_share.len();
    for i in 0..n {
        // Print the head fully and the tail sparsely, like the figure.
        if i < 12 || i % (n / 12).max(1) == 0 || i == n - 1 {
            text.push_str(&format!(
                "{:>5}  {:>8.3}%  {:>8.1}%\n",
                i + 1,
                result.block_request_share[i] * 100.0,
                result.cumulative_bandwidth_saved[i] * 100.0
            ));
        }
    }
    text.push_str(
        "\nper-block request share (%, log-ish head) and cumulative bandwidth saved (%):\n",
    );
    let series = vec![
        crate::plot::Series::new(
            "share per block",
            result
                .block_request_share
                .iter()
                .enumerate()
                .map(|(i, &v)| ((i + 1) as f64, v * 100.0))
                .collect(),
        ),
        crate::plot::Series::new(
            "cum. bandwidth saved",
            result
                .cumulative_bandwidth_saved
                .iter()
                .enumerate()
                .map(|(i, &v)| ((i + 1) as f64, v * 100.0))
                .collect(),
        ),
    ];
    text.push_str(&crate::plot::render(&series, 64, 12));
    text.push_str(&format!(
        "\npaper: top 0.5% of bytes ⇒ 69% of requests | here: {:.0}%\n",
        result.head_share_0p5 * 100.0
    ));
    text.push_str(&format!(
        "paper: top  10% of bytes ⇒ 91% of requests | here: {:.0}%\n",
        result.head_share_10 * 100.0
    ));
    text.push_str(&format!(
        "fitted exponential λ = {:.3e} (paper: 6.247e-7 on a 36.5 MB corpus)\n",
        result.lambda
    ));

    Ok(Report::new(
        "fig1",
        "popularity of data blocks & cumulative bandwidth saved",
        text,
        &result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_quick_reproduces_concentration() {
        let r = run(&Inputs::new(crate::Scale::Quick, 1, 11)).unwrap();
        let head10 = r.json["head_share_10"].as_f64().unwrap();
        assert!(
            head10 > 0.5,
            "top 10% of bytes should cover most requests, got {head10}"
        );
        let shares = r.json["block_request_share"].as_array().unwrap();
        assert!(!shares.is_empty());
        // Most popular block dominates the last one.
        let first = shares[0].as_f64().unwrap();
        let last = shares[shares.len() - 1].as_f64().unwrap();
        assert!(first > last);
    }
}
