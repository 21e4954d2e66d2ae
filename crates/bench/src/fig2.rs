//! Figure 2 — optimal storage allocation for equally popular servers.
//!
//! Analytic reproduction of the paper's Fig. 2: a cluster of `n = 10`
//! equally popular servers, nine of which share a rate `λ_i`; the tenth
//! server's rate `λ_j` sweeps across four decades. Two regimes are
//! plotted: *tight* storage (`B₀ = 1/λ_i`) and *lax* storage
//! (`B₀ = 10/λ_i`). The paper's qualitative claims, which the numbers
//! must reproduce:
//!
//! * with lax storage, servers with more uniform popularity (smaller
//!   `λ_j`) get more proxy space;
//! * with tight storage, intermediate `λ_j` is favored — a very uniform
//!   server is not worth covering at all when space is scarce.

use serde::Serialize;
use specweb_core::units::Bytes;
use specweb_core::Result;
use specweb_dissem::alloc::allocate_equal_demand;

use crate::{Inputs, Report};

/// One sweep point.
#[derive(Debug, Serialize)]
pub struct Fig2Point {
    /// λ_j / λ_i ratio.
    pub lambda_ratio: f64,
    /// Optimal B_j (as a fraction of B₀) in the tight regime.
    pub tight_share: f64,
    /// Optimal B_j (as a fraction of B₀) in the lax regime.
    pub lax_share: f64,
}

/// Machine-readable result.
#[derive(Debug, Serialize)]
pub struct Fig2 {
    /// The fixed rate of the other nine servers.
    pub lambda_i: f64,
    /// The sweep.
    pub points: Vec<Fig2Point>,
}

/// Runs the experiment (purely analytic; the inputs are ignored).
pub fn run(_inputs: &Inputs) -> Result<Report> {
    let lambda_i = 1e-6;
    let n = 10usize;
    let tight = Bytes::new((1.0 / lambda_i) as u64);
    let lax = Bytes::new((10.0 / lambda_i) as u64);

    let mut points = Vec::new();
    let mut ratio = 0.01;
    while ratio <= 100.0 + 1e-9 {
        let lambda_j = lambda_i * ratio;
        let mut lambdas = vec![lambda_i; n];
        lambdas[0] = lambda_j;
        // The closed form is unconstrained: extreme λ_j can drive B_j
        // negative, which the KKT solution clips to zero (see alloc::
        // optimize). Fig. 2 plots the clipped value.
        let bt = allocate_equal_demand(&lambdas, tight)?[0].max(0.0);
        let bl = allocate_equal_demand(&lambdas, lax)?[0].max(0.0);
        points.push(Fig2Point {
            lambda_ratio: ratio,
            tight_share: bt / tight.as_f64(),
            lax_share: bl / lax.as_f64(),
        });
        ratio *= 10f64.powf(0.25);
    }
    let result = Fig2 { lambda_i, points };

    let mut text = String::new();
    text.push_str(&format!(
        "n = 10 equally popular servers, nine at λ_i = {lambda_i:.0e};\n\
         B_j for the tenth server as its λ_j sweeps (eq. 7).\n\n"
    ));
    text.push_str(" λ_j/λ_i    B_j/B₀ (tight, B₀=1/λ_i)   B_j/B₀ (lax, B₀=10/λ_i)\n");
    for p in &result.points {
        text.push_str(&format!(
            "{:>8.3}    {:>22.4}   {:>22.4}\n",
            p.lambda_ratio, p.tight_share, p.lax_share
        ));
    }
    text.push_str("\nB_j/B₀ vs log10(λ_j/λ_i):\n");
    let series = vec![
        crate::plot::Series::new(
            "tight (B₀ = 1/λ_i)",
            result
                .points
                .iter()
                .map(|p| (p.lambda_ratio.log10(), p.tight_share))
                .collect(),
        ),
        crate::plot::Series::new(
            "lax (B₀ = 10/λ_i)",
            result
                .points
                .iter()
                .map(|p| (p.lambda_ratio.log10(), p.lax_share))
                .collect(),
        ),
    ];
    text.push_str(&crate::plot::render(&series, 64, 12));
    text.push_str(
        "\nshape check (the paper's two regimes): with lax storage the\n\
         allocation peaks at a *smaller* λ_j than with tight storage —\n\
         uniform servers are worth covering only when space is plentiful;\n\
         when space is scarce, intermediate (more concentrated) λ_j wins.\n",
    );

    Ok(Report::new(
        "fig2",
        "storage allocation for equally popular servers (eq. 7)",
        text,
        &result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_both_regimes() {
        let r = run(&Inputs::new(crate::Scale::Quick, 1, 0)).unwrap();
        let pts: Vec<(f64, f64, f64)> = r.json["points"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| {
                (
                    p["lambda_ratio"].as_f64().unwrap(),
                    p["tight_share"].as_f64().unwrap(),
                    p["lax_share"].as_f64().unwrap(),
                )
            })
            .collect();

        // All shares are clipped to [0, 1].
        for p in &pts {
            assert!(
                (0.0..=1.0).contains(&p.1),
                "tight share out of range: {p:?}"
            );
            assert!((0.0..=1.0).contains(&p.2), "lax share out of range: {p:?}");
        }

        let argmax = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
            pts.iter()
                .enumerate()
                .max_by(|a, b| f(a.1).partial_cmp(&f(b.1)).unwrap())
                .map(|(i, p)| (i, p.0))
                .unwrap()
        };
        let (tight_idx, tight_peak) = argmax(&|p| p.1);
        let (lax_idx, lax_peak) = argmax(&|p| p.2);

        // Both peaks are interior (extremely uniform or extremely
        // concentrated servers get little in either regime)…
        assert!(tight_idx > 0 && tight_idx < pts.len() - 1);
        assert!(lax_idx > 0 && lax_idx < pts.len() - 1);
        // …and the tight regime favors more-concentrated servers than
        // the lax regime (the paper's "intermediate values for λ" rule).
        assert!(
            tight_peak > lax_peak,
            "tight peak at λ_j/λ_i = {tight_peak}, lax at {lax_peak}"
        );
        // With lax storage the near-uniform server still gets plenty;
        // with tight storage it gets (almost) nothing.
        let near_uniform = pts.iter().find(|p| p.0 > 0.45 && p.0 < 0.7).unwrap();
        assert!(
            near_uniform.2 > near_uniform.1,
            "lax regime should favor uniform servers more: {near_uniform:?}"
        );
    }
}
