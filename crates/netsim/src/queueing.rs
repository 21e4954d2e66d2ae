//! Server queueing analysis (M/G/1).
//!
//! The paper measures *server load* as a request count and weighs it
//! against traffic through `ServCost : CommCost = 10,000 : 1`. What that
//! ratio is really standing in for is queueing: a 1995 HTTP daemon
//! forked per request, and response time exploded as utilization
//! approached 1. This module makes the connection quantitative with the
//! standard M/G/1 model (Poisson arrivals, general service times), via
//! the Pollaczek–Khinchine formula:
//!
//! ```text
//! W = ρ·(1 + c²) / (2·(1 − ρ)) · E[S]      (mean wait in queue)
//! T = W + E[S]                              (mean response time)
//! ```
//!
//! where `ρ = λ·E[S]` is utilization and `c²` the squared coefficient of
//! variation of service times. Heavy-tailed 1995 responses make `c²` a
//! first-class input (exponential service = 1; measured web service
//! times were far burstier).
//!
//! The harness uses this to turn a speculative-service "−35% server
//! load" into "response time at the server falls from 1.9 s to 210 ms
//! at peak hour" — the operator-facing version of the paper's claim.

use serde::{Deserialize, Serialize};
use specweb_core::{CoreError, Result};

/// An M/G/1 server model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mg1 {
    /// Mean service time per request, in seconds.
    pub mean_service_secs: f64,
    /// Squared coefficient of variation of service time
    /// (`Var[S]/E[S]²`; 0 = deterministic, 1 = exponential, >1 bursty).
    pub scv: f64,
}

impl Mg1 {
    /// Creates a model; both parameters must be non-negative and finite,
    /// service time positive.
    pub fn new(mean_service_secs: f64, scv: f64) -> Result<Self> {
        if !(mean_service_secs.is_finite() && mean_service_secs > 0.0) {
            return Err(CoreError::invalid_config(
                "mg1.mean_service_secs",
                "must be positive",
            ));
        }
        if !(scv.is_finite() && scv >= 0.0) {
            return Err(CoreError::invalid_config("mg1.scv", "must be ≥ 0"));
        }
        Ok(Mg1 {
            mean_service_secs,
            scv,
        })
    }

    /// A 1995-flavored HTTP daemon: 50 ms mean service, bursty
    /// (`c² = 4`: most responses are small, a few are huge).
    pub fn httpd_1995() -> Mg1 {
        Mg1 {
            mean_service_secs: 0.05,
            scv: 4.0,
        }
    }

    /// Server utilization at an arrival rate of `lambda` requests/s.
    pub fn utilization(&self, lambda: f64) -> f64 {
        lambda * self.mean_service_secs
    }

    /// Mean response time (queue wait + service), in seconds, at
    /// `lambda` requests/s. Returns `None` when the server is saturated
    /// (`ρ ≥ 1`): the queue has no steady state.
    pub fn mean_response_secs(&self, lambda: f64) -> Option<f64> {
        if lambda < 0.0 || !lambda.is_finite() {
            return None;
        }
        let rho = self.utilization(lambda);
        if rho >= 1.0 {
            return None;
        }
        let wait = rho * (1.0 + self.scv) / (2.0 * (1.0 - rho)) * self.mean_service_secs;
        Some(wait + self.mean_service_secs)
    }
}

/// How a server-load reduction moves the operating point: response time
/// before and after reducing the arrival rate by `load_reduction`
/// (e.g. 0.35 for the paper's −35%).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadReliefOutcome {
    /// Utilization before.
    pub rho_before: f64,
    /// Utilization after.
    pub rho_after: f64,
    /// Mean response time before, seconds (`None` = saturated).
    pub response_before: Option<f64>,
    /// Mean response time after, seconds.
    pub response_after: Option<f64>,
}

/// Evaluates the effect of a fractional load reduction at a given
/// arrival rate.
pub fn load_relief(model: &Mg1, lambda: f64, load_reduction: f64) -> Result<LoadReliefOutcome> {
    if !(0.0..=1.0).contains(&load_reduction) {
        return Err(CoreError::invalid_config(
            "mg1.load_reduction",
            "must be in [0, 1]",
        ));
    }
    let after = lambda * (1.0 - load_reduction);
    Ok(LoadReliefOutcome {
        rho_before: model.utilization(lambda),
        rho_after: model.utilization(after),
        response_before: model.mean_response_secs(lambda),
        response_after: model.mean_response_secs(after),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_special_case_matches_textbook() {
        // With c² = 1 (exponential service), M/G/1 reduces to M/M/1:
        // T = 1/(μ − λ).
        let m = Mg1::new(0.1, 1.0).unwrap(); // μ = 10/s
        for lambda in [1.0, 5.0, 9.0] {
            let t = m.mean_response_secs(lambda).unwrap();
            let expect = 1.0 / (10.0 - lambda);
            assert!((t - expect).abs() < 1e-12, "λ={lambda}: {t} vs {expect}");
        }
    }

    #[test]
    fn deterministic_service_halves_the_wait() {
        // c² = 0 halves the queueing term relative to c² = 1.
        let exp = Mg1::new(0.1, 1.0).unwrap();
        let det = Mg1::new(0.1, 0.0).unwrap();
        let lambda = 8.0;
        let wq_exp = exp.mean_response_secs(lambda).unwrap() - 0.1;
        let wq_det = det.mean_response_secs(lambda).unwrap() - 0.1;
        assert!((wq_det - wq_exp / 2.0).abs() < 1e-12);
    }

    #[test]
    fn saturation_returns_none() {
        let m = Mg1::new(0.1, 1.0).unwrap();
        assert!(m.mean_response_secs(10.0).is_none()); // ρ = 1
        assert!(m.mean_response_secs(20.0).is_none());
        assert!(m.mean_response_secs(f64::NAN).is_none());
        assert!(m.mean_response_secs(9.99).is_some());
    }

    #[test]
    fn response_time_explodes_near_saturation() {
        let m = Mg1::httpd_1995();
        let t50 = m.mean_response_secs(10.0).unwrap(); // ρ = 0.5
        let t90 = m.mean_response_secs(18.0).unwrap(); // ρ = 0.9
        let t98 = m.mean_response_secs(19.6).unwrap(); // ρ = 0.98
        assert!(t90 > 3.0 * t50, "t90 {t90} vs t50 {t50}");
        assert!(t98 > 4.0 * t90, "t98 {t98} vs t90 {t90}");
    }

    #[test]
    fn load_relief_rescues_a_saturated_server() {
        let m = Mg1::httpd_1995(); // capacity 20/s
                                   // 21 req/s: saturated. A 35% reduction (the paper's +10%-traffic
                                   // operating point) brings it to ρ = 0.68 and finite latency.
        let out = load_relief(&m, 21.0, 0.35).unwrap();
        assert!(out.rho_before > 1.0);
        assert!(out.response_before.is_none());
        assert!(out.rho_after < 0.7);
        let t = out.response_after.unwrap();
        assert!(t < 0.5, "relieved response {t}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Mg1::new(0.0, 1.0).is_err());
        assert!(Mg1::new(0.1, -1.0).is_err());
        assert!(Mg1::new(f64::NAN, 1.0).is_err());
        let m = Mg1::httpd_1995();
        assert!(load_relief(&m, 1.0, 1.5).is_err());
    }
}
