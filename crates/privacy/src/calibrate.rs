//! Noise calibration: finding the noise level that achieves a target ε.
//!
//! The paper's experiments fix the *total* privacy budget (e.g. (1, 1e-5)-DP)
//! and split it between DP-PCA (ε_p = 0.1), DP-EM (σ_e "set so that ε = 1
//! holds") and DP-SGD (σ_s from Table IV).  To reproduce arbitrary points of
//! Figure 4 we need the inverse problem — given a target ε, find σ — which
//! this module solves by bisection against the RDP accountant.

use crate::rdp::RdpAccountant;
use crate::{PrivacyError, Result};

/// Calibrates the DP-SGD noise multiplier σ_s so that the *whole* P3GM
/// pipeline — DP-PCA at `eps_p`, `t_e` DP-EM steps at `sigma_e` with `k`
/// components, and `t_s` DP-SGD steps at sampling rate `q` — satisfies
/// (`target_eps`, `delta`)-DP under the paper's Theorem 4 accounting.
///
/// Returns the smallest noise multiplier found by bisection. Errors if even
/// an enormous σ_s cannot reach the target (i.e. the fixed components alone
/// already exceed the budget).
#[allow(clippy::too_many_arguments)]
pub fn calibrate_dpsgd_sigma(
    target_eps: f64,
    delta: f64,
    eps_p: f64,
    t_e: usize,
    sigma_e: f64,
    k: usize,
    t_s: usize,
    q: f64,
) -> Result<f64> {
    if target_eps <= 0.0 {
        return Err(PrivacyError::InvalidParameter {
            msg: format!("target epsilon must be positive, got {target_eps}"),
        });
    }
    if t_s == 0 {
        return Err(PrivacyError::InvalidParameter {
            msg: "calibration requires at least one DP-SGD step".to_string(),
        });
    }
    let eps_of = |sigma: f64| -> Result<f64> {
        Ok(RdpAccountant::p3gm_total(eps_p, t_e, sigma_e, k, t_s, q, sigma, delta)?.epsilon)
    };
    bisect_sigma(target_eps, eps_of)
}

/// Calibrates the DP-EM noise scale σ_e so that `t_e` DP-EM iterations with
/// `k` components cost at most `target_eps` on their own (RDP-accounted).
pub fn calibrate_dpem_sigma(target_eps: f64, delta: f64, t_e: usize, k: usize) -> Result<f64> {
    if target_eps <= 0.0 || t_e == 0 || k == 0 {
        return Err(PrivacyError::InvalidParameter {
            msg: format!(
                "invalid DP-EM calibration parameters: eps={target_eps}, t_e={t_e}, k={k}"
            ),
        });
    }
    let eps_of = |sigma: f64| -> Result<f64> {
        let mut acc = RdpAccountant::default();
        acc.add_dp_em(t_e, sigma, k)?;
        Ok(acc.to_dp(delta)?.epsilon)
    };
    bisect_sigma(target_eps, eps_of)
}

/// Bisection on a monotone-decreasing ε(σ) curve.
fn bisect_sigma(target_eps: f64, eps_of: impl Fn(f64) -> Result<f64>) -> Result<f64> {
    let mut lo = 1e-2;
    let mut hi = 1e-2;
    // Grow `hi` until the budget is met (or give up).
    let mut met = false;
    for _ in 0..40 {
        if eps_of(hi)? <= target_eps {
            met = true;
            break;
        }
        hi *= 2.0;
    }
    if !met {
        return Err(PrivacyError::CalibrationFailed {
            msg: format!(
                "even sigma = {hi:.3e} does not reach epsilon = {target_eps}; the fixed \
                 components alone exceed the budget"
            ),
        });
    }
    // If the smallest sigma already satisfies the budget, return it.
    if eps_of(lo)? <= target_eps {
        return Ok(lo);
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if eps_of(mid)? <= target_eps {
            hi = mid;
        } else {
            lo = mid;
        }
        if (hi - lo) / hi < 1e-4 {
            break;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DELTA: f64 = 1e-5;

    #[test]
    fn dpsgd_calibration_round_trips() {
        let (eps_p, t_e, sigma_e, k) = (0.1, 20, 300.0, 3);
        let (t_s, q) = (500, 0.02);
        let sigma = calibrate_dpsgd_sigma(1.0, DELTA, eps_p, t_e, sigma_e, k, t_s, q).unwrap();
        let eps = RdpAccountant::p3gm_total(eps_p, t_e, sigma_e, k, t_s, q, sigma, DELTA)
            .unwrap()
            .epsilon;
        assert!(eps <= 1.0 + 1e-6, "eps {eps}");
        assert!(eps > 0.85, "calibration too loose: {eps}");
    }

    #[test]
    fn dpsgd_calibration_larger_budget_needs_less_noise() {
        let tight = calibrate_dpsgd_sigma(0.5, DELTA, 0.05, 10, 300.0, 3, 300, 0.02).unwrap();
        let loose = calibrate_dpsgd_sigma(4.0, DELTA, 0.05, 10, 300.0, 3, 300, 0.02).unwrap();
        assert!(loose < tight);
    }

    #[test]
    fn dpsgd_calibration_fails_when_fixed_parts_exceed_budget() {
        // DP-PCA alone at eps_p = 2 cannot fit in a total budget of 0.5.
        let res = calibrate_dpsgd_sigma(0.5, DELTA, 2.0, 0, 1.0, 1, 100, 0.02);
        assert!(matches!(res, Err(PrivacyError::CalibrationFailed { .. })));
    }

    #[test]
    fn dpem_calibration_round_trips() {
        let sigma_e = calibrate_dpem_sigma(0.3, DELTA, 20, 3).unwrap();
        let mut acc = RdpAccountant::default();
        acc.add_dp_em(20, sigma_e, 3).unwrap();
        let eps = acc.to_dp(DELTA).unwrap().epsilon;
        assert!(eps <= 0.3 + 1e-6);
        assert!(eps > 0.25);
    }

    #[test]
    fn invalid_targets_rejected() {
        assert!(calibrate_dpsgd_sigma(-1.0, DELTA, 0.1, 1, 1.0, 1, 10, 0.1).is_err());
        assert!(calibrate_dpsgd_sigma(1.0, DELTA, 0.1, 1, 1.0, 1, 0, 0.1).is_err());
        assert!(calibrate_dpem_sigma(1.0, DELTA, 0, 3).is_err());
    }
}
