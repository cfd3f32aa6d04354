//! Zero-concentrated differential privacy (zCDP) accounting.
//!
//! The paper's Figure 6 compares its RDP-based composition against the
//! "baseline" composition that uses zCDP for DP-EM (as proposed in the DP-EM
//! paper) and the moments accountant for DP-SGD, then combines the resulting
//! (ε, δ) guarantees by simple sequential composition.  This module provides
//! the zCDP half of that baseline plus a general-purpose zCDP accountant.
//!
//! Facts used (Bun & Steinke 2016):
//! * The Gaussian mechanism with sensitivity Δ and noise σ satisfies
//!   `ρ = Δ²/(2σ²)`-zCDP.
//! * zCDP composes additively in ρ.
//! * `ρ`-zCDP implies `(ρ + 2 √(ρ log(1/δ)), δ)`-DP for every δ > 0.
//! * A pure `ε`-DP mechanism satisfies `(ε²/2)`-zCDP.

use crate::{PrivacyError, Result};

/// Accumulates zCDP budget ρ across sequentially-composed mechanisms.
#[derive(Debug, Clone, Default)]
pub struct ZcdpAccountant {
    rho: f64,
}

impl ZcdpAccountant {
    /// Creates an empty accountant (ρ = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated zCDP parameter ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Adds a mechanism with a known zCDP parameter.
    pub fn add_rho(&mut self, rho: f64) -> Result<&mut Self> {
        if rho < 0.0 || !rho.is_finite() {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("rho must be a non-negative finite number, got {rho}"),
            });
        }
        self.rho += rho;
        Ok(self)
    }

    /// Adds one Gaussian-mechanism release with L2 sensitivity `delta_f` and
    /// noise standard deviation `sigma`: `ρ = Δ²/(2σ²)`.
    pub fn add_gaussian(&mut self, delta_f: f64, sigma: f64) -> Result<&mut Self> {
        if sigma <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("sigma must be positive, got {sigma}"),
            });
        }
        self.add_rho(delta_f * delta_f / (2.0 * sigma * sigma))
    }

    /// Adds a pure `eps`-DP mechanism: `ρ = ε²/2`.
    pub fn add_pure_dp(&mut self, eps: f64) -> Result<&mut Self> {
        if eps < 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("epsilon must be non-negative, got {eps}"),
            });
        }
        self.add_rho(eps * eps / 2.0)
    }

    /// Adds `steps` iterations of DP-EM with `n_components` mixture
    /// components and noise scale `sigma_e`.
    ///
    /// Each M-step releases `2K + 1` sensitivity-1 quantities perturbed with
    /// `N(0, σ_e²)` noise, so one step costs `ρ = (2K + 1)/(2σ_e²)` — the
    /// zCDP analogue of paper Eq. (3).
    pub fn add_dp_em(
        &mut self,
        steps: usize,
        sigma_e: f64,
        n_components: usize,
    ) -> Result<&mut Self> {
        if sigma_e <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("sigma_e must be positive, got {sigma_e}"),
            });
        }
        if n_components == 0 {
            return Err(PrivacyError::InvalidParameter {
                msg: "n_components must be positive".to_string(),
            });
        }
        let k = n_components as f64;
        let per_step = (2.0 * k + 1.0) / (2.0 * sigma_e * sigma_e);
        self.add_rho(steps as f64 * per_step)
    }

    /// Converts the accumulated ρ to an (ε, δ)-DP guarantee:
    /// `ε = ρ + 2 √(ρ log(1/δ))`.
    pub fn to_dp(&self, delta: f64) -> Result<f64> {
        if !(0.0..1.0).contains(&delta) || delta == 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("delta must be in (0,1), got {delta}"),
            });
        }
        Ok(self.rho + 2.0 * (self.rho * (1.0 / delta).ln()).sqrt())
    }
}

/// The "baseline" composition used in Figure 6: account DP-EM with zCDP,
/// DP-SGD with the plain moments accountant, DP-PCA as pure DP, and combine
/// the three resulting ε values by sequential composition (with the same δ
/// charged once — the most favourable reading of the baseline).
///
/// Returns the total ε.
#[allow(clippy::too_many_arguments)]
pub fn baseline_composition_epsilon(
    eps_p: f64,
    t_e: usize,
    sigma_e: f64,
    k: usize,
    t_s: usize,
    q: f64,
    sigma_s: f64,
    delta: f64,
) -> Result<f64> {
    // zCDP part for DP-EM.
    let mut z = ZcdpAccountant::new();
    if t_e > 0 {
        z.add_dp_em(t_e, sigma_e, k)?;
    }
    let eps_em = if t_e > 0 { z.to_dp(delta)? } else { 0.0 };

    // Moments accountant for DP-SGD: minimize over integer lambda.
    let eps_sgd = if t_s > 0 {
        if !(0.0..1.0).contains(&q) || q == 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("sampling probability must be in (0,1), got {q}"),
            });
        }
        if sigma_s <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("sigma_s must be positive, got {sigma_s}"),
            });
        }
        let mut best = f64::INFINITY;
        let terms = crate::moments::Eq4Terms::new(q, sigma_s, 64);
        for lambda in 1..=64u32 {
            let ma = t_s as f64 * terms.ma(lambda);
            if !ma.is_finite() {
                continue;
            }
            let eps = crate::moments::moments_to_eps(ma, f64::from(lambda), delta);
            if eps < best {
                best = eps;
            }
        }
        best
    } else {
        0.0
    };

    Ok(eps_p + eps_em + eps_sgd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdp::RdpAccountant;

    const DELTA: f64 = 1e-5;

    #[test]
    fn gaussian_rho_formula() {
        let mut z = ZcdpAccountant::new();
        z.add_gaussian(1.0, 2.0).unwrap();
        assert!((z.rho() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn composition_is_additive() {
        let mut z = ZcdpAccountant::new();
        z.add_gaussian(1.0, 2.0).unwrap();
        z.add_gaussian(1.0, 2.0).unwrap();
        assert!((z.rho() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn pure_dp_conversion() {
        let mut z = ZcdpAccountant::new();
        z.add_pure_dp(1.0).unwrap();
        assert!((z.rho() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dp_em_rho_matches_formula() {
        let mut z = ZcdpAccountant::new();
        z.add_dp_em(10, 4.0, 3).unwrap();
        // per step: (2*3+1)/(2*16) = 7/32; 10 steps = 70/32.
        assert!((z.rho() - 70.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn to_dp_formula() {
        let mut z = ZcdpAccountant::new();
        z.add_rho(0.1).unwrap();
        let eps = z.to_dp(DELTA).unwrap();
        let expected = 0.1 + 2.0 * (0.1_f64 * (1e5_f64).ln()).sqrt();
        assert!((eps - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_accountant_is_free() {
        let z = ZcdpAccountant::new();
        assert_eq!(z.to_dp(DELTA).unwrap(), 0.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut z = ZcdpAccountant::new();
        assert!(z.add_rho(-1.0).is_err());
        assert!(z.add_rho(f64::INFINITY).is_err());
        assert!(z.add_gaussian(1.0, 0.0).is_err());
        assert!(z.add_pure_dp(-0.1).is_err());
        assert!(z.add_dp_em(5, 0.0, 3).is_err());
        assert!(z.add_dp_em(5, 1.0, 0).is_err());
        assert!(z.to_dp(0.0).is_err());
        assert!(baseline_composition_epsilon(0.1, 0, 1.0, 1, 10, 2.0, 1.0, DELTA).is_err());
        assert!(baseline_composition_epsilon(0.1, 0, 1.0, 1, 10, 0.1, 0.0, DELTA).is_err());
    }

    #[test]
    fn rdp_composition_is_tighter_than_baseline() {
        // This is exactly the claim of Figure 6: for the same P3GM schedule,
        // the RDP composition yields a smaller total epsilon than
        // zCDP(DP-EM) + MA(DP-SGD) + eps_p composed sequentially.
        let eps_p = 0.1;
        let (t_e, sigma_e, k) = (20, 20.0, 3);
        let (t_s, q) = (1000, 0.01);
        for &sigma_s in &[1.0, 2.0, 4.0, 8.0] {
            let baseline =
                baseline_composition_epsilon(eps_p, t_e, sigma_e, k, t_s, q, sigma_s, DELTA)
                    .unwrap();
            let rdp = RdpAccountant::p3gm_total(eps_p, t_e, sigma_e, k, t_s, q, sigma_s, DELTA)
                .unwrap()
                .epsilon;
            assert!(
                rdp < baseline,
                "sigma_s={sigma_s}: RDP {rdp} should beat baseline {baseline}"
            );
        }
    }

    #[test]
    fn baseline_decreases_with_noise() {
        let lo = baseline_composition_epsilon(0.1, 20, 20.0, 3, 500, 0.01, 1.0, DELTA).unwrap();
        let hi = baseline_composition_epsilon(0.1, 20, 20.0, 3, 500, 0.01, 8.0, DELTA).unwrap();
        assert!(hi < lo);
    }
}
