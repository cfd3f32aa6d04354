//! # p3gm-privacy
//!
//! Differential-privacy mechanisms and privacy accounting for the P3GM
//! reproduction.
//!
//! The P3GM pipeline (paper §IV) consumes privacy budget in three places —
//! DP-PCA (Wishart mechanism), DP-EM (Gaussian mechanism inside the M-step)
//! and DP-SGD (noisy clipped gradients) — and composes them with Rényi
//! differential privacy (Theorem 4).  This crate provides:
//!
//! * [`sampling`] — deterministic-seedable samplers for the Gaussian,
//!   Laplace and Wishart distributions used by every mechanism (implemented
//!   in-repo so the workspace depends only on `rand`).
//! * [`mechanisms`] — the Wishart and exponential mechanisms plus the
//!   DP-SGD gradient-privatization primitives (clipping rule, noise draw,
//!   and the materialized reference).
//! * [`moments`] — the moments-accountant bounds from the paper:
//!   Eq. (3) for DP-EM and Eq. (4) for DP-SGD, plus the tighter
//!   sampled-Gaussian RDP bound used as an ablation.
//! * [`rdp`] — an RDP accountant over a grid of orders α implementing
//!   Theorem 4, with conversion to (ε, δ)-DP (Theorem 2).
//! * [`zcdp`] — zero-concentrated DP accounting used as the composition
//!   baseline in Figure 6.
//! * [`calibrate`] — noise calibration: given a target (ε, δ) and the fixed
//!   components of the pipeline, find the DP-SGD noise multiplier σ_s (and
//!   the DP-EM σ_e) by bisection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod mechanisms;
pub mod moments;
pub mod rdp;
pub mod sampling;
pub mod zcdp;

pub use calibrate::{calibrate_dpsgd_sigma, calibrate_gaussian_sigma, BudgetSplit};
pub use mechanisms::{
    clip_and_sum_gradients, clip_and_sum_gradients_counted, clip_factor, draw_gradient_noise,
    exponential_mechanism, privatize_gradient_sum, validate_dp_sgd, wishart_noise, GradientNoise,
};
pub use rdp::{PrivacySpec, RdpAccountant, DEFAULT_ORDERS};
pub use zcdp::ZcdpAccountant;

/// Errors produced by privacy accounting and mechanism construction.
#[derive(Debug, Clone, PartialEq)]
pub enum PrivacyError {
    /// A parameter was outside its valid range (e.g. non-positive noise).
    InvalidParameter {
        /// Description of the offending parameter.
        msg: String,
    },
    /// Noise calibration failed to bracket or converge to the target ε.
    CalibrationFailed {
        /// Description of the failure.
        msg: String,
    },
}

impl std::fmt::Display for PrivacyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrivacyError::InvalidParameter { msg } => write!(f, "invalid parameter: {msg}"),
            PrivacyError::CalibrationFailed { msg } => write!(f, "calibration failed: {msg}"),
        }
    }
}

impl std::error::Error for PrivacyError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, PrivacyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = PrivacyError::InvalidParameter {
            msg: "sigma must be positive".into(),
        };
        assert!(e.to_string().contains("sigma"));
        let e = PrivacyError::CalibrationFailed {
            msg: "no root".into(),
        };
        assert!(e.to_string().contains("no root"));
    }
}
