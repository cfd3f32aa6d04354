//! # p3gm-core
//!
//! The paper's primary contribution: the **Privacy-Preserving Phased
//! Generative Model (P3GM)** and the models it is compared against.
//!
//! The crate provides four generative models sharing one encoder–decoder
//! architecture (two fully-connected layers per side, paper §VI):
//!
//! | Model      | Encoder mean        | Encoder variance | Prior    | Optimizer |
//! |------------|---------------------|------------------|----------|-----------|
//! | VAE        | learned             | learned          | N(0, I)  | Adam      |
//! | DP-VAE     | learned             | learned          | N(0, I)  | DP-SGD    |
//! | PGM        | fixed to PCA `f(x)` | learned          | MoG (EM) | Adam      |
//! | P3GM       | fixed to DP-PCA     | learned          | MoG (DP-EM) | DP-SGD |
//! | P3GM (AE)  | fixed to DP-PCA     | frozen           | MoG (DP-EM) | DP-SGD |
//!
//! * [`config`] — hyper-parameter structs for both families.
//! * [`history`] — per-epoch training statistics (reconstruction loss, KL,
//!   ELBO) used by the Figure 7 learning-efficiency experiments.
//! * [`report`] — [`report::TrainReport`]: what a fit *did* (DP-SGD steps,
//!   clipped-gradient fraction, EM log-likelihood trajectory, optional
//!   injected-timer phase times) as pure post-processing telemetry.
//! * [`vae`] — [`vae::Vae`]: end-to-end VAE with optional DP-SGD (DP-VAE).
//! * [`pgm`] — [`pgm::PhasedGenerativeModel`]: the two-phase model with
//!   exact or private Encoding Phase and plain or DP-SGD Decoding Phase.
//! * [`synthesis`] — the label-aware data-synthesis protocol of §IV-E /
//!   §VI (one-hot labels appended to the training rows, synthetic data
//!   generated with the real label ratio).
//! * [`snapshot`] — [`snapshot::SynthesisSnapshot`]: persist a trained
//!   model (with its privacy stamp) to versioned bytes, load it once, and
//!   serve concurrent seedable synthesis requests — sampling is
//!   post-processing, so serving consumes no additional privacy budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod averaging;
pub mod config;
pub mod history;
mod lot;
pub mod pgm;
pub mod report;
pub mod snapshot;
pub mod synthesis;
pub mod vae;

pub use config::{DecoderLoss, PgmConfig, VaeConfig, VarianceMode};
pub use history::{EpochStats, TrainingHistory};
pub use pgm::PhasedGenerativeModel;
pub use report::TrainReport;
pub use snapshot::SynthesisSnapshot;
pub use synthesis::{synthesize_labelled, LabelledSynthesizer};
pub use vae::Vae;

use p3gm_linalg::Matrix;

/// Common interface of every generative model in the workspace: draw
/// synthetic rows in the same feature space the model was trained on.
pub trait GenerativeModel {
    /// Draws `n` synthetic rows.
    fn sample(&self, rng: &mut dyn rand::RngCore, n: usize) -> Matrix;
}

/// Errors produced while configuring or training the generative models.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Invalid hyper-parameter combination.
    InvalidConfig {
        /// Description of the problem.
        msg: String,
    },
    /// Invalid or empty training data.
    InvalidData {
        /// Description of the problem.
        msg: String,
    },
    /// A failure propagated from a substrate crate (PCA, EM, DP accounting).
    Substrate {
        /// Description of the problem.
        msg: String,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { msg } => write!(f, "invalid configuration: {msg}"),
            CoreError::InvalidData { msg } => write!(f, "invalid data: {msg}"),
            CoreError::Substrate { msg } => write!(f, "substrate failure: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::InvalidConfig {
            msg: "latent_dim = 0".into()
        }
        .to_string()
        .contains("latent_dim"));
        assert!(CoreError::InvalidData {
            msg: "empty".into()
        }
        .to_string()
        .contains("empty"));
        assert!(CoreError::Substrate { msg: "PCA".into() }
            .to_string()
            .contains("PCA"));
    }
}
