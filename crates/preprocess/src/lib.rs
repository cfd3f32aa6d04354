//! # p3gm-preprocess
//!
//! Data preprocessing for the P3GM reproduction.
//!
//! P3GM's Encoding Phase projects the data onto a low-dimensional subspace
//! with **differentially private PCA** (the Wishart mechanism of Jiang et
//! al.), and the tabular pipelines additionally need feature scaling,
//! one-hot encoding of categorical attributes and discretization (for the
//! PrivBayes baseline). This crate provides:
//!
//! * [`pca`] — [`pca::Pca`] (exact) and [`pca::DpPca`] (Wishart mechanism,
//!   (ε_p, 0)-DP), both exposing `transform` / `inverse_transform`.
//! * [`scaler`] — [`scaler::MinMaxScaler`], the `[0, 1]` feature scaling
//!   of the labelled synthesis pipeline.
//! * [`encoding`] — [`encoding::OneHotEncoder`] for labels/categoricals and
//!   [`encoding::Discretizer`] (equal-width binning) for PrivBayes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encoding;
pub mod pca;
pub mod scaler;

pub use encoding::{Discretizer, OneHotEncoder};
pub use pca::{DpPca, Pca};
pub use scaler::MinMaxScaler;

/// Errors produced by preprocessing.
#[derive(Debug, Clone, PartialEq)]
pub enum PreprocessError {
    /// Invalid hyper-parameter.
    InvalidParameter {
        /// Description of the problem.
        msg: String,
    },
    /// The input data was empty or shaped inconsistently with the fitted
    /// transformer.
    InvalidData {
        /// Description of the problem.
        msg: String,
    },
    /// An underlying linear-algebra failure.
    Numerical {
        /// Description of the problem.
        msg: String,
    },
}

impl std::fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreprocessError::InvalidParameter { msg } => write!(f, "invalid parameter: {msg}"),
            PreprocessError::InvalidData { msg } => write!(f, "invalid data: {msg}"),
            PreprocessError::Numerical { msg } => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for PreprocessError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PreprocessError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(PreprocessError::InvalidParameter {
            msg: "d' = 0".into()
        }
        .to_string()
        .contains("d' = 0"));
        assert!(PreprocessError::InvalidData {
            msg: "empty".into()
        }
        .to_string()
        .contains("empty"));
        assert!(PreprocessError::Numerical {
            msg: "eigen".into()
        }
        .to_string()
        .contains("eigen"));
    }
}
