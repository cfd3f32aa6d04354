//! # p3gm-datasets
//!
//! Synthetic stand-ins for the six evaluation datasets of the P3GM paper.
//!
//! The original datasets (Kaggle Credit, Adult, UCI ISOLET, UCI ESR, MNIST,
//! Fashion-MNIST) cannot be shipped with this repository, so this crate
//! generates synthetic datasets that preserve the *structural* properties
//! the paper's experiments exercise — dimensionality regime, number of
//! classes, class imbalance, the existence of a low-dimensional subspace
//! that PCA can find, and non-trivial (but learnable) class structure.  The
//! substitution is documented in `DESIGN.md` §4.
//!
//! * [`dataset`] — the [`dataset::Dataset`] container with train/test
//!   splitting, stratified subsampling and class statistics.
//! * [`tabular`] — generators for the Credit-, Adult-, ISOLET- and ESR-like
//!   tabular datasets.
//! * [`images`] — generators for the MNIST- and Fashion-MNIST-like image
//!   datasets (parametric stroke/texture classes on a configurable grid).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod images;
pub mod tabular;

pub use dataset::{Dataset, TrainTestSplit};

/// Identifies one of the paper's six evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Kaggle credit-card fraud detection (29 features, 0.2% positives).
    KaggleCredit,
    /// UCI Adult census income (15 features, 24.1% positives).
    Adult,
    /// UCI ISOLET spoken-letter features (617 features, 19.2% positives).
    Isolet,
    /// UCI Epileptic Seizure Recognition (179 features, 20% positives).
    Esr,
    /// MNIST handwritten digits (images, 10 classes).
    Mnist,
    /// Fashion-MNIST clothing images (images, 10 classes).
    FashionMnist,
}

impl DatasetKind {
    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::KaggleCredit => "Kaggle Credit",
            DatasetKind::Adult => "Adult",
            DatasetKind::Isolet => "UCI ISOLET",
            DatasetKind::Esr => "UCI ESR",
            DatasetKind::Mnist => "MNIST",
            DatasetKind::FashionMnist => "Fashion-MNIST",
        }
    }

    /// The four binary tabular datasets of Table VI, in the paper's order.
    pub fn tabular_kinds() -> [DatasetKind; 4] {
        [
            DatasetKind::KaggleCredit,
            DatasetKind::Esr,
            DatasetKind::Adult,
            DatasetKind::Isolet,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_flags() {
        assert_eq!(DatasetKind::KaggleCredit.name(), "Kaggle Credit");
        assert_eq!(DatasetKind::tabular_kinds().len(), 4);
    }
}
