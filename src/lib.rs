//! # P3GM — Privacy-Preserving Phased Generative Model
//!
//! A from-scratch Rust reproduction of
//! *"P3GM: Private High-Dimensional Data Release via Privacy Preserving
//! Phased Generative Model"* (Takagi, Takahashi, Cao, Yoshikawa — ICDE 2021).
//!
//! This crate is a thin facade that re-exports the workspace:
//!
//! * [`store`] — versioned binary snapshot codec for persisting trained
//!   models (magic + version + tags + checksum, std-only, no serde).
//! * [`server`] — std-only HTTP synthesis service serving snapshot files
//!   (Unix only; model registry with hot reload, privacy budget ledger,
//!   strict request parsing).
//! * [`obs`] — deterministic observability core (atomic counters, gauges,
//!   fixed-bucket histograms, Prometheus text exposition, injectable-clock
//!   spans); telemetry is post-processing and never part of DP state.
//! * [`parallel`] — deterministic std-only data parallelism (one scoped
//!   dispatch per kernel call, ordered map-reduce, `P3GM_THREADS` override).
//! * [`linalg`] — dense matrices, symmetric (tridiagonal QL) eigendecomposition, Cholesky.
//! * [`nn`] — MLP layers, per-example backprop, optimizers, DP-SGD.
//! * [`privacy`] — DP mechanisms (the Wishart, exponential and DP-SGD
//!   Gaussian mechanisms, seedable Gaussian/Laplace/Wishart samplers) and
//!   accounting (RDP, moments accountant, zCDP, calibration).
//! * [`preprocess`] — PCA / DP-PCA, scalers, encoders.
//! * [`mixture`] — GMM, EM, DP-EM, (DP) k-means.
//! * [`datasets`] — synthetic stand-ins for the paper's six datasets.
//! * [`classifiers`] — logistic regression, AdaBoost, GBM, XGBoost-style
//!   boosting, an MLP classifier, AUROC/AUPRC/accuracy.
//! * [`core`] — VAE, DP-VAE, PGM, P3GM, P3GM(AE) and labelled synthesis.
//! * [`baselines`] — DP-GM and PrivBayes.
//! * [`eval`] — the experiment harness regenerating every table and figure
//!   of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```no_run
//! use p3gm::core::{PgmConfig, PhasedGenerativeModel, GenerativeModel};
//! use p3gm::datasets::tabular::adult_like;
//! use p3gm::core::synthesis::LabelledSynthesizer;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let data = adult_like(&mut rng, 2000);
//! let (synth, prepared) =
//!     LabelledSynthesizer::prepare(&data.features, &data.labels, data.n_classes).unwrap();
//! let config = PgmConfig::default();           // (ε ≈ 1, δ = 1e-5) training
//! let (model, _history) = PhasedGenerativeModel::fit(&mut rng, &prepared, config).unwrap();
//! println!("privacy: {:?}", model.training_privacy_spec());
//! let samples = model.sample(&mut rng, 100);   // differentially private synthetic rows
//! assert_eq!(samples.rows(), 100);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios. The `paper_tables`
//! and `paper_figures` benches of `p3gm-bench` regenerate every table and
//! figure and write the reports to `target/paper_reports/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Versioned binary snapshot codec (model persistence).
pub use p3gm_store as store;

/// HTTP synthesis service (model registry, hot reload, budget ledger).
pub use p3gm_server as server;

/// Deterministic metrics, Prometheus exposition, and injectable-clock spans.
pub use p3gm_obs as obs;

/// Deterministic data-parallel execution layer.
pub use p3gm_parallel as parallel;

/// Dense linear algebra substrate.
pub use p3gm_linalg as linalg;

/// Neural-network substrate (MLP, DP-SGD).
pub use p3gm_nn as nn;

/// Differential-privacy mechanisms and accounting.
pub use p3gm_privacy as privacy;

/// Preprocessing: PCA/DP-PCA, scalers, encoders.
pub use p3gm_preprocess as preprocess;

/// Gaussian mixtures, EM/DP-EM, k-means.
pub use p3gm_mixture as mixture;

/// Synthetic datasets mirroring the paper's evaluation data.
pub use p3gm_datasets as datasets;

/// Downstream classifiers and metrics.
pub use p3gm_classifiers as classifiers;

/// The P3GM model family (VAE, DP-VAE, PGM, P3GM, P3GM(AE)).
pub use p3gm_core as core;

/// Baseline DP generative models (DP-GM, PrivBayes).
pub use p3gm_baselines as baselines;

/// Experiment harness for the paper's tables and figures.
pub use p3gm_eval as eval;
