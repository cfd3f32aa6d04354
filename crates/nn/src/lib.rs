//! # p3gm-nn
//!
//! Minimal neural-network substrate for the P3GM reproduction.
//!
//! The paper's encoder and decoder are two-layer fully-connected networks
//! (`[d, 1000, d']` and `[d', 1000, d]` with ReLU), trained with DP-SGD.
//! This crate provides everything needed to train such networks, and the
//! MLP behind the downstream classifiers, from scratch:
//!
//! * [`activation`] — ReLU / identity with derivatives, and the logistic
//!   sigmoid applied to logits.
//! * [`linear`] — a fully-connected layer with explicit forward/backward.
//! * [`mlp`] — multi-layer perceptrons with flat parameter/gradient
//!   vectors and a batched backward pass that keeps per-example gradients
//!   factored, so DP-SGD can clip each example without materializing it.
//! * [`loss`] — Bernoulli cross-entropy with logits, softmax
//!   cross-entropy, and the Gaussian-VAE KL divergences, all returning
//!   both value and gradient.
//! * [`optimizer`] — Adam operating on flat parameter vectors.
//! * [`dpsgd`] — the DP-SGD update rule: clip per-example gradients, add
//!   Gaussian noise, average, and take an Adam step.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod dpsgd;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optimizer;

pub use activation::Activation;
pub use dpsgd::DpSgdConfig;
pub use linear::Linear;
pub use mlp::{BatchCache, BatchGradients, Mlp, MlpCache};
pub use optimizer::Adam;
