//! # p3gm-linalg
//!
//! Dense linear-algebra substrate for the P3GM reproduction.
//!
//! The crate provides exactly the primitives that the rest of the workspace
//! needs and nothing more:
//!
//! * [`Matrix`] — a row-major, heap-allocated dense `f64` matrix: the
//!   workspace's single contiguous batch representation, flowing end-to-end
//!   from preprocessing through training to evaluation. The heavy kernels
//!   (`matmul`, `gram`, `column_sums`) are blocked for cache locality and
//!   parallelized over row chunks via `p3gm-parallel`, with results that
//!   are bit-identical for every thread count.
//! * [`vector`] — free functions over `&[f64]` slices (dot products, norms,
//!   axpy-style updates) used in the innermost loops of the neural-network
//!   crate.
//! * [`eigen`] — the symmetric eigen-decomposition (Householder
//!   tridiagonalization + implicit-shift QL), which backs (DP-)PCA.
//! * [`cholesky`] — Cholesky factorization, triangular solves, log-determinant
//!   and inverse of symmetric positive-definite matrices, which back the
//!   Gaussian-mixture density evaluation and Wishart sampling.
//! * [`stats`] — column means, covariance matrices and related summary
//!   statistics over data matrices.
//!
//! Everything is implemented in safe Rust with no external BLAS so the whole
//! reproduction builds offline; data parallelism comes from the vendored
//! `p3gm-parallel` scoped thread pool (honoring `P3GM_THREADS`), and every
//! kernel is deterministic regardless of the worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod matrix;
pub mod stats;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
