//! Error types for linear-algebra operations.

use std::fmt;

/// Errors produced by the linear-algebra primitives.
///
/// All fallible operations in this crate return [`LinalgError`] rather than
/// panicking so that callers (e.g. DP-EM, which may produce an
/// ill-conditioned noisy covariance) can recover gracefully.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Human readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Actual shape of the offending matrix.
        shape: (usize, usize),
    },
    /// Cholesky factorization failed because the matrix is not positive
    /// definite (or is numerically indefinite).
    NotPositiveDefinite {
        /// Index of the pivot where the factorization broke down.
        pivot: usize,
        /// Value of the offending pivot.
        value: f64,
    },
    /// The tridiagonal QL eigen-solver did not converge within its
    /// per-eigenvalue iteration budget.
    EigenNoConvergence {
        /// Magnitude of the subdiagonal element that had not vanished when
        /// the budget ran out.
        off_diagonal: f64,
    },
    /// An input entry was NaN or infinite where finite values are required.
    NonFinite {
        /// Description of the operation that received the entry.
        op: &'static str,
        /// Row of the first offending entry (row-major scan order).
        row: usize,
        /// Column of the first offending entry.
        col: usize,
    },
    /// A singular matrix was passed to an operation that requires full rank.
    Singular {
        /// Description of the operation that required an invertible matrix.
        op: &'static str,
    },
    /// An argument was empty (zero rows or zero columns) where data was
    /// required.
    Empty {
        /// Description of the operation that received the empty argument.
        op: &'static str,
    },
    /// An argument was out of its valid range.
    InvalidArgument {
        /// Description of the invalid argument.
        msg: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite: pivot {pivot} has value {value}"
            ),
            LinalgError::EigenNoConvergence { off_diagonal } => write!(
                f,
                "tridiagonal QL eigen-solver failed to converge (remaining subdiagonal {off_diagonal})"
            ),
            LinalgError::NonFinite { op, row, col } => {
                write!(f, "non-finite entry at ({row}, {col}) in {op}")
            }
            LinalgError::Singular { op } => write!(f, "singular matrix in {op}"),
            LinalgError::Empty { op } => write!(f, "empty input in {op}"),
            LinalgError::InvalidArgument { msg } => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = LinalgError::DimensionMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn display_not_positive_definite() {
        let err = LinalgError::NotPositiveDefinite {
            pivot: 3,
            value: -0.5,
        };
        assert!(err.to_string().contains("pivot 3"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&LinalgError::Singular { op: "inverse" });
    }

    #[test]
    fn display_other_variants() {
        assert!(LinalgError::NotSquare { shape: (2, 3) }
            .to_string()
            .contains("square"));
        let no_convergence = LinalgError::EigenNoConvergence { off_diagonal: 1.0 }.to_string();
        assert!(no_convergence.contains("QL") && no_convergence.contains("converge"));
        assert!(!no_convergence.contains("Jacobi"), "{no_convergence}");
        assert_eq!(
            LinalgError::NonFinite {
                op: "eigen",
                row: 3,
                col: 7
            }
            .to_string(),
            "non-finite entry at (3, 7) in eigen"
        );
        assert!(LinalgError::Empty { op: "mean" }
            .to_string()
            .contains("empty"));
        assert!(LinalgError::InvalidArgument {
            msg: "k must be > 0".into()
        }
        .to_string()
        .contains("k must be > 0"));
    }
}
