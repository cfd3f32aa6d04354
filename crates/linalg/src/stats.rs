//! Summary statistics over data matrices (rows = samples, columns = features).
//!
//! PCA, DP-PCA, the Gaussian-mixture initialization and the dataset
//! generators all need column means, centred data and covariance matrices;
//! this module provides them in one place.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Column-wise mean of a data matrix (one entry per feature).
///
/// # Errors
/// Returns [`LinalgError::Empty`] if the matrix has no rows.
pub fn column_means(data: &Matrix) -> Result<Vec<f64>> {
    if data.rows() == 0 {
        return Err(LinalgError::Empty { op: "column_means" });
    }
    let mut means = data.column_sums();
    let n = data.rows() as f64;
    for m in &mut means {
        *m /= n;
    }
    Ok(means)
}

/// Column-wise minimum and maximum of a data matrix.
pub fn column_min_max(data: &Matrix) -> Result<(Vec<f64>, Vec<f64>)> {
    if data.rows() == 0 {
        return Err(LinalgError::Empty {
            op: "column_min_max",
        });
    }
    let mut mins = data.row(0).to_vec();
    let mut maxs = data.row(0).to_vec();
    for row in data.row_iter().skip(1) {
        for ((lo, hi), &x) in mins.iter_mut().zip(maxs.iter_mut()).zip(row.iter()) {
            if x < *lo {
                *lo = x;
            }
            if x > *hi {
                *hi = x;
            }
        }
    }
    Ok((mins, maxs))
}

/// Returns a copy of `data` with the given per-column means subtracted.
pub fn center(data: &Matrix, means: &[f64]) -> Result<Matrix> {
    if means.len() != data.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "center",
            lhs: data.shape(),
            rhs: (1, means.len()),
        });
    }
    let mut out = data.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        for (x, &m) in row.iter_mut().zip(means.iter()) {
            *x -= m;
        }
    }
    Ok(out)
}

/// Population covariance matrix of a data matrix (divides by `n`).
///
/// If `means` is `None` the column means are computed from the data; passing
/// precomputed means matches the paper's assumption that the global mean is
/// publicly available for DP-PCA (see paper footnote 2).
pub fn covariance_matrix(data: &Matrix, means: Option<&[f64]>) -> Result<Matrix> {
    if data.rows() == 0 {
        return Err(LinalgError::Empty {
            op: "covariance_matrix",
        });
    }
    let owned_means;
    let means = match means {
        Some(m) => m,
        None => {
            owned_means = column_means(data)?;
            &owned_means
        }
    };
    let centered = center(data, means)?;
    let gram = centered.gram();
    Ok(gram.scale(1.0 / data.rows() as f64))
}

/// Pearson correlation between two equal-length slices.
///
/// Returns 0.0 when either slice has zero variance.
pub fn correlation(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "correlation",
            lhs: (a.len(), 1),
            rhs: (b.len(), 1),
        });
    }
    if a.is_empty() {
        return Err(LinalgError::Empty { op: "correlation" });
    }
    let ma = crate::vector::mean(a);
    let mb = crate::vector::mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let dx = x - ma;
        let dy = y - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va == 0.0 || vb == 0.0 {
        return Ok(0.0);
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ])
        .unwrap()
    }

    #[test]
    fn min_max() {
        let (lo, hi) = column_min_max(&data()).unwrap();
        assert_eq!(lo, vec![1.0, 2.0]);
        assert_eq!(hi, vec![7.0, 8.0]);
    }

    #[test]
    fn center_zeroes_means() {
        let d = data();
        let means = column_means(&d).unwrap();
        assert_eq!(means, vec![4.0, 5.0]);
        let c = center(&d, &means).unwrap();
        let new_means = column_means(&c).unwrap();
        assert!(new_means.iter().all(|m| m.abs() < 1e-12));
        assert!(center(&d, &[1.0]).is_err());
    }

    #[test]
    fn covariance_of_perfectly_correlated_columns() {
        let d = data();
        let cov = covariance_matrix(&d, None).unwrap();
        // Both columns have variance 5 and covariance 5 (perfect correlation).
        assert!((cov.get(0, 0) - 5.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 5.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 5.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - cov.get(1, 0)).abs() < 1e-12);
    }

    #[test]
    fn covariance_with_precomputed_means() {
        let d = data();
        let means = column_means(&d).unwrap();
        let a = covariance_matrix(&d, Some(&means)).unwrap();
        let b = covariance_matrix(&d, None).unwrap();
        assert!(a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn correlation_values() {
        let a = [1.0, 2.0, 3.0];
        assert!((correlation(&a, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((correlation(&a, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[5.0, 5.0, 5.0]).unwrap(), 0.0);
        assert!(correlation(&a, &[1.0]).is_err());
        assert!(correlation(&[], &[]).is_err());
    }

    #[test]
    fn empty_inputs_rejected() {
        let empty = Matrix::zeros(0, 3);
        assert!(column_means(&empty).is_err());
        assert!(column_min_max(&empty).is_err());
        assert!(covariance_matrix(&empty, None).is_err());
    }
}
