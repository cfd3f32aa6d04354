//! Symmetric eigen-decomposition by Householder tridiagonalization and
//! implicit-shift QL.
//!
//! (DP-)PCA only ever needs the eigen-decomposition of a symmetric (noisy)
//! covariance matrix. The solver is the EISPACK `tred2`/`tql2` pair
//! (Bowdler, Martin, Reinsch & Wilkinson, *Handbook for Automatic
//! Computation* Vol. II; Golub & Van Loan §8.3):
//!
//! 1. **Tridiagonalization** (`tred2`): `n − 2` Householder reflections
//!    reduce `A` to a symmetric tridiagonal `T = QᵀAQ`, and their product
//!    `Q` is accumulated explicitly.
//! 2. **Implicit-shift QL** (`tql2`): plane rotations with a Wilkinson-type
//!    shift drive the subdiagonal of `T` to zero one eigenvalue at a time
//!    (convergence is cubic, typically one or two iterations each), and
//!    each rotation is applied to `Q`, whose columns become the
//!    eigenvectors.
//!
//! The whole solve costs O(n³), about 9n³ flops with eigenvectors (Golub
//! & Van Loan's count) — roughly the price of a single cyclic Jacobi sweep
//! (n²/2 rotations of ~18n flops each). Jacobi needs several sweeps, over
//! strided column pairs; on the 206×206 noisy covariance of the
//! high-dimensional workload it took about ten times as long. The cyclic
//! Jacobi method is therefore kept only as an independent test reference
//! (`tests/microkernels.rs`), against which this solver is property-tested.
//!
//! The solver is serial and fixed-order, so its output is a pure function
//! of the input bits. Eigenvector signs are arbitrary, as for any
//! symmetric eigensolver.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// QL iterations allowed per eigenvalue before giving up (the EISPACK
/// budget; with the implicit shift one or two iterations are typical).
const MAX_QL_ITERATIONS: usize = 30;

/// Result of a symmetric eigen-decomposition `A = V diag(λ) Vᵀ`.
///
/// Eigenvalues are sorted in descending order and `eigenvectors` stores the
/// corresponding eigenvectors as **columns**, so
/// `eigenvectors.col(i)` is the unit eigenvector for `eigenvalues[i]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose `i`-th column is the eigenvector for `eigenvalues[i]`.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Computes the eigen-decomposition of the symmetric matrix `a`.
    ///
    /// The input must be square and symmetric: the algorithm reads only the
    /// upper triangle (diagonal included), so callers should symmetrize
    /// noisy matrices first, e.g. with [`Matrix::symmetrize`].
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square inputs,
    /// [`LinalgError::Empty`] for a 0×0 input, [`LinalgError::NonFinite`]
    /// if any entry is NaN or infinite, and
    /// [`LinalgError::EigenNoConvergence`] if a QL iteration exhausts its
    /// budget (which does not happen for finite symmetric inputs of the
    /// sizes used here).
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty { op: "eigen" });
        }
        if let Some(index) = a.as_slice().iter().position(|x| !x.is_finite()) {
            return Err(LinalgError::NonFinite {
                op: "eigen",
                row: index / n,
                col: index % n,
            });
        }

        // Solve for a · 2^-k with 2^k ≤ max|aᵢⱼ| < 2^(k+1), then scale the
        // eigenvalues back. Every step below is homogeneous in the entries,
        // so an exact power-of-two scaling changes no rounding; it only
        // keeps products such as e[l]·e[l + 1] in the QL sweep from
        // overflowing (entries past ~1e154) or underflowing.
        let k = (((a.max_abs().to_bits() >> 52) & 0x7ff) as i64 - 1023).clamp(-1022, 1022);
        let down = power_of_two(-k);

        // Row `j` of `q` becomes column `j` of the orthogonal factor, so
        // every O(n³) loop below streams over contiguous rows.
        let mut q: Vec<f64> = a.as_slice().iter().map(|&x| x * down).collect();
        let mut d = vec![0.0; n];
        let mut e = vec![0.0; n];
        tridiagonalize(&mut q, &mut d, &mut e);
        diagonalize(&mut q, &mut d, &mut e)?;

        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| d[j].total_cmp(&d[i]));
        let up = power_of_two(k);
        let eigenvalues = order.iter().map(|&i| d[i] * up).collect();
        let eigenvectors = Matrix::from_fn(n, n, |row, col| q[order[col] * n + row]);
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Returns the top-`k` eigenvectors as a `d x k` matrix (columns are the
    /// leading eigenvectors). `k` is clamped to the matrix dimension.
    pub fn top_k_eigenvectors(&self, k: usize) -> Matrix {
        let d = self.eigenvectors.rows();
        let k = k.min(d);
        let idx: Vec<usize> = (0..k).collect();
        self.eigenvectors
            .select_cols(&idx)
            .expect("indices are in range by construction")
    }

    /// Fraction of total (absolute) variance explained by the top-`k`
    /// eigenvalues. Returns 1.0 when the spectrum sums to zero.
    pub fn explained_variance_ratio(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().map(|l| l.abs()).sum();
        if total == 0.0 {
            return 1.0;
        }
        let k = k.min(self.eigenvalues.len());
        self.eigenvalues[..k].iter().map(|l| l.abs()).sum::<f64>() / total
    }

    /// Reconstructs the original matrix `V diag(λ) Vᵀ` (useful for testing).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.eigenvalues.len();
        let lambda = Matrix::from_diagonal(&self.eigenvalues);
        let v = &self.eigenvectors;
        v.matmul(&lambda)
            .and_then(|m| m.matmul_transposed(v))
            .unwrap_or_else(|_| Matrix::zeros(n, n))
    }
}

/// `2^exponent` for an exponent in the normal range `-1022..=1023`.
fn power_of_two(exponent: i64) -> f64 {
    f64::from_bits(((exponent + 1023) as u64) << 52)
}

/// Householder reduction to symmetric tridiagonal form (EISPACK `tred2`).
///
/// `q` holds the `n x n` symmetric input, row-major, of which only the
/// upper triangle is read: EISPACK works on the lower triangle of its
/// column-major matrix, and `q` stores that matrix transposed. On return
/// `d` is the diagonal of `T`, `e[1..]` its subdiagonal (`e[0] = 0`), and
/// row `j` of `q` is column `j` of the orthogonal `Q` with `QᵀAQ = T`.
fn tridiagonalize(q: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = q[j * n + n - 1];
    }

    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow in the reflector norm.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = q[j * n + i - 1];
                q[j * n + i] = 0.0;
                q[i * n + j] = 0.0;
            }
        } else {
            // Generate the Householder vector in d[..i].
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let mut f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);

            // e = A·u over the leading i×i block, one stored triangle.
            for j in 0..i {
                f = d[j];
                q[i * n + j] = f;
                let col = &q[j * n..j * n + i];
                g = e[j] + col[j] * f;
                for ((&v, &dk), ek) in col[j + 1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i]) {
                    g += v * dk;
                    *ek += v * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej /= h;
                f += *ej * dj;
            }
            let hh = f / (h + h);
            for (ej, &dj) in e[..i].iter_mut().zip(&d[..i]) {
                *ej -= hh * dj;
            }
            // Rank-two update A ← A − u·pᵀ − p·uᵀ of the stored triangle.
            for j in 0..i {
                f = d[j];
                g = e[j];
                let col = &mut q[j * n + j..j * n + i];
                for ((v, &ek), &dk) in col.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *v -= f * ek + g * dk;
                }
                d[j] = q[j * n + i - 1];
                q[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }

    // Accumulate the reflections into Q.
    for i in 0..n - 1 {
        q[i * n + n - 1] = q[i * n + i];
        q[i * n + i] = 1.0;
        let h = d[i + 1];
        let (head, tail) = q.split_at_mut((i + 1) * n);
        let u = &mut tail[..=i];
        if h != 0.0 {
            for (dk, &uk) in d[..=i].iter_mut().zip(u.iter()) {
                *dk = uk / h;
            }
            for j in 0..=i {
                let col = &mut head[j * n..j * n + i + 1];
                let mut g = 0.0;
                for (&uk, &v) in u.iter().zip(col.iter()) {
                    g += uk * v;
                }
                for (v, &dk) in col.iter_mut().zip(&d[..=i]) {
                    *v -= g * dk;
                }
            }
        }
        u.fill(0.0);
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = q[j * n + n - 1];
        q[j * n + n - 1] = 0.0;
    }
    q[n * n - 1] = 1.0;
    e[0] = 0.0;
}

/// Diagonalizes the tridiagonal `(d, e)` from [`tridiagonalize`] by QL
/// iterations with an implicit shift (EISPACK `tql2`), rotating the rows
/// of `q` along. On return `d` holds the eigenvalues (unsorted) and row
/// `j` of `q` the unit eigenvector for `d[j]`.
fn diagonalize(q: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;

    let mut f = 0.0;
    let mut tst1: f64 = 0.0;
    for l in 0..n {
        // Find the first negligible subdiagonal element at or after l;
        // e[n - 1] is zero, so the search ends there at the latest.
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }

        // If m == l, d[l] is already an eigenvalue; otherwise iterate.
        // A NaN subdiagonal never counts as converged, so it runs out the
        // budget instead of leaking into the result.
        let mut converged = m == l;
        let mut iterations = 0;
        while !converged {
            iterations += 1;
            if iterations > MAX_QL_ITERATIONS {
                return Err(LinalgError::EigenNoConvergence {
                    off_diagonal: e[l].abs(),
                });
            }

            // Implicit shift from the leading 2×2 block.
            let mut g = d[l];
            let mut p = (d[l + 1] - g) / (2.0 * e[l]);
            let mut r = p.hypot(1.0);
            if p < 0.0 {
                r = -r;
            }
            d[l] = e[l] / (p + r);
            d[l + 1] = e[l] * (p + r);
            let dl1 = d[l + 1];
            let mut h = g - d[l];
            for di in &mut d[l + 2..] {
                *di -= h;
            }
            f += h;

            // One implicit QL sweep from m back up to l.
            p = d[m];
            let mut c = 1.0;
            let mut c2 = c;
            let mut c3 = c;
            let el1 = e[l + 1];
            let mut s = 0.0;
            let mut s2 = 0.0;
            for i in (l..m).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                g = c * e[i];
                h = c * p;
                r = p.hypot(e[i]);
                e[i + 1] = s * r;
                s = e[i] / r;
                c = p / r;
                p = c * d[i] - s * g;
                d[i + 1] = h + s * (c * g + s * d[i]);

                // Apply the rotation to rows i and i + 1 of q.
                let (head, tail) = q.split_at_mut((i + 1) * n);
                for (lo, hi) in head[i * n..].iter_mut().zip(&mut tail[..n]) {
                    let h = *hi;
                    *hi = s * *lo + c * h;
                    *lo = c * *lo - s * h;
                }
            }
            p = -s * s2 * c3 * el1 * e[l] / dl1;
            e[l] = s * p;
            d[l] = c * p;
            converged = e[l].abs() <= f64::EPSILON * tst1;
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_diagonal(&[3.0, 1.0, 2.0]);
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues[0], 3.0, 1e-12);
        assert_close(eig.eigenvalues[1], 2.0, 1e-12);
        assert_close(eig.eigenvalues[2], 1.0, 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues[0], 3.0, 1e-10);
        assert_close(eig.eigenvalues[1], 1.0, 1e-10);
        // Leading eigenvector is (1,1)/sqrt(2) up to sign.
        let v0 = eig.eigenvectors.col(0);
        assert_close(v0[0].abs(), 1.0 / 2.0_f64.sqrt(), 1e-8);
        assert_close(v0[1].abs(), 1.0 / 2.0_f64.sqrt(), 1e-8);
    }

    #[test]
    fn reconstruction_matches_input() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert!(eig.reconstruct().approx_eq(&m, 1e-8));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        let vtv = eig
            .eigenvectors
            .transpose()
            .matmul(&eig.eigenvectors)
            .unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    fn trace_equals_sum_of_eigenvalues() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 6.0, 0.0],
            vec![1.0, 0.0, 7.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues.iter().sum::<f64>(), m.trace(), 1e-9);
    }

    #[test]
    fn top_k_and_explained_variance() {
        let m = Matrix::from_diagonal(&[4.0, 3.0, 2.0, 1.0]);
        let eig = SymmetricEigen::new(&m).unwrap();
        let top2 = eig.top_k_eigenvectors(2);
        assert_eq!(top2.shape(), (4, 2));
        assert_close(eig.explained_variance_ratio(2), 7.0 / 10.0, 1e-12);
        assert_close(eig.explained_variance_ratio(10), 1.0, 1e-12);
        // Over-large k clamps.
        assert_eq!(eig.top_k_eigenvectors(100).shape(), (4, 4));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn rejects_nan_entries() {
        let mut m = Matrix::identity(100);
        m.set(3, 7, f64::NAN);
        m.set(7, 3, f64::NAN);
        assert_eq!(
            SymmetricEigen::new(&m).unwrap_err(),
            LinalgError::NonFinite {
                op: "eigen",
                row: 3,
                col: 7
            }
        );
    }

    #[test]
    fn rejects_infinite_entries() {
        for inf in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = Matrix::identity(4);
            m.set(2, 2, inf);
            assert_eq!(
                SymmetricEigen::new(&m).unwrap_err(),
                LinalgError::NonFinite {
                    op: "eigen",
                    row: 2,
                    col: 2
                }
            );
        }
    }

    #[test]
    fn extreme_magnitudes_scale_exactly() {
        // Scaling by 2^±900 is exact, so the decomposition must scale with
        // it bit for bit: no overflow at 1e270, no lost precision at 1e-271.
        let a = Matrix::from_fn(6, 6, |i, j| ((i * j + 3 * (i + j)) % 7) as f64 - 3.0);
        let base = SymmetricEigen::new(&a).unwrap();
        let huge = (0..900).fold(1.0, |x, _| x * 2.0);
        for factor in [huge, 1.0 / huge] {
            let eig = SymmetricEigen::new(&a.scale(factor)).unwrap();
            for (&got, &want) in eig.eigenvalues.iter().zip(&base.eigenvalues) {
                assert_eq!(got.to_bits(), (want * factor).to_bits());
            }
            assert_eq!(eig.eigenvectors.as_slice(), base.eigenvectors.as_slice());
        }
    }

    #[test]
    fn one_by_one() {
        let eig = SymmetricEigen::new(&Matrix::from_diagonal(&[-2.5])).unwrap();
        assert_eq!(eig.eigenvalues, vec![-2.5]);
        assert_eq!(eig.eigenvectors.as_slice(), &[1.0]);
    }

    #[test]
    fn handles_negative_eigenvalues() {
        // Noisy covariance matrices (after the Wishart/Gaussian mechanism)
        // can be indefinite; the solver must still work.
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues[0], 3.0, 1e-10);
        assert_close(eig.eigenvalues[1], -1.0, 1e-10);
    }

    #[test]
    fn zero_matrix_explained_variance_is_one() {
        let eig = SymmetricEigen::new(&Matrix::zeros(3, 3)).unwrap();
        assert_close(eig.explained_variance_ratio(1), 1.0, 1e-12);
    }

    #[test]
    fn larger_random_like_matrix() {
        // Deterministic "pseudo-random" symmetric matrix: A = B Bᵀ for a fixed B.
        let d = 12;
        let b = Matrix::from_fn(d, d, |i, j| ((i * 7 + j * 13) % 11) as f64 / 11.0 - 0.5);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.symmetrize();
        let eig = SymmetricEigen::new(&a).unwrap();
        // PSD: all eigenvalues >= -tol.
        assert!(eig.eigenvalues.iter().all(|&l| l > -1e-9));
        assert!(eig.reconstruct().approx_eq(&a, 1e-7));
    }
}
