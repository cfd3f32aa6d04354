//! Differentially private mechanisms.
//!
//! * [`LaplaceMechanism`] / [`GaussianMechanism`] — classic output
//!   perturbation for scalar- and vector-valued queries.
//! * [`wishart_noise`] — the Wishart noise matrix of the DP-PCA mechanism
//!   (Jiang et al., used by the paper's Encoding Phase).
//! * [`exponential_mechanism`] — utility-based selection, used by the
//!   PrivBayes baseline to pick Bayesian-network edges.
//! * DP-SGD (paper §II-D): [`clip_factor`] is the clipping rule `ψ_C` every
//!   trainer applies per example; [`noise_and_average`] adds `N(0, σ²C²I)`
//!   noise to a clipped sum and averages. The trainers form that sum
//!   without materializing per-example gradients (`p3gm-nn`'s
//!   `clip_and_sum_batch`); [`privatize_gradient_sum`] runs the whole
//!   mechanism on a materialized `B x P` batch and is the reference for
//!   tests and benchmarks.

use crate::sampling;
use crate::{PrivacyError, Result};
use p3gm_linalg::{vector, Cholesky, Matrix};
use rand::Rng;

/// The Laplace mechanism for releasing vector-valued queries with a known
/// L1 sensitivity under pure ε-DP.
#[derive(Debug, Clone, Copy)]
pub struct LaplaceMechanism {
    /// L1 sensitivity of the query.
    pub l1_sensitivity: f64,
    /// Privacy budget ε.
    pub epsilon: f64,
}

impl LaplaceMechanism {
    /// Creates the mechanism; both parameters must be positive.
    pub fn new(l1_sensitivity: f64, epsilon: f64) -> Result<Self> {
        if l1_sensitivity <= 0.0 || epsilon <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!(
                    "Laplace mechanism requires positive sensitivity and epsilon, got {l1_sensitivity}, {epsilon}"
                ),
            });
        }
        Ok(LaplaceMechanism {
            l1_sensitivity,
            epsilon,
        })
    }

    /// The noise scale `b = Δ₁/ε`.
    pub fn scale(&self) -> f64 {
        self.l1_sensitivity / self.epsilon
    }

    /// Adds Laplace noise to a scalar.
    pub fn randomize<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        value + sampling::laplace(rng, self.scale())
    }

    /// Adds i.i.d. Laplace noise to each coordinate of a vector.
    pub fn randomize_vec<R: Rng + ?Sized>(&self, rng: &mut R, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .map(|&v| v + sampling::laplace(rng, self.scale()))
            .collect()
    }
}

/// The Gaussian mechanism for releasing vector-valued queries with a known
/// L2 sensitivity under (ε, δ)- or Rényi-DP.
#[derive(Debug, Clone, Copy)]
pub struct GaussianMechanism {
    /// L2 sensitivity of the query.
    pub l2_sensitivity: f64,
    /// Standard deviation of the added noise (already scaled by the
    /// sensitivity, i.e. the noise is `N(0, (σ·Δ₂)²)` per coordinate when
    /// constructed via [`GaussianMechanism::from_multiplier`]).
    pub std_dev: f64,
}

impl GaussianMechanism {
    /// Creates a mechanism adding `N(0, std_dev²)` noise per coordinate.
    pub fn new(l2_sensitivity: f64, std_dev: f64) -> Result<Self> {
        if l2_sensitivity <= 0.0 || std_dev <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!(
                    "Gaussian mechanism requires positive sensitivity and std-dev, got {l2_sensitivity}, {std_dev}"
                ),
            });
        }
        Ok(GaussianMechanism {
            l2_sensitivity,
            std_dev,
        })
    }

    /// Creates a mechanism from a noise *multiplier* σ, i.e. the added noise
    /// has standard deviation `σ · Δ₂` (the DP-SGD convention).
    pub fn from_multiplier(l2_sensitivity: f64, multiplier: f64) -> Result<Self> {
        Self::new(l2_sensitivity, multiplier * l2_sensitivity)
    }

    /// Adds Gaussian noise to a scalar.
    pub fn randomize<R: Rng + ?Sized>(&self, rng: &mut R, value: f64) -> f64 {
        value + sampling::normal(rng, 0.0, self.std_dev)
    }

    /// Adds i.i.d. Gaussian noise to each coordinate of a vector.
    pub fn randomize_vec<R: Rng + ?Sized>(&self, rng: &mut R, values: &[f64]) -> Vec<f64> {
        values
            .iter()
            .map(|&v| v + sampling::normal(rng, 0.0, self.std_dev))
            .collect()
    }

    /// Adds i.i.d. Gaussian noise to every entry of a matrix, then
    /// symmetrizes it (the DP-EM covariance update perturbs a symmetric
    /// matrix, and re-symmetrizing is a post-processing step).
    pub fn randomize_symmetric_matrix<R: Rng + ?Sized>(&self, rng: &mut R, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                let v = out.get(i, j) + sampling::normal(rng, 0.0, self.std_dev);
                out.set(i, j, v);
            }
        }
        if out.rows() == out.cols() {
            out.symmetrize();
        }
        out
    }
}

/// Convenience wrapper: adds `N(0, σ²)` noise to each coordinate.
pub fn gaussian_mechanism_vec<R: Rng + ?Sized>(
    rng: &mut R,
    values: &[f64],
    std_dev: f64,
) -> Vec<f64> {
    values
        .iter()
        .map(|&v| v + sampling::normal(rng, 0.0, std_dev))
        .collect()
}

/// Convenience wrapper: adds Laplace(0, scale) noise to each coordinate.
pub fn laplace_mechanism_vec<R: Rng + ?Sized>(rng: &mut R, values: &[f64], scale: f64) -> Vec<f64> {
    values
        .iter()
        .map(|&v| v + sampling::laplace(rng, scale))
        .collect()
}

/// Samples the Wishart noise matrix of the DP-PCA mechanism (Jiang et al.,
/// paper §II-D): `W ~ W_d(d + 1, C)` where `C` has `d` equal eigenvalues
/// `3/(2 n ε)`.
///
/// `dim` is the data dimensionality `d`, `n` the number of records and
/// `epsilon` the DP-PCA budget ε_p. The returned matrix is added to the
/// (sensitivity-1-normalized) covariance to give an (ε_p, 0)-DP release.
pub fn wishart_noise<R: Rng + ?Sized>(
    rng: &mut R,
    dim: usize,
    n: usize,
    epsilon: f64,
) -> Result<Matrix> {
    if dim == 0 || n == 0 {
        return Err(PrivacyError::InvalidParameter {
            msg: "wishart_noise requires positive dimension and sample count".to_string(),
        });
    }
    if epsilon <= 0.0 {
        return Err(PrivacyError::InvalidParameter {
            msg: format!("epsilon must be positive, got {epsilon}"),
        });
    }
    let eigenvalue = 3.0 / (2.0 * n as f64 * epsilon);
    let scale = Matrix::identity(dim).scale(eigenvalue);
    let chol = Cholesky::new(&scale).map_err(|e| PrivacyError::InvalidParameter {
        msg: format!("failed to factor Wishart scale matrix: {e}"),
    })?;
    Ok(sampling::wishart(rng, dim + 1, &chol))
}

/// The exponential mechanism: selects an index in `0..utilities.len()` with
/// probability proportional to `exp(ε · u_i / (2 Δu))`.
///
/// Used by the PrivBayes baseline to choose attribute-parent pairs by
/// (noisy) mutual information.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    rng: &mut R,
    utilities: &[f64],
    sensitivity: f64,
    epsilon: f64,
) -> Result<usize> {
    if utilities.is_empty() {
        return Err(PrivacyError::InvalidParameter {
            msg: "exponential mechanism needs at least one candidate".to_string(),
        });
    }
    if sensitivity <= 0.0 || epsilon <= 0.0 {
        return Err(PrivacyError::InvalidParameter {
            msg: format!(
                "exponential mechanism requires positive sensitivity and epsilon, got {sensitivity}, {epsilon}"
            ),
        });
    }
    // Work in log-space and subtract the max for numerical stability.
    let scores: Vec<f64> = utilities
        .iter()
        .map(|&u| epsilon * u / (2.0 * sensitivity))
        .collect();
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
    Ok(sampling::categorical(rng, &weights))
}

/// The clipping rule `ψ_C` of DP-SGD for one example whose gradient has
/// L2 norm `norm`: `Some(C / norm)` when the norm exceeds `clip_norm` (the
/// example is clipped), `None` when the gradient already lies in the ball
/// and is kept as is. Every DP-SGD path in the workspace clips through
/// this one rule.
#[inline]
pub fn clip_factor(norm: f64, clip_norm: f64) -> Option<f64> {
    (norm > clip_norm && norm > 0.0).then(|| clip_norm / norm)
}

/// Clips every row of a per-example gradient batch (`B x P`, one gradient
/// per row) to L2 norm at most `clip_norm` and sums the clipped rows.
///
/// Row chunks are clipped and summed in parallel; the per-chunk partial
/// sums are folded in chunk order, so the result is bit-identical for every
/// thread count. This is the materialized reference for the factored
/// clipping the trainers use (`p3gm-nn`'s `clip_and_sum_batch`), kept for
/// tests and benchmarks; it consumes no randomness.
pub fn clip_and_sum_gradients(per_example: &Matrix, clip_norm: f64) -> Vec<f64> {
    clip_and_sum_gradients_counted(per_example, clip_norm).0
}

/// Like [`clip_and_sum_gradients`], additionally returning how many rows
/// were actually clipped (norm strictly above `clip_norm`).
///
/// The count is a deterministic function of the batch (clipping is decided
/// per row, counts fold in chunk order with the partial sums), so it is
/// identical for every thread count. It is telemetry only, computed in the
/// same fused pass and never fed back into the mechanism.
pub fn clip_and_sum_gradients_counted(per_example: &Matrix, clip_norm: f64) -> (Vec<f64>, u64) {
    let dim = per_example.cols();
    let chunk_len = p3gm_parallel::default_chunk_len(per_example.rows());
    p3gm_parallel::par_map_reduce(
        per_example.rows(),
        chunk_len,
        |range| {
            // Fused clip-and-accumulate: the squared norm comes from the
            // lane-folded kernel (4 fixed-order partial accumulators, see
            // `vector::dot_lanes`), then the row is scaled directly into
            // the partial sum — no per-row scratch copy.
            let mut partial = vec![0.0; dim];
            let mut clipped = 0u64;
            for i in range {
                let row = per_example.row(i);
                let factor = match clip_factor(vector::norm2_squared_lanes(row).sqrt(), clip_norm) {
                    Some(factor) => {
                        clipped += 1;
                        factor
                    }
                    None => 1.0,
                };
                vector::axpy(factor, row, &mut partial);
            }
            (partial, clipped)
        },
        |(mut a, ca), (b, cb)| {
            vector::axpy(1.0, &b, &mut a);
            (a, ca + cb)
        },
    )
    .unwrap_or_else(|| (vec![0.0; dim], 0))
}

/// Checks the DP-SGD parameters: a positive, finite clip norm `C`, a
/// non-negative, finite noise multiplier σ and a positive lot size.
/// Non-finite values must be rejected explicitly: every comparison with
/// NaN is false, so a NaN `C` would silently disable clipping and a NaN σ
/// the noise.
pub fn validate_dp_sgd(clip_norm: f64, noise_multiplier: f64, batch_size: usize) -> Result<()> {
    let valid = clip_norm.is_finite()
        && clip_norm > 0.0
        && noise_multiplier.is_finite()
        && noise_multiplier >= 0.0
        && batch_size > 0;
    if !valid {
        return Err(PrivacyError::InvalidParameter {
            msg: format!(
                "invalid DP-SGD parameters: clip_norm={clip_norm}, noise_multiplier={noise_multiplier}, batch_size={batch_size}"
            ),
        });
    }
    Ok(())
}

/// Privatizes a batch of per-example gradients as in DP-SGD (paper §II-D):
///
/// 1. clip each gradient (row of the `B x P` batch) to L2 norm at most
///    `clip_norm` (ψ_C),
/// 2. sum the clipped gradients ([`clip_and_sum_gradients`], parallel and
///    deterministic),
/// 3. add `N(0, (σ C)² I)` noise to the sum and divide by the *lot size*
///    `batch_size` ([`noise_and_average`]).
///
/// Returns the privatized average gradient. `batch_size` may exceed
/// `per_example.rows()` (Poisson-style sampling can produce small lots); it
/// must be positive.
pub fn privatize_gradient_sum<R: Rng + ?Sized>(
    rng: &mut R,
    per_example: &Matrix,
    clip_norm: f64,
    noise_multiplier: f64,
    batch_size: usize,
) -> Result<Vec<f64>> {
    if per_example.rows() == 0 || per_example.cols() == 0 {
        return Err(PrivacyError::InvalidParameter {
            msg: "privatize_gradient_sum needs at least one non-empty gradient".to_string(),
        });
    }
    validate_dp_sgd(clip_norm, noise_multiplier, batch_size)?;
    let sum = clip_and_sum_gradients(per_example, clip_norm);
    noise_and_average(rng, sum, clip_norm, noise_multiplier, batch_size)
}

/// The noise half of DP-SGD on a sum of gradients each already clipped to
/// L2 norm at most `clip_norm`: adds `N(0, (σ C)² I)` noise, drawn
/// serially in coordinate order, then divides by the lot size
/// `batch_size`. With σ = 0 no randomness is consumed.
pub fn noise_and_average<R: Rng + ?Sized>(
    rng: &mut R,
    mut clipped_sum: Vec<f64>,
    clip_norm: f64,
    noise_multiplier: f64,
    batch_size: usize,
) -> Result<Vec<f64>> {
    validate_dp_sgd(clip_norm, noise_multiplier, batch_size)?;
    let noise_std = noise_multiplier * clip_norm;
    if noise_std > 0.0 {
        for s in &mut clipped_sum {
            *s += sampling::normal(rng, 0.0, noise_std);
        }
    }
    vector::scale(1.0 / batch_size as f64, &mut clipped_sum);
    Ok(clipped_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn laplace_mechanism_noise_scale() {
        let mech = LaplaceMechanism::new(2.0, 0.5).unwrap();
        assert!((mech.scale() - 4.0).abs() < 1e-12);
        let mut r = rng();
        let n = 30_000;
        let vals: Vec<f64> = (0..n).map(|_| mech.randomize(&mut r, 10.0)).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.15);
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!((var - 2.0 * 16.0).abs() < 3.0, "var {var}");
        assert_eq!(mech.randomize_vec(&mut r, &[1.0, 2.0]).len(), 2);
    }

    #[test]
    fn gaussian_mechanism_noise_scale() {
        let mech = GaussianMechanism::from_multiplier(2.0, 1.5).unwrap();
        assert!((mech.std_dev - 3.0).abs() < 1e-12);
        let mut r = rng();
        let n = 30_000;
        let vals: Vec<f64> = (0..n).map(|_| mech.randomize(&mut r, 0.0)).collect();
        let var = vals.iter().map(|v| v * v).sum::<f64>() / n as f64;
        assert!((var - 9.0).abs() < 0.4, "var {var}");
    }

    #[test]
    fn gaussian_symmetric_matrix_stays_symmetric() {
        let mech = GaussianMechanism::new(1.0, 0.5).unwrap();
        let mut r = rng();
        let m = Matrix::identity(4);
        let noisy = mech.randomize_symmetric_matrix(&mut r, &m);
        for i in 0..4 {
            for j in 0..4 {
                assert!((noisy.get(i, j) - noisy.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mechanism_constructors_validate() {
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(GaussianMechanism::new(1.0, 0.0).is_err());
        assert!(GaussianMechanism::new(-1.0, 1.0).is_err());
    }

    #[test]
    fn wishart_noise_shape_and_scale() {
        let mut r = rng();
        let dim = 3;
        let n = 100;
        let eps = 0.5;
        let trials = 2000;
        let mut acc = Matrix::zeros(dim, dim);
        for _ in 0..trials {
            acc = acc
                .add(&wishart_noise(&mut r, dim, n, eps).unwrap())
                .unwrap();
        }
        let mean = acc.scale(1.0 / trials as f64);
        // E[W] = df * C = (d+1) * 3/(2 n ε) I = 4 * 0.03 I = 0.12 I.
        let expected = (dim as f64 + 1.0) * 3.0 / (2.0 * n as f64 * eps);
        for i in 0..dim {
            assert!(
                (mean.get(i, i) - expected).abs() < expected * 0.25,
                "diag {} vs {expected}",
                mean.get(i, i)
            );
        }
        assert!(wishart_noise(&mut r, 0, 10, 1.0).is_err());
        assert!(wishart_noise(&mut r, 3, 0, 1.0).is_err());
        assert!(wishart_noise(&mut r, 3, 10, 0.0).is_err());
    }

    #[test]
    fn exponential_mechanism_prefers_high_utility() {
        let mut r = rng();
        let utilities = [0.0, 0.0, 5.0];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[exponential_mechanism(&mut r, &utilities, 1.0, 2.0).unwrap()] += 1;
        }
        assert!(counts[2] > 4000, "counts {counts:?}");
        // With a tiny epsilon the choice is near-uniform.
        let mut uniform_counts = [0usize; 3];
        for _ in 0..6000 {
            uniform_counts[exponential_mechanism(&mut r, &utilities, 1.0, 1e-6).unwrap()] += 1;
        }
        assert!(
            uniform_counts.iter().all(|&c| c > 1500),
            "{uniform_counts:?}"
        );
    }

    #[test]
    fn exponential_mechanism_validates() {
        let mut r = rng();
        assert!(exponential_mechanism(&mut r, &[], 1.0, 1.0).is_err());
        assert!(exponential_mechanism(&mut r, &[1.0], 0.0, 1.0).is_err());
        assert!(exponential_mechanism(&mut r, &[1.0], 1.0, 0.0).is_err());
    }

    #[test]
    fn privatize_gradient_sum_no_noise_is_clipped_average() {
        let mut r = rng();
        let grads = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.3, 0.4]]).unwrap();
        // clip_norm = 1: first gradient has norm 5 → scaled to (0.6, 0.8);
        // second has norm 0.5 → unchanged. Sum = (0.9, 1.2); / B=2 → (0.45, 0.6).
        let out = privatize_gradient_sum(&mut r, &grads, 1.0, 0.0, 2).unwrap();
        assert!((out[0] - 0.45).abs() < 1e-12);
        assert!((out[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn privatize_gradient_sum_noise_has_expected_scale() {
        let mut r = rng();
        let grads = Matrix::zeros(8, 4);
        let clip = 2.0;
        let sigma = 1.5;
        let b = 8;
        let trials = 4000;
        let mut acc = 0.0;
        for _ in 0..trials {
            let out = privatize_gradient_sum(&mut r, &grads, clip, sigma, b).unwrap();
            acc += out.iter().map(|x| x * x).sum::<f64>() / out.len() as f64;
        }
        let var = acc / trials as f64;
        // Per coordinate: N(0, (σC)²)/B → variance (σC/B)².
        let expected = (sigma * clip / b as f64).powi(2);
        assert!(
            (var - expected).abs() < expected * 0.2,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn privatize_gradient_sum_validates() {
        let mut r = rng();
        let one = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(privatize_gradient_sum(&mut r, &Matrix::zeros(0, 1), 1.0, 1.0, 1).is_err());
        assert!(privatize_gradient_sum(&mut r, &one, 0.0, 1.0, 1).is_err());
        assert!(privatize_gradient_sum(&mut r, &one, 1.0, -1.0, 1).is_err());
        assert!(privatize_gradient_sum(&mut r, &one, 1.0, 1.0, 0).is_err());
        // NaN fails every comparison: without explicit checks a NaN clip
        // norm returned the plain average and a NaN σ skipped the noise.
        let grads = Matrix::from_rows(&[vec![30.0, 40.0], vec![3.0, 4.0]]).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(privatize_gradient_sum(&mut r, &grads, bad, 1.42, 2).is_err());
            assert!(privatize_gradient_sum(&mut r, &grads, 1.0, bad, 2).is_err());
            assert!(noise_and_average(&mut r, vec![1.0], bad, 1.42, 2).is_err());
            assert!(noise_and_average(&mut r, vec![1.0], 1.0, bad, 2).is_err());
        }
    }

    #[test]
    fn clip_and_sum_is_bit_identical_across_thread_counts() {
        let grads = Matrix::from_fn(150, 37, |i, j| ((i * 13 + j * 7) % 23) as f64 * 0.11 - 1.2);
        let reference = p3gm_parallel::with_threads(1, || clip_and_sum_gradients(&grads, 0.9));
        for threads in [2, 4, 8] {
            let sum = p3gm_parallel::with_threads(threads, || clip_and_sum_gradients(&grads, 0.9));
            assert_eq!(sum, reference);
        }
    }
}
