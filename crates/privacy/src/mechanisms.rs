//! Differentially private mechanisms.
//!
//! * [`wishart_noise`] — the Wishart noise matrix of the DP-PCA mechanism
//!   (Jiang et al., used by the paper's Encoding Phase).
//! * [`exponential_mechanism`] — utility-based selection, used by the
//!   PrivBayes baseline to pick Bayesian-network edges.
//! * DP-SGD (paper §II-D): [`clip_factor`] is the clipping rule `ψ_C` every
//!   trainer applies per example. The Gaussian noise `N(0, σ²C²I)` comes in
//!   two halves: [`draw_gradient_noise`] draws it, which does not depend on
//!   the data, so the trainer draws it on the calling thread while the
//!   lot's clipped sum is computed in parallel, and [`GradientNoise::apply`]
//!   adds it to the sum and averages once the sum is known. The trainer
//!   forms that sum without materializing per-example gradients
//!   (`p3gm-nn`'s `clip_and_sum_batch`); [`privatize_gradient_sum`] runs
//!   the whole mechanism on a materialized `B x P` batch and is the
//!   reference for tests and benchmarks.
//!
//! The DP-EM mechanism adds its Gaussian noise inside `p3gm-mixture`, and
//! the DP-GM and PrivBayes baselines draw their Laplace noise from
//! [`crate::sampling::laplace`].

use crate::sampling;
use crate::{PrivacyError, Result};
use p3gm_linalg::{vector, Matrix};
use rand::Rng;

/// Samples the Wishart noise matrix of the DP-PCA mechanism (Jiang et al.,
/// paper §II-D): `W ~ W_d(d + 1, C)` where `C` has `d` equal eigenvalues
/// `λ = 3/(2 n ε)`.
///
/// `dim` is the data dimensionality `d`, `n` the number of records and
/// `epsilon` the DP-PCA budget ε_p. The returned matrix is added to the
/// (sensitivity-1-normalized) covariance to give an (ε_p, 0)-DP release.
///
/// `W` is the sum of `d + 1` outer products `x xᵀ` with `x ~ N(0, λ I)`.
/// Since `C` is a multiple of the identity, each sample is `√λ · z` for
/// `d` standard normals `z`, drawn in coordinate order. The upper triangle
/// accumulates the products in sample order and is then mirrored, which
/// is exact because `xᵢ xⱼ = xⱼ xᵢ`.
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
    let std_dev = (3.0 / (2.0 * n as f64 * epsilon)).sqrt();
    let mut w = Matrix::zeros(dim, dim);
    let mut x = vec![0.0; dim];
    for _ in 0..=dim {
        for xi in &mut x {
            *xi = std_dev * sampling::standard_normal(rng);
        }
        for (i, &xi) in x.iter().enumerate() {
            for (wij, &xj) in w.row_mut(i)[i..].iter_mut().zip(&x[i..]) {
                *wij += xi * xj;
            }
        }
    }
    for i in 1..dim {
        for j in 0..i {
            let upper = w.get(j, i);
            w.set(i, j, upper);
        }
    }
    Ok(w)
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
/// clipping the trainer uses (`p3gm-nn`'s `clip_and_sum_batch`), kept for
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
///    `batch_size` ([`draw_gradient_noise`], then [`GradientNoise::apply`]).
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
    let noise = draw_gradient_noise(rng, sum.len(), clip_norm, noise_multiplier, batch_size)?;
    Ok(noise.apply(sum))
}

/// Draws the DP-SGD noise for a clipped gradient sum of `dim`
/// coordinates: `N(0, (σ C)² I)`, serially in coordinate order, after
/// checking the parameters with [`validate_dp_sgd`]. With σ = 0 no
/// randomness is consumed.
///
/// The noise does not depend on the data, so a trainer may draw it before
/// or while it computes the sum it will be added to; the draws are the
/// same as long as they come from the same rng state.
pub fn draw_gradient_noise<R: Rng + ?Sized>(
    rng: &mut R,
    dim: usize,
    clip_norm: f64,
    noise_multiplier: f64,
    batch_size: usize,
) -> Result<GradientNoise> {
    validate_dp_sgd(clip_norm, noise_multiplier, batch_size)?;
    let noise_std = noise_multiplier * clip_norm;
    let noise = (noise_std > 0.0).then(|| {
        (0..dim)
            .map(|_| sampling::normal(rng, 0.0, noise_std))
            .collect()
    });
    Ok(GradientNoise { noise, batch_size })
}

/// One lot's DP-SGD noise, drawn by [`draw_gradient_noise`] and not yet
/// applied.
#[derive(Debug, Clone)]
pub struct GradientNoise {
    /// The noise vector; `None` when σ = 0.
    noise: Option<Vec<f64>>,
    batch_size: usize,
}

impl GradientNoise {
    /// Adds the noise to a clipped gradient sum and divides by the lot
    /// size, returning the privatized average gradient.
    ///
    /// # Panics
    /// Panics if the noise was drawn for a different number of
    /// coordinates than `clipped_sum` has.
    pub fn apply(self, mut clipped_sum: Vec<f64>) -> Vec<f64> {
        if let Some(noise) = self.noise {
            assert_eq!(
                noise.len(),
                clipped_sum.len(),
                "DP-SGD noise drawn for a different gradient length"
            );
            for (s, z) in clipped_sum.iter_mut().zip(&noise) {
                *s += z;
            }
        }
        vector::scale(1.0 / self.batch_size as f64, &mut clipped_sum);
        clipped_sum
    }
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
    fn wishart_noise_is_bit_identical_to_the_general_sampler() {
        use rand::RngCore;
        for (dim, n, eps) in [
            (206, 800, 0.1),
            (3, 10, 1.0),
            (17, 400, 0.1),
            (50, 1000, 0.5),
            (1, 1, 2.0),
            (2, 7, 0.3),
        ] {
            for seed in [1, 2] {
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let mut reference_rng = StdRng::seed_from_u64(seed);
                let fast = wishart_noise(&mut fast_rng, dim, n, eps).unwrap();
                let scale = Matrix::identity(dim).scale(3.0 / (2.0 * n as f64 * eps));
                let chol = p3gm_linalg::Cholesky::new(&scale).unwrap();
                let reference = sampling::wishart(&mut reference_rng, dim + 1, &chol);
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&reference), "d={dim} n={n} ε={eps}");
                assert_eq!(
                    fast_rng.next_u64(),
                    reference_rng.next_u64(),
                    "rng state after d={dim} n={n} ε={eps}"
                );
            }
        }
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
            assert!(draw_gradient_noise(&mut r, 1, bad, 1.42, 2).is_err());
            assert!(draw_gradient_noise(&mut r, 1, 1.0, bad, 2).is_err());
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
