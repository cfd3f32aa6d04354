//! Random samplers used by the DP mechanisms.
//!
//! Implemented directly on top of `rand`'s uniform generator so the
//! workspace does not need `rand_distr`:
//!
//! * standard normal via the Marsaglia polar method,
//! * Laplace via inverse-CDF,
//! * multivariate normal via a Cholesky factor.
//!
//! DP-PCA's Wishart noise is drawn by
//! [`crate::mechanisms::wishart_noise`]; the general Wishart sampler it
//! specializes is kept in the tests as its reference.

use p3gm_linalg::Cholesky;
#[cfg(test)]
use p3gm_linalg::Matrix;
use rand::Rng;

/// Draws one sample from the standard normal distribution `N(0, 1)` using
/// the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws one sample from `N(mean, std_dev²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Fills a vector with `n` i.i.d. samples from `N(0, std_dev²)`.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, std_dev: f64) -> Vec<f64> {
    (0..n).map(|_| std_dev * standard_normal(rng)).collect()
}

/// Draws one sample from the Laplace distribution with location 0 and the
/// given scale, via inverse-CDF sampling.
///
/// The boundary draw `u = -0.5` (which `gen_range(-0.5..0.5)` produces
/// with probability 2⁻⁵³ per call) would make `ln(1 − 2|u|) = ln 0 = −∞`
/// and return an infinite sample, corrupting the release it noises — so it
/// is rejected and redrawn. Every returned sample is finite.
pub fn laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    // u uniform in (-0.5, 0.5); Laplace = -scale * sign(u) * ln(1 - 2|u|).
    loop {
        let u: f64 = rng.gen_range(-0.5..0.5);
        let tail = 1.0 - 2.0 * u.abs();
        if tail > 0.0 {
            return -scale * u.signum() * tail.ln();
        }
    }
}

/// Draws one sample from the multivariate normal `N(mean, L Lᵀ)` given the
/// Cholesky factor `L` of the covariance, into `out`.
///
/// The standard normal draws `z` land in `out` first; `mean + L·z` is then
/// formed in place from the last entry up, so entry `i` still reads
/// `z[..=i]` and each entry sums `L[i][j]·z[j]` in increasing `j` order.
///
/// # Panics
/// Panics if `mean` or `out` is not `chol.dim()` long.
pub fn multivariate_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: &[f64],
    chol: &Cholesky,
    out: &mut [f64],
) {
    let d = chol.dim();
    assert!(
        mean.len() == d && out.len() == d,
        "multivariate_normal: mean and out must have the factor's dimension"
    );
    for z in out.iter_mut() {
        *z = standard_normal(rng);
    }
    let l = chol.lower();
    for i in (0..d).rev() {
        let mut acc = 0.0;
        for (&lij, &zj) in l.row(i)[..=i].iter().zip(&out[..=i]) {
            acc += lij * zj;
        }
        out[i] = mean[i] + acc;
    }
}

/// Draws a `d x d` sample from the Wishart distribution `W_d(df, scale)`
/// with **integer** degrees of freedom `df >= d`, where `scale = L Lᵀ`.
///
/// For integer degrees of freedom the Wishart is the distribution of
/// `Σ_{i=1}^{df} x_i x_iᵀ` with `x_i ~ N(0, scale)`. Test-only: it is the
/// reference that [`crate::mechanisms::wishart_noise`], DP-PCA's
/// `W_d(d + 1, λ I)` in one pass, must match bit for bit.
#[cfg(test)]
pub(crate) fn wishart<R: Rng + ?Sized>(rng: &mut R, df: usize, scale_chol: &Cholesky) -> Matrix {
    let d = scale_chol.dim();
    assert!(df >= d, "Wishart requires df >= dimension");
    let zeros = vec![0.0; d];
    let mut x = vec![0.0; d];
    let mut w = Matrix::zeros(d, d);
    for _ in 0..df {
        multivariate_normal(rng, &zeros, scale_chol, &mut x);
        for i in 0..d {
            for j in 0..d {
                let v = w.get(i, j) + x[i] * x[j];
                w.set(i, j, v);
            }
        }
    }
    w
}

/// Samples an index in `0..weights.len()` proportionally to the (unnormalized,
/// non-negative) weights. Returns `0` when all weights are zero.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return 0;
    }
    let mut u = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_scaling() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1);
        assert!((var - 4.0).abs() < 0.2);
    }

    #[test]
    fn laplace_moments() {
        let mut r = rng();
        let n = 40_000;
        let scale = 1.5;
        let samples: Vec<f64> = (0..n).map(|_| laplace(&mut r, scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Var of Laplace(0, b) is 2b².
        assert!((var - 2.0 * scale * scale).abs() < 0.3, "var {var}");
    }

    /// An RNG that emits a fixed prefix of raw bit patterns before falling
    /// back to a seeded stream — used to force boundary draws.
    struct ScriptedRng {
        script: Vec<u64>,
        next: usize,
        fallback: StdRng,
    }

    impl rand::RngCore for ScriptedRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            if self.next < self.script.len() {
                self.next += 1;
                self.script[self.next - 1]
            } else {
                rand::RngCore::next_u64(&mut self.fallback)
            }
        }
    }

    #[test]
    fn laplace_boundary_draw_is_rejected_not_infinite() {
        // next_u64() == 0 maps to exactly u = -0.5 in gen_range(-0.5..0.5),
        // the point where ln(1 - 2|u|) = -inf. The sampler must redraw.
        let mut scripted = ScriptedRng {
            script: vec![0, 0, 0],
            next: 0,
            fallback: rng(),
        };
        let sample = laplace(&mut scripted, 1.0);
        assert!(sample.is_finite(), "boundary draw leaked {sample}");
        // The scripted prefix was consumed: the sampler rejected all three
        // boundary draws before producing the finite sample.
        assert_eq!(scripted.next, 3);
    }

    #[test]
    fn laplace_long_stream_is_always_finite() {
        let mut r = rng();
        for scale in [1e-3, 1.0, 50.0] {
            for _ in 0..50_000 {
                let v = laplace(&mut r, scale);
                assert!(v.is_finite(), "non-finite Laplace sample {v}");
            }
        }
    }

    #[test]
    fn normal_vec_length() {
        assert_eq!(normal_vec(&mut rng(), 7, 1.0).len(), 7);
    }

    #[test]
    fn multivariate_normal_covariance() {
        let mut r = rng();
        // Covariance [[2, 0.8], [0.8, 1]].
        let cov = Matrix::from_rows(&[vec![2.0, 0.8], vec![0.8, 1.0]]).unwrap();
        let chol = Cholesky::new(&cov).unwrap();
        let mean = [1.0, -1.0];
        let n = 20_000;
        let mut sum = [0.0, 0.0];
        let mut cov_acc = [[0.0; 2]; 2];
        let samples: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let mut s = vec![0.0; 2];
                multivariate_normal(&mut r, &mean, &chol, &mut s);
                s
            })
            .collect();
        for s in &samples {
            sum[0] += s[0];
            sum[1] += s[1];
        }
        let m = [sum[0] / n as f64, sum[1] / n as f64];
        for s in &samples {
            for i in 0..2 {
                for j in 0..2 {
                    cov_acc[i][j] += (s[i] - m[i]) * (s[j] - m[j]);
                }
            }
        }
        for row in &mut cov_acc {
            for v in row.iter_mut() {
                *v /= n as f64;
            }
        }
        assert!((m[0] - 1.0).abs() < 0.05);
        assert!((m[1] + 1.0).abs() < 0.05);
        assert!((cov_acc[0][0] - 2.0).abs() < 0.15);
        assert!((cov_acc[0][1] - 0.8).abs() < 0.1);
        assert!((cov_acc[1][1] - 1.0).abs() < 0.1);
    }

    #[test]
    fn wishart_mean_is_df_times_scale() {
        let mut r = rng();
        let scale = Matrix::from_diagonal(&[0.5, 0.25]);
        let chol = Cholesky::new(&scale).unwrap();
        let df = 3;
        let trials = 3000;
        let mut acc = Matrix::zeros(2, 2);
        for _ in 0..trials {
            acc = acc.add(&wishart(&mut r, df, &chol)).unwrap();
        }
        let mean = acc.scale(1.0 / trials as f64);
        // E[W] = df * scale.
        assert!((mean.get(0, 0) - 1.5).abs() < 0.1, "{}", mean.get(0, 0));
        assert!((mean.get(1, 1) - 0.75).abs() < 0.06, "{}", mean.get(1, 1));
        assert!(mean.get(0, 1).abs() < 0.05);
    }

    #[test]
    fn wishart_samples_are_symmetric_psd() {
        let mut r = rng();
        let scale = Matrix::identity(3).scale(0.1);
        let chol = Cholesky::new(&scale).unwrap();
        let w = wishart(&mut r, 4, &chol);
        for i in 0..3 {
            for j in 0..3 {
                assert!((w.get(i, j) - w.get(j, i)).abs() < 1e-12);
            }
        }
        // PSD with probability 1 (df >= d): Cholesky with tiny jitter succeeds.
        assert!(Cholesky::new_with_jitter(&w, 1e-12, 4).is_ok());
    }

    #[test]
    #[should_panic(expected = "df >= dimension")]
    fn wishart_rejects_small_df() {
        let mut r = rng();
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        let _ = wishart(&mut r, 2, &chol);
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let weights = [0.0, 3.0, 1.0];
        let n = 20_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[categorical(&mut r, &weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
        // Degenerate weights fall back to index 0.
        assert_eq!(categorical(&mut r, &[0.0, 0.0]), 0);
    }
}
