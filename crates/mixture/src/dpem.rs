//! DP-EM: differentially private expectation-maximization for a mixture of
//! Gaussians (Park et al., used by P3GM's Encoding Phase, paper §II-D).
//!
//! Each M-step releases `2K + 1` quantities — the weight vector, the `K`
//! means and the `K` covariance matrices — through the Gaussian mechanism.
//! Following the paper, the per-release sensitivity is bounded by clipping
//! every data row to the unit L2 ball, which makes each normalized statistic
//! change by at most `≈ 2/N` when one record changes; the noise added to a
//! statistic is `N(0, (σ_e · Δ)²)` where `σ_e` is the *noise multiplier*
//! that enters the moments bound of paper Eq. (3) and `Δ` the sensitivity.
//!
//! The privacy cost of a run with `T_e` iterations is accounted by
//! `p3gm_privacy::RdpAccountant::add_dp_em(T_e, σ_e, K)`.
//!
//! An iteration is the two parallel passes of [`crate::em`]: pass A
//! yields the responsibilities with the weight and mean statistics, then
//! the weights and means are released; pass B sums the scatter around the
//! released means, then the covariances are released. The noise is drawn
//! serially from the caller's rng between the passes, in the order weights,
//! means, covariances, so the rng stream is independent of the thread
//! count. Each released model's pass A gives its log-likelihood for the
//! trace and the next iteration's statistics, so `T_e` iterations make
//! `2T_e + 1` passes, counting the one on the initial model.

use crate::em::{e_step, initial_parameters, validate, weighted_scatter_sums, EmConfig};
use crate::gmm::Gmm;
use crate::kmeans::{kmeans, KMeansConfig};
use crate::{MixtureError, Result};
use p3gm_linalg::{vector, Matrix};
use p3gm_privacy::sampling;
use rand::Rng;

/// Configuration of a DP-EM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpEmConfig {
    /// Number of mixture components `K`.
    pub n_components: usize,
    /// Number of (noisy) EM iterations `T_e`. Every iteration consumes
    /// privacy budget, so this is fixed in advance rather than driven by a
    /// convergence test.
    pub iterations: usize,
    /// Noise multiplier `σ_e` of paper Eq. (3).
    pub sigma_e: f64,
    /// Diagonal regularization added to every covariance update.
    pub covariance_regularization: f64,
    /// Rows are clipped to this L2 norm before fitting (the sensitivity
    /// bound assumes it). The paper clips to 1.
    pub clip_norm: f64,
}

impl Default for DpEmConfig {
    fn default() -> Self {
        DpEmConfig {
            n_components: 3,
            iterations: 20,
            sigma_e: 100.0,
            covariance_regularization: 1e-4,
            clip_norm: 1.0,
        }
    }
}

/// Result of a DP-EM run.
#[derive(Debug, Clone)]
pub struct DpEmResult {
    /// The fitted (privatized) mixture model.
    pub model: Gmm,
    /// Mean log-likelihood of the clipped data after each iteration, a
    /// diagnostic. It is evaluated on the private rows, not derived from
    /// the noised releases alone, so the privacy charge of the fit does not
    /// cover it.
    pub log_likelihood_trace: Vec<f64>,
    /// The number of iterations performed (equals the configured value).
    pub iterations: usize,
}

/// Fits a Gaussian mixture under differential privacy.
///
/// `data` rows are clipped to `config.clip_norm` before fitting. The
/// initialization uses **non-private k-means on clipped data**; in the P3GM
/// pipeline the input to DP-EM is the output of DP-PCA (already private), and
/// the initialization budget is accounted for by the caller via the DP-EM
/// iterations themselves in the paper's analysis — we keep the same
/// structure and note it here.
pub fn fit<R: Rng + ?Sized>(rng: &mut R, data: &Matrix, config: &DpEmConfig) -> Result<DpEmResult> {
    let em_cfg = EmConfig {
        n_components: config.n_components,
        max_iters: config.iterations,
        tolerance: 0.0,
        covariance_regularization: config.covariance_regularization,
    };
    validate(data, &em_cfg)?;
    // A NaN passes `x <= 0.0`, and ±∞ would poison every statistic, so
    // finiteness is checked explicitly.
    let positive = |x: f64| x > 0.0 && x.is_finite();
    if !positive(config.sigma_e) || !positive(config.clip_norm) {
        return Err(MixtureError::InvalidParameter {
            msg: format!(
                "sigma_e and clip_norm must be positive and finite, got {} and {}",
                config.sigma_e, config.clip_norm
            ),
        });
    }
    if config.iterations == 0 {
        return Err(MixtureError::InvalidParameter {
            msg: "DP-EM needs at least one iteration".to_string(),
        });
    }

    let k = config.n_components;
    let d = data.cols();
    let n = data.rows();

    // Clip rows to the unit (clip_norm) ball so the sensitivity bound holds.
    let clipped = clip_rows(data, config.clip_norm);

    // Sensitivity of the normalized statistics when one record changes:
    // each mean / covariance entry / weight is an average of N bounded
    // contributions, so replacing one record moves it by at most ~2*c/N
    // (c = clip_norm, and c^2 for second moments with c <= 1 -> still <= 2c/N
    // in the regimes used here). We use the conservative bound 2*c/N.
    let sensitivity = 2.0 * config.clip_norm / n as f64;
    let noise_std = config.sigma_e * sensitivity;

    // Initialization from k-means on the clipped data.
    let km = kmeans(
        rng,
        &clipped,
        &KMeansConfig {
            k,
            max_iters: 20,
            tolerance: 1e-4,
        },
    )?;
    let (mut weights, mut means, mut covariances) = initial_parameters(
        &clipped,
        &km.assignments,
        k,
        config.covariance_regularization,
    );

    let mut model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
    let mut trace = Vec::with_capacity(config.iterations);
    let mut resp = Matrix::zeros(n, k);
    // Pass A on the initial model: the first M-step's statistics. The
    // E-step has no privacy cost: responsibilities are internal.
    let mut stats = e_step(&model, &clipped, &mut resp);

    for _ in 0..config.iterations {
        // M-step with Gaussian-mechanism noise on each released statistic.
        // The clean statistics come from the deterministic chunked passes;
        // noise is drawn serially from the caller's rng between them, so
        // the rng consumption order is thread-independent.
        let nk: Vec<f64> = stats.resp_sums.iter().map(|&s| s.max(1e-10)).collect();

        // Weights (one release).
        for c in 0..k {
            weights[c] = (nk[c] / n as f64 + sampling::normal(rng, 0.0, noise_std)).max(1e-4);
        }

        // Means (one release per component).
        for (c, &nkc) in nk.iter().enumerate() {
            let mean = means.row_mut(c);
            mean.copy_from_slice(stats.mean_sums.row(c));
            vector::scale(1.0 / nkc, mean);
            for m in mean.iter_mut() {
                *m += sampling::normal(rng, 0.0, noise_std);
            }
        }

        // Covariances (one release per component), around the *noisy* means
        // just released: pass B.
        let scatter = weighted_scatter_sums(&clipped, &resp, &means);
        for (c, sum) in scatter.into_iter().enumerate() {
            let mut cov = sum.scale(1.0 / nk[c]);
            for i in 0..d {
                for j in i..d {
                    let noise = sampling::normal(rng, 0.0, noise_std);
                    let v = cov.get(i, j) + noise;
                    cov.set(i, j, v);
                    cov.set(j, i, v);
                }
            }
            cov.add_diagonal(config.covariance_regularization);
            covariances[c] = cov;
        }

        model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
        // The released model's pass A: its log-likelihood for the trace
        // and the next iteration's statistics.
        stats = e_step(&model, &clipped, &mut resp);
        trace.push(stats.log_likelihood);
    }

    Ok(DpEmResult {
        model,
        log_likelihood_trace: trace,
        iterations: config.iterations,
    })
}

/// Returns a copy of `data` with every row clipped to L2 norm `clip_norm`.
pub fn clip_rows(data: &Matrix, clip_norm: f64) -> Matrix {
    let mut out = data.clone();
    for i in 0..out.rows() {
        vector::clip_norm(out.row_mut(i), clip_norm);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::em::reference;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`fit`] as the nine kernels per iteration it ran before the
    /// two-pass fusion, with the same noise draws in the same order.
    fn fit_reference<R: Rng + ?Sized>(
        rng: &mut R,
        data: &Matrix,
        config: &DpEmConfig,
    ) -> Result<DpEmResult> {
        let k = config.n_components;
        let d = data.cols();
        let n = data.rows();
        let clipped = clip_rows(data, config.clip_norm);
        let noise_std = config.sigma_e * (2.0 * config.clip_norm / n as f64);
        let km = kmeans(
            rng,
            &clipped,
            &KMeansConfig {
                k,
                max_iters: 20,
                tolerance: 1e-4,
            },
        )?;
        let (mut weights, mut means, mut covariances) = initial_parameters(
            &clipped,
            &km.assignments,
            k,
            config.covariance_regularization,
        );
        let mut model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
        let mut trace = Vec::new();
        for _ in 0..config.iterations {
            let resp = reference::responsibilities(&model, &clipped);
            let nk: Vec<f64> = resp.column_sums().iter().map(|&s| s.max(1e-10)).collect();
            for c in 0..k {
                weights[c] = (nk[c] / n as f64 + sampling::normal(rng, 0.0, noise_std)).max(1e-4);
            }
            let mean_sums = reference::weighted_mean_sums(&clipped, &resp);
            for (c, &nkc) in nk.iter().enumerate() {
                let mean = means.row_mut(c);
                mean.copy_from_slice(mean_sums.row(c));
                vector::scale(1.0 / nkc, mean);
                for m in mean.iter_mut() {
                    *m += sampling::normal(rng, 0.0, noise_std);
                }
            }
            let scatter = weighted_scatter_sums(&clipped, &resp, &means);
            for (c, sum) in scatter.into_iter().enumerate() {
                let mut cov = sum.scale(1.0 / nk[c]);
                for i in 0..d {
                    for j in i..d {
                        let v = cov.get(i, j) + sampling::normal(rng, 0.0, noise_std);
                        cov.set(i, j, v);
                        cov.set(j, i, v);
                    }
                }
                cov.add_diagonal(config.covariance_regularization);
                covariances[c] = cov;
            }
            model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
            trace.push(reference::mean_log_likelihood(&model, &clipped));
        }
        Ok(DpEmResult {
            model,
            log_likelihood_trace: trace,
            iterations: config.iterations,
        })
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    /// Two separated blobs inside the unit ball.
    fn unit_ball_blobs(rng: &mut StdRng, per: usize) -> Matrix {
        let truth = Gmm::isotropic(
            vec![0.5, 0.5],
            Matrix::from_rows(&[vec![-0.5, 0.0], vec![0.5, 0.2]]).unwrap(),
            0.01,
        )
        .unwrap();
        truth.sample_n(rng, per * 2)
    }

    #[test]
    fn clip_rows_limits_norms() {
        let data = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.1, 0.1]]).unwrap();
        let clipped = clip_rows(&data, 1.0);
        assert!((vector::norm2(clipped.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(clipped.row(1), &[0.1, 0.1]);
    }

    #[test]
    fn with_negligible_noise_recovers_components() {
        let mut r = rng();
        let data = unit_ball_blobs(&mut r, 400);
        let res = fit(
            &mut r,
            &data,
            &DpEmConfig {
                n_components: 2,
                iterations: 15,
                sigma_e: 1e-6, // effectively non-private
                covariance_regularization: 1e-6,
                clip_norm: 1.0,
            },
        )
        .unwrap();
        let mut means = res.model.means().to_rows();
        means.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!((means[0][0] + 0.5).abs() < 0.1, "{:?}", means[0]);
        assert!((means[1][0] - 0.5).abs() < 0.1, "{:?}", means[1]);
        assert_eq!(res.iterations, 15);
        assert_eq!(res.log_likelihood_trace.len(), 15);
    }

    #[test]
    fn realistic_noise_still_yields_usable_model() {
        let mut r = rng();
        let data = unit_ball_blobs(&mut r, 500);
        // sigma_e = 100 with N = 1000 → noise std = 100 * 2/1000 = 0.2,
        // comparable to the component separation; the model should still
        // beat a single wide Gaussian in likelihood.
        let res = fit(
            &mut r,
            &data,
            &DpEmConfig {
                n_components: 2,
                iterations: 10,
                sigma_e: 100.0,
                covariance_regularization: 1e-3,
                clip_norm: 1.0,
            },
        )
        .unwrap();
        let baseline = Gmm::isotropic(
            vec![1.0],
            Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap(),
            1.0,
        )
        .unwrap();
        let clipped = clip_rows(&data, 1.0);
        assert!(
            res.model.mean_log_likelihood(&clipped) > baseline.mean_log_likelihood(&clipped),
            "noisy model should still beat a unit Gaussian"
        );
    }

    #[test]
    fn more_noise_means_worse_fit() {
        let mut r = rng();
        let data = unit_ball_blobs(&mut r, 500);
        let fit_with = |r: &mut StdRng, sigma_e: f64| {
            fit(
                r,
                &data,
                &DpEmConfig {
                    n_components: 2,
                    iterations: 10,
                    sigma_e,
                    covariance_regularization: 1e-3,
                    clip_norm: 1.0,
                },
            )
            .unwrap()
        };
        let clipped = clip_rows(&data, 1.0);
        // Average over a few runs to smooth randomness.
        let mut clean = 0.0;
        let mut noisy = 0.0;
        for _ in 0..3 {
            clean += fit_with(&mut r, 1e-6).model.mean_log_likelihood(&clipped);
            noisy += fit_with(&mut r, 2000.0).model.mean_log_likelihood(&clipped);
        }
        assert!(
            clean > noisy,
            "clean ll {clean} should exceed heavily-noised ll {noisy}"
        );
    }

    #[test]
    fn weights_remain_a_distribution() {
        let mut r = rng();
        let data = unit_ball_blobs(&mut r, 200);
        let res = fit(
            &mut r,
            &data,
            &DpEmConfig {
                n_components: 3,
                iterations: 5,
                sigma_e: 500.0,
                covariance_regularization: 1e-3,
                clip_norm: 1.0,
            },
        )
        .unwrap();
        let w = res.model.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn validation_errors() {
        let mut r = rng();
        let data = unit_ball_blobs(&mut r, 50);
        assert!(fit(
            &mut r,
            &data,
            &DpEmConfig {
                sigma_e: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(
            &mut r,
            &data,
            &DpEmConfig {
                iterations: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(
            &mut r,
            &data,
            &DpEmConfig {
                clip_norm: -1.0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(
            &mut r,
            &data,
            &DpEmConfig {
                n_components: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(&mut r, &Matrix::zeros(0, 2), &DpEmConfig::default()).is_err());
    }

    #[test]
    fn non_finite_parameters_are_rejected() {
        // Every comparison with NaN is false: a NaN σ_e or clip norm once
        // passed the `<= 0.0` check and returned `Ok` with NaN means.
        let mut r = rng();
        let data = unit_ball_blobs(&mut r, 50);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for config in [
                DpEmConfig {
                    sigma_e: bad,
                    ..Default::default()
                },
                DpEmConfig {
                    clip_norm: bad,
                    ..Default::default()
                },
                DpEmConfig {
                    covariance_regularization: bad,
                    ..Default::default()
                },
            ] {
                assert!(
                    matches!(
                        fit(&mut r, &data, &config),
                        Err(MixtureError::InvalidParameter { .. })
                    ),
                    "{config:?}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The two-pass DP-EM equals the nine-kernel reference bit for
        /// bit — model bytes, trace, iteration count and the rng state
        /// after (so the noise draws match in number and order) — at 1, 2
        /// and 3 threads, down to one-row chunks (n ≤ 64).
        #[test]
        fn fused_fit_matches_the_nine_kernel_reference(
            n in 1usize..301,
            d in 1usize..13,
            k in 1usize..5,
            iterations in 1usize..6,
            sigma_pick in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            use rand::RngCore;
            let k = k.min(n);
            let data = reference::clustered_data(seed, n, d, k);
            let config = DpEmConfig {
                n_components: k,
                iterations,
                sigma_e: [1e-3, 1.0, 100.0][sigma_pick],
                covariance_regularization: 1e-4,
                clip_norm: 1.0,
            };
            let run = |threads: usize, fused: bool| {
                p3gm_parallel::with_threads(threads, || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let result = if fused {
                        fit(&mut rng, &data, &config)
                    } else {
                        fit_reference(&mut rng, &data, &config)
                    };
                    let summary = result.map(|r| {
                        (
                            r.model.to_bytes(),
                            reference::trace_bits(&r.log_likelihood_trace),
                            r.iterations,
                        )
                    });
                    (summary, rng.next_u64())
                })
            };
            let want = run(1, false);
            for threads in [1, 2, 3] {
                proptest::prop_assert_eq!(
                    run(threads, true),
                    want.clone(),
                    "n={} d={} k={} iterations={} at {} threads", n, d, k, iterations, threads
                );
            }
        }
    }
}
