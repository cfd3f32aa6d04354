//! Maximum-likelihood EM fitting of a Gaussian mixture.
//!
//! This is the non-private estimator; [`crate::dpem`] wraps the same E/M
//! structure with the Gaussian mechanism on the M-step statistics.
//!
//! Both run an iteration as two parallel passes over row chunks, each one
//! dispatch:
//!
//! * **Pass A** (`e_step`) computes the current model's weighted log
//!   densities once per row chunk. From them it derives each row's
//!   log-sum-exp (the log-likelihood term), the responsibilities, their
//!   column sums and the responsibility-weighted row sums that the mean
//!   update needs.
//! * **Pass B** (`weighted_scatter_sums`) sums the weighted scatter
//!   around the updated (for DP-EM: released) means.
//!
//! The log-likelihood of the model an iteration produces comes from the
//! next iteration's pass A, so a fit of `T` iterations makes `2T + 1`
//! passes: one pass A on the initial model, then B and A per iteration.
//! Chunk boundaries are `default_chunk_len(n)` rows and partials fold in
//! chunk order, so every result is bit-identical across thread counts and
//! to the one-statistic-per-kernel references the tests keep.

use crate::gmm::{normalize_log_row, rows_of, Gmm};
use crate::kmeans::{kmeans, KMeansConfig};
use crate::{MixtureError, Result};
use p3gm_linalg::{vector, Matrix};
use rand::Rng;

/// What pass A learns from the current model: its mean log-likelihood
/// and the sufficient statistics of the next M-step.
pub(crate) struct EStep {
    /// Mean log-likelihood of the data under the model.
    pub(crate) log_likelihood: f64,
    /// Column sums of the responsibilities: entry `c` is `Σ_i resp[i][c]`.
    pub(crate) resp_sums: Vec<f64>,
    /// The `k x d` matrix whose row `c` is `Σ_i resp[i][c] · data.row(i)`
    /// (the numerator of the M-step mean update).
    pub(crate) mean_sums: Matrix,
}

impl EStep {
    /// Folds the next chunk's partial sums into this one. The running
    /// log-likelihood is still a sum here; [`e_step`] divides it by `n`.
    fn fold(mut self, next: EStep) -> EStep {
        self.log_likelihood += next.log_likelihood;
        for (a, &b) in self.resp_sums.iter_mut().zip(&next.resp_sums) {
            *a += b;
        }
        self.mean_sums
            .axpy(1.0, &next.mean_sums)
            .expect("partial shapes match");
        self
    }
}

/// Pass A of an EM iteration: writes the responsibilities of `model` for
/// every row of `data` into `resp` (`n x k`) and returns the model's mean
/// log-likelihood with the M-step's column and weighted-row sums. One
/// dispatch over row chunks; the per-chunk sums fold in chunk order once
/// it returns.
///
/// # Panics
/// Panics if `data` is empty or its shape does not match `model` and
/// `resp`.
pub(crate) fn e_step(model: &Gmm, data: &Matrix, resp: &mut Matrix) -> EStep {
    let k = model.n_components();
    let d = data.cols();
    let n = data.rows();
    assert_eq!(d, model.dim(), "data and mixture dimensions differ");
    assert_eq!(resp.shape(), (n, k), "responsibility matrix shape");
    let rows_per_chunk = p3gm_parallel::default_chunk_len(n);
    let partials = p3gm_parallel::par_chunks_mut_map(
        resp.as_mut_slice(),
        rows_per_chunk * k,
        |chunk_index, resp_chunk| {
            let start = chunk_index * rows_per_chunk;
            let rows = rows_of(data, start..start + resp_chunk.len() / k);
            model.log_densities_into(rows, resp_chunk);
            let log_likelihood = resp_chunk.chunks_mut(k).map(normalize_log_row).sum::<f64>();
            let mut resp_sums = vec![0.0; k];
            let mut mean_sums = Matrix::zeros(k, d);
            for (x, r) in rows.chunks_exact(d).zip(resp_chunk.chunks_exact(k)) {
                for (a, &rc) in resp_sums.iter_mut().zip(r) {
                    *a += rc;
                }
                for (c, &rc) in r.iter().enumerate() {
                    vector::axpy(rc, x, mean_sums.row_mut(c));
                }
            }
            EStep {
                log_likelihood,
                resp_sums,
                mean_sums,
            }
        },
    );
    let mut sums = partials
        .into_iter()
        .reduce(EStep::fold)
        .expect("EM data has at least one row");
    sums.log_likelihood /= n as f64;
    sums
}

/// Pass B of an EM iteration, the responsibility-weighted scatter sums:
/// element `c` of the returned list is `Σ_i resp[i][c] · (x_i − µ_c)(x_i −
/// µ_c)ᵀ` (the numerator of the M-step covariance update). Accumulated
/// over parallel row chunks with a deterministic in-order fold, so the
/// result is bit-identical for every thread count.
pub(crate) fn weighted_scatter_sums(data: &Matrix, resp: &Matrix, means: &Matrix) -> Vec<Matrix> {
    let k = resp.cols();
    let d = data.cols();
    p3gm_parallel::par_map_reduce(
        data.rows(),
        p3gm_parallel::default_chunk_len(data.rows()),
        |range| {
            let mut partials = vec![Matrix::zeros(d, d); k];
            for i in range {
                let row = data.row(i);
                for (c, &w) in resp.row(i).iter().enumerate() {
                    let diff = vector::sub(row, means.row(c));
                    let partial = &mut partials[c];
                    for (a, &da) in diff.iter().enumerate() {
                        let scaled = da * w;
                        vector::axpy(scaled, &diff, partial.row_mut(a));
                    }
                }
            }
            partials
        },
        |mut a, b| {
            for (pa, pb) in a.iter_mut().zip(b.iter()) {
                pa.axpy(1.0, pb).expect("partial shapes match");
            }
            a
        },
    )
    .unwrap_or_else(|| vec![Matrix::zeros(d, d); k])
}

/// Configuration for EM fitting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Number of mixture components `K`.
    pub n_components: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Stop when the mean log-likelihood improves by less than this.
    pub tolerance: f64,
    /// Diagonal regularization added to every covariance update.
    pub covariance_regularization: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            n_components: 3,
            max_iters: 100,
            tolerance: 1e-5,
            covariance_regularization: 1e-6,
        }
    }
}

/// Result of an EM fit.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// The fitted mixture model.
    pub model: Gmm,
    /// Mean log-likelihood after each iteration.
    pub log_likelihood_trace: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the tolerance-based stopping criterion fired.
    pub converged: bool,
}

/// Fits a Gaussian mixture to the rows of `data` with EM, initializing the
/// means with k-means.
pub fn fit<R: Rng + ?Sized>(rng: &mut R, data: &Matrix, config: &EmConfig) -> Result<EmResult> {
    validate(data, config)?;
    let k = config.n_components;
    let n = data.rows();

    // Initialization: k-means centroids, per-cluster covariances, uniform-ish weights.
    let km = kmeans(
        rng,
        data,
        &KMeansConfig {
            k,
            max_iters: 20,
            tolerance: 1e-4,
        },
    )?;
    let (mut weights, mut means, mut covariances) =
        initial_parameters(data, &km.assignments, k, config.covariance_regularization);

    let mut model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
    let mut trace: Vec<f64> = Vec::with_capacity(config.max_iters);
    let mut converged = false;
    let mut iterations = 0;
    let mut resp = Matrix::zeros(n, k);
    let mut stats = e_step(&model, data, &mut resp);

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // M-step from the statistics of the current model's pass A.
        let nk: Vec<f64> = stats.resp_sums.iter().map(|&s| s.max(1e-10)).collect();
        for c in 0..k {
            weights[c] = nk[c] / n as f64;
            let mean = means.row_mut(c);
            mean.copy_from_slice(stats.mean_sums.row(c));
            vector::scale(1.0 / nk[c], mean);
        }
        let scatter = weighted_scatter_sums(data, &resp, &means);
        for (c, sum) in scatter.into_iter().enumerate() {
            let mut cov = sum.scale(1.0 / nk[c]);
            cov.add_diagonal(config.covariance_regularization);
            covariances[c] = cov;
        }

        model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
        // The new model's pass A: its log-likelihood now, its statistics
        // for the next iteration.
        stats = e_step(&model, data, &mut resp);
        let ll = stats.log_likelihood;
        if let Some(&prev) = trace.last() {
            if (ll - prev).abs() < config.tolerance {
                trace.push(ll);
                converged = true;
                break;
            }
        }
        trace.push(ll);
    }

    Ok(EmResult {
        model,
        log_likelihood_trace: trace,
        iterations,
        converged,
    })
}

/// Per-cluster initial parameters from a hard assignment: weights, a
/// `k x d` mean matrix and per-cluster covariances.
pub(crate) fn initial_parameters(
    data: &Matrix,
    assignments: &[usize],
    k: usize,
    regularization: f64,
) -> (Vec<f64>, Matrix, Vec<Matrix>) {
    let d = data.cols();
    let n = data.rows();
    let mut counts = vec![0.0; k];
    let mut means = Matrix::zeros(k, d);
    for (row, &a) in data.row_iter().zip(assignments.iter()) {
        counts[a] += 1.0;
        vector::axpy(1.0, row, means.row_mut(a));
    }
    for (c, &count) in counts.iter().enumerate() {
        if count > 0.0 {
            vector::scale(1.0 / count, means.row_mut(c));
        }
    }
    let mut covariances = vec![Matrix::identity(d); k];
    for c in 0..k {
        if counts[c] < 2.0 {
            continue;
        }
        let mut cov = Matrix::zeros(d, d);
        for (row, &a) in data.row_iter().zip(assignments.iter()) {
            if a != c {
                continue;
            }
            let diff = vector::sub(row, means.row(c));
            for (i, &di) in diff.iter().enumerate() {
                vector::axpy(di, &diff, cov.row_mut(i));
            }
        }
        let mut cov = cov.scale(1.0 / counts[c]);
        cov.add_diagonal(regularization.max(1e-9));
        covariances[c] = cov;
    }
    let weights: Vec<f64> = counts.iter().map(|&c| (c / n as f64).max(1e-6)).collect();
    (weights, means, covariances)
}

pub(crate) fn validate(data: &Matrix, config: &EmConfig) -> Result<()> {
    if config.n_components == 0 {
        return Err(MixtureError::InvalidParameter {
            msg: "n_components must be positive".to_string(),
        });
    }
    if !config.covariance_regularization.is_finite() {
        return Err(MixtureError::InvalidParameter {
            msg: format!(
                "covariance_regularization must be finite, got {}",
                config.covariance_regularization
            ),
        });
    }
    if data.rows() == 0 || data.cols() == 0 {
        return Err(MixtureError::InvalidData {
            msg: "empty data".to_string(),
        });
    }
    if data.rows() < config.n_components {
        return Err(MixtureError::InvalidData {
            msg: format!(
                "{} rows cannot support {} components",
                data.rows(),
                config.n_components
            ),
        });
    }
    Ok(())
}

/// The (DP-)EM kernels before the two-pass fusion, kept as the test
/// references that pin [`e_step`] and the fused fits bit for bit. An
/// iteration ran them as nine dispatches: the responsibilities (a
/// whitening product, the log densities, the normalization), their column
/// sums, the weighted mean sums, the scatter sums, and the new model's
/// log-likelihood (whitening product, log densities, chunked sum).
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Responsibilities from the reference log-density kernel, normalized
    /// in a second pass.
    pub(crate) fn responsibilities(model: &Gmm, data: &Matrix) -> Matrix {
        let k = model.n_components();
        let mut resp = model.log_densities_reference(data);
        let rows_per_chunk = p3gm_parallel::default_chunk_len(data.rows());
        p3gm_parallel::par_chunks_mut(resp.as_mut_slice(), rows_per_chunk * k, |_, chunk| {
            for row in chunk.chunks_mut(k) {
                let lse = vector::log_sum_exp(row);
                for v in row.iter_mut() {
                    *v = (*v - lse).exp();
                }
            }
        });
        resp
    }

    /// The mean log-likelihood from the reference log-density kernel.
    pub(crate) fn mean_log_likelihood(model: &Gmm, data: &Matrix) -> f64 {
        let logs = model.log_densities_reference(data);
        let total = p3gm_parallel::par_map_reduce(
            data.rows(),
            p3gm_parallel::default_chunk_len(data.rows()),
            |range| range.map(|i| vector::log_sum_exp(logs.row(i))).sum::<f64>(),
            |a, b| a + b,
        )
        .unwrap_or(0.0);
        total / data.rows() as f64
    }

    /// Row `c` is `Σ_i resp[i][c] · data.row(i)`.
    pub(crate) fn weighted_mean_sums(data: &Matrix, resp: &Matrix) -> Matrix {
        let k = resp.cols();
        let d = data.cols();
        p3gm_parallel::par_map_reduce(
            data.rows(),
            p3gm_parallel::default_chunk_len(data.rows()),
            |range| {
                let mut partial = Matrix::zeros(k, d);
                for i in range {
                    let row = data.row(i);
                    for (c, &r) in resp.row(i).iter().enumerate() {
                        vector::axpy(r, row, partial.row_mut(c));
                    }
                }
                partial
            },
            |mut a, b| {
                a.axpy(1.0, &b).unwrap();
                a
            },
        )
        .unwrap_or_else(|| Matrix::zeros(k, d))
    }

    /// [`fit`](super::fit) as nine kernels per iteration.
    pub(crate) fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        data: &Matrix,
        config: &EmConfig,
    ) -> Result<EmResult> {
        validate(data, config)?;
        let k = config.n_components;
        let n = data.rows();
        let km = kmeans(
            rng,
            data,
            &KMeansConfig {
                k,
                max_iters: 20,
                tolerance: 1e-4,
            },
        )?;
        let (mut weights, mut means, mut covariances) =
            initial_parameters(data, &km.assignments, k, config.covariance_regularization);
        let mut model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
        let mut trace: Vec<f64> = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        for iter in 0..config.max_iters {
            iterations = iter + 1;
            let resp = responsibilities(&model, data);
            let nk: Vec<f64> = resp.column_sums().iter().map(|&s| s.max(1e-10)).collect();
            let mean_sums = weighted_mean_sums(data, &resp);
            for c in 0..k {
                weights[c] = nk[c] / n as f64;
                let mean = means.row_mut(c);
                mean.copy_from_slice(mean_sums.row(c));
                vector::scale(1.0 / nk[c], mean);
            }
            let scatter = weighted_scatter_sums(data, &resp, &means);
            for (c, sum) in scatter.into_iter().enumerate() {
                let mut cov = sum.scale(1.0 / nk[c]);
                cov.add_diagonal(config.covariance_regularization);
                covariances[c] = cov;
            }
            model = Gmm::new(weights.clone(), means.clone(), covariances.clone())?;
            let ll = mean_log_likelihood(&model, data);
            if let Some(&prev) = trace.last() {
                if (ll - prev).abs() < config.tolerance {
                    trace.push(ll);
                    converged = true;
                    break;
                }
            }
            trace.push(ll);
        }
        Ok(EmResult {
            model,
            log_likelihood_trace: trace,
            iterations,
            converged,
        })
    }

    /// Data for the fused-vs-reference properties: `n` rows of `d`
    /// columns around `k` offsets, with every value in `(-3, 3 + 2k)`.
    pub(crate) fn clustered_data(seed: u64, n: usize, d: usize, k: usize) -> Matrix {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |i, _| (i % k) as f64 * 2.0 + rng.gen_range(-3.0..3.0))
    }

    /// The bits of a trace, so NaN entries compare equal to themselves.
    pub(crate) fn trace_bits(trace: &[f64]) -> Vec<u64> {
        trace.iter().map(|v| v.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    fn two_blob_data(rng: &mut StdRng, per: usize) -> Matrix {
        let true_model = Gmm::isotropic(
            vec![0.5, 0.5],
            Matrix::from_rows(&[vec![-3.0, 0.0], vec![3.0, 1.0]]).unwrap(),
            0.5,
        )
        .unwrap();
        true_model.sample_n(rng, per * 2)
    }

    #[test]
    fn recovers_two_well_separated_components() {
        let mut r = rng();
        let data = two_blob_data(&mut r, 200);
        let res = fit(
            &mut r,
            &data,
            &EmConfig {
                n_components: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut means = res.model.means().to_rows();
        means.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert!((means[0][0] + 3.0).abs() < 0.3, "{:?}", means[0]);
        assert!((means[1][0] - 3.0).abs() < 0.3, "{:?}", means[1]);
        assert!((res.model.weights()[0] - 0.5).abs() < 0.1);
        // Covariance close to 0.5 I.
        let cov = &res.model.covariances()[0];
        assert!((cov.get(0, 0) - 0.5).abs() < 0.2);
    }

    #[test]
    fn log_likelihood_is_monotonically_non_decreasing() {
        let mut r = rng();
        let data = two_blob_data(&mut r, 100);
        let res = fit(
            &mut r,
            &data,
            &EmConfig {
                n_components: 2,
                max_iters: 30,
                ..Default::default()
            },
        )
        .unwrap();
        let trace = &res.log_likelihood_trace;
        assert!(trace.len() >= 2);
        for w in trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "likelihood decreased: {w:?}");
        }
    }

    #[test]
    fn converges_and_reports_it() {
        let mut r = rng();
        let data = two_blob_data(&mut r, 150);
        let res = fit(
            &mut r,
            &data,
            &EmConfig {
                n_components: 2,
                max_iters: 200,
                tolerance: 1e-6,
                covariance_regularization: 1e-6,
            },
        )
        .unwrap();
        assert!(res.converged, "EM did not converge in 200 iterations");
        assert!(res.iterations < 200);
    }

    #[test]
    fn single_component_recovers_mean_and_covariance() {
        let mut r = rng();
        let truth = Gmm::new(
            vec![1.0],
            Matrix::from_rows(&[vec![1.0, -2.0]]).unwrap(),
            vec![Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]).unwrap()],
        )
        .unwrap();
        let data = truth.sample_n(&mut r, 2000);
        let res = fit(
            &mut r,
            &data,
            &EmConfig {
                n_components: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let mean = res.model.mean(0);
        assert!((mean[0] - 1.0).abs() < 0.1);
        assert!((mean[1] + 2.0).abs() < 0.1);
        let cov = &res.model.covariances()[0];
        assert!((cov.get(0, 0) - 2.0).abs() < 0.25);
        assert!((cov.get(0, 1) - 0.5).abs() < 0.15);
    }

    #[test]
    fn fitted_model_has_higher_likelihood_than_initialization() {
        let mut r = rng();
        let data = two_blob_data(&mut r, 100);
        let single = Gmm::isotropic(
            vec![1.0],
            Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap(),
            10.0,
        )
        .unwrap();
        let res = fit(
            &mut r,
            &data,
            &EmConfig {
                n_components: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.model.mean_log_likelihood(&data) > single.mean_log_likelihood(&data));
    }

    #[test]
    fn validation_errors() {
        let mut r = rng();
        let data = Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        assert!(fit(
            &mut r,
            &data,
            &EmConfig {
                n_components: 0,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(
            &mut r,
            &data,
            &EmConfig {
                n_components: 5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(fit(&mut r, &Matrix::zeros(0, 2), &EmConfig::default()).is_err());
    }

    #[test]
    fn e_step_matches_the_reference_kernels() {
        let model = Gmm::isotropic(
            vec![0.3, 0.7],
            Matrix::from_rows(&[vec![-1.0, 0.5, 0.0], vec![2.0, -0.5, 1.0]]).unwrap(),
            0.8,
        )
        .unwrap();
        for n in [1, 2, 63, 64, 65, 200] {
            let data = reference::clustered_data(n as u64, n, 3, 2);
            let want_resp = reference::responsibilities(&model, &data);
            for threads in [1, 2, 3] {
                let mut resp = Matrix::zeros(n, 2);
                let stats =
                    p3gm_parallel::with_threads(threads, || e_step(&model, &data, &mut resp));
                assert_eq!(resp, want_resp, "n={n}");
                assert_eq!(stats.resp_sums, want_resp.column_sums(), "n={n}");
                assert_eq!(
                    stats.mean_sums,
                    reference::weighted_mean_sums(&data, &want_resp),
                    "n={n}"
                );
                assert_eq!(
                    stats.log_likelihood.to_bits(),
                    reference::mean_log_likelihood(&model, &data).to_bits(),
                    "n={n}"
                );
                assert_eq!(
                    model.mean_log_likelihood(&data).to_bits(),
                    stats.log_likelihood.to_bits()
                );
                assert_eq!(model.responsibilities_batch(&data), want_resp);
                assert_eq!(
                    model.log_densities_batch(&data),
                    model.log_densities_reference(&data)
                );
            }
        }
    }

    #[test]
    fn non_finite_covariance_regularization_is_rejected() {
        let mut r = rng();
        let data = two_blob_data(&mut r, 20);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let config = EmConfig {
                n_components: 2,
                covariance_regularization: bad,
                ..Default::default()
            };
            assert!(
                matches!(
                    fit(&mut r, &data, &config),
                    Err(MixtureError::InvalidParameter { .. })
                ),
                "covariance_regularization = {bad}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The two-pass fit equals the nine-kernel reference bit for bit —
        /// model bytes, trace, iteration count, convergence flag and the
        /// rng state after — at 1, 2 and 3 threads, down to one-row
        /// chunks (n ≤ 64) and early convergence (a huge tolerance).
        #[test]
        fn fused_fit_matches_the_nine_kernel_reference(
            n in 1usize..301,
            d in 1usize..13,
            k in 1usize..5,
            max_iters in 1usize..6,
            tolerance_pick in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            use rand::RngCore;
            let k = k.min(n);
            let data = reference::clustered_data(seed, n, d, k);
            let config = EmConfig {
                n_components: k,
                max_iters,
                tolerance: [0.0, 1e-3, 1e9][tolerance_pick],
                covariance_regularization: 1e-6,
            };
            let run = |threads: usize, fused: bool| {
                p3gm_parallel::with_threads(threads, || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let result = if fused {
                        fit(&mut rng, &data, &config)
                    } else {
                        reference::fit(&mut rng, &data, &config)
                    };
                    let summary = result.map(|r| {
                        (
                            r.model.to_bytes(),
                            reference::trace_bits(&r.log_likelihood_trace),
                            r.iterations,
                            r.converged,
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
                    "n={} d={} k={} iters={} at {} threads", n, d, k, max_iters, threads
                );
            }
        }
    }
}
