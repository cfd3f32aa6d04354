//! Gaussian mixture model: densities, responsibilities, sampling, and the
//! KL-divergence terms used by P3GM's ELBO.

use crate::{MixtureError, Result};
use p3gm_linalg::{vector, Cholesky, Matrix};
use p3gm_privacy::sampling;
use rand::Rng;

/// A mixture of full-covariance Gaussians over `R^d`.
///
/// Invariants maintained by the constructors: weights are non-negative and
/// sum to 1, the means form a `k x d` matrix (one component per row), every
/// covariance is `d x d` symmetric positive definite (a small jitter is
/// applied when necessary).
#[derive(Debug, Clone)]
pub struct Gmm {
    weights: Vec<f64>,
    /// Component means, one per row (`k x d`).
    means: Matrix,
    covariances: Vec<Matrix>,
    /// Cached Cholesky factors of the covariances.
    factors: Vec<Cholesky>,
    /// Cached inverses of the covariances (used by the KL gradients).
    inverses: Vec<Matrix>,
    /// Cached log-determinants.
    log_dets: Vec<f64>,
    /// Cached whitening operators: the inverse Cholesky factors `L_k⁻¹`
    /// stacked vertically into one `(k·d) x d` matrix, so the batched
    /// E-step computes every row's Mahalanobis terms with a single
    /// `data · stacked_whitenᵀ` product.
    stacked_whiten: Matrix,
    /// Cached whitened means: row `k` is `L_k⁻¹ μ_k`.
    whitened_means: Matrix,
    /// Cached `ln w_k` (weights clamped away from zero as in
    /// [`Gmm::log_density`]).
    log_weights: Vec<f64>,
    /// Cached Gaussian normalization constants
    /// `-0.5 (d ln 2π + ln det Σ_k)`.
    log_norm_consts: Vec<f64>,
}

impl Gmm {
    /// Builds a mixture from weights, a `k x d` mean matrix (one component
    /// mean per row) and covariances.
    ///
    /// Weights are re-normalized to sum to one; covariances that are not
    /// positive definite are repaired with increasing diagonal jitter.
    /// Non-finite weights, means or covariance entries are rejected, as
    /// [`Gmm::from_bytes`] rejects them.
    pub fn new(weights: Vec<f64>, means: Matrix, covariances: Vec<Matrix>) -> Result<Self> {
        let k = weights.len();
        if k == 0 || means.rows() != k || covariances.len() != k {
            return Err(MixtureError::InvalidParameter {
                msg: format!(
                    "component count mismatch: {} weights, {} means, {} covariances",
                    k,
                    means.rows(),
                    covariances.len()
                ),
            });
        }
        let d = means.cols();
        if d == 0 {
            return Err(MixtureError::InvalidParameter {
                msg: "zero-dimensional mixture".to_string(),
            });
        }
        if covariances.iter().any(|c| c.shape() != (d, d)) {
            return Err(MixtureError::InvalidParameter {
                msg: "inconsistent component dimensions".to_string(),
            });
        }
        // Every comparison with NaN is false, so a non-finite parameter
        // would otherwise pass the checks below and poison the caches.
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(MixtureError::InvalidParameter {
                msg: "weights must be finite".to_string(),
            });
        }
        if means.as_slice().iter().any(|v| !v.is_finite())
            || covariances
                .iter()
                .any(|c| c.as_slice().iter().any(|v| !v.is_finite()))
        {
            return Err(MixtureError::InvalidParameter {
                msg: "means and covariances must be finite".to_string(),
            });
        }
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return Err(MixtureError::InvalidParameter {
                msg: "weights must have positive total mass".to_string(),
            });
        }
        let weights: Vec<f64> = weights.iter().map(|w| w.max(0.0) / total).collect();

        let caches = build_caches(&weights, &means, &covariances)?;
        Ok(Gmm::from_parts(weights, means, covariances, caches))
    }

    /// Assembles a mixture from validated parameters and freshly built
    /// caches.
    fn from_parts(
        weights: Vec<f64>,
        means: Matrix,
        covariances: Vec<Matrix>,
        c: GmmCaches,
    ) -> Self {
        Gmm {
            weights,
            means,
            covariances,
            factors: c.factors,
            inverses: c.inverses,
            log_dets: c.log_dets,
            stacked_whiten: c.stacked_whiten,
            whitened_means: c.whitened_means,
            log_weights: c.log_weights,
            log_norm_consts: c.log_norm_consts,
        }
    }

    /// Builds an isotropic mixture (`σ² I` covariances) — a convenient
    /// constructor for tests and for the DP-GM baseline's latent prior.
    /// `means` holds one component mean per row.
    pub fn isotropic(weights: Vec<f64>, means: Matrix, variance: f64) -> Result<Self> {
        if variance <= 0.0 {
            return Err(MixtureError::InvalidParameter {
                msg: format!("variance must be positive, got {variance}"),
            });
        }
        let d = means.cols();
        let covs = (0..means.rows())
            .map(|_| Matrix::identity(d).scale(variance))
            .collect();
        Self::new(weights, means, covs)
    }

    /// Number of mixture components.
    pub fn n_components(&self) -> usize {
        self.weights.len()
    }

    /// Data dimensionality.
    pub fn dim(&self) -> usize {
        self.means.cols()
    }

    /// Mixture weights (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component means as a `k x d` matrix (one component per row).
    pub fn means(&self) -> &Matrix {
        &self.means
    }

    /// The mean of component `k`.
    pub fn mean(&self, k: usize) -> &[f64] {
        self.means.row(k)
    }

    /// Component covariance matrices.
    pub fn covariances(&self) -> &[Matrix] {
        &self.covariances
    }

    /// Log-density of `x` under component `k` (a multivariate normal).
    pub fn component_log_density(&self, k: usize, x: &[f64]) -> f64 {
        let d = self.dim() as f64;
        let diff = vector::sub(x, self.means.row(k));
        let maha = self.factors[k]
            .quadratic_form(&diff)
            .expect("dimension checked at construction");
        -0.5 * (d * (2.0 * std::f64::consts::PI).ln() + self.log_dets[k] + maha)
    }

    /// Log-density of `x` under the mixture.
    pub fn log_density(&self, x: &[f64]) -> f64 {
        let logs: Vec<f64> = (0..self.n_components())
            .map(|k| self.weights[k].max(1e-300).ln() + self.component_log_density(k, x))
            .collect();
        vector::log_sum_exp(&logs)
    }

    /// Average log-likelihood of a set of rows: the per-row log-sum-exp of
    /// the weighted log densities ([`Gmm::log_densities_batch`]), summed
    /// over parallel row chunks with the deterministic chunked reduction
    /// (bit-identical for every thread count). One dispatch.
    ///
    /// # Panics
    /// Panics if `data` has rows but not [`Gmm::dim`] columns.
    pub fn mean_log_likelihood(&self, data: &Matrix) -> f64 {
        if data.rows() == 0 {
            return 0.0;
        }
        self.check_columns(data);
        let k = self.n_components();
        let total = p3gm_parallel::par_map_reduce(
            data.rows(),
            p3gm_parallel::default_chunk_len(data.rows()),
            |range| {
                let mut logs = vec![0.0; range.len() * k];
                self.log_densities_into(rows_of(data, range), &mut logs);
                logs.chunks_exact(k).map(vector::log_sum_exp).sum::<f64>()
            },
            |a, b| a + b,
        )
        .unwrap_or(0.0);
        total / data.rows() as f64
    }

    /// Log of the **weighted** component densities for a whole batch: entry
    /// `(i, k)` of the returned `n x k` matrix is
    /// `ln(w_k · N(data.row(i); μ_k, Σ_k))`.
    ///
    /// This is the batched E-step kernel. Instead of one triangular solve
    /// per (row, component), each row is whitened against the cached
    /// stacked `L_k⁻¹` factors with lane-folded dot products, and the
    /// Mahalanobis term is `‖L_k⁻¹ x − L_k⁻¹ μ_k‖²` with the whitened means
    /// also cached. Row chunks run in parallel in one dispatch; every row
    /// is independent, so the result is bit-identical for every thread
    /// count.
    ///
    /// # Panics
    /// Panics if `data` does not have [`Gmm::dim`] columns.
    pub fn log_densities_batch(&self, data: &Matrix) -> Matrix {
        self.check_columns(data);
        let k = self.n_components();
        let mut out = Matrix::zeros(data.rows(), k);
        let rows_per_chunk = p3gm_parallel::default_chunk_len(data.rows());
        p3gm_parallel::par_chunks_mut(
            out.as_mut_slice(),
            rows_per_chunk * k,
            |chunk_index, out_chunk| {
                let start = chunk_index * rows_per_chunk;
                let rows = start..start + out_chunk.len() / k;
                self.log_densities_into(rows_of(data, rows), out_chunk);
            },
        );
        out
    }

    /// The kernel of [`Gmm::log_densities_batch`] on a block of rows:
    /// `rows` holds whole rows of [`Gmm::dim`] values, and `out` receives
    /// `ln(w_k · N(x; μ_k, Σ_k))` for each row `x` and component `k`, one
    /// row of `k` values per input row. Each value depends only on its own
    /// row, so any split of a batch into blocks gives the same bits.
    pub(crate) fn log_densities_into(&self, rows: &[f64], out: &mut [f64]) {
        let k = self.n_components();
        let d = self.dim();
        let mut whitened = vec![0.0; k * d];
        for (x, out_row) in rows.chunks_exact(d).zip(out.chunks_exact_mut(k)) {
            for (w, whiten_row) in whitened
                .iter_mut()
                .zip(self.stacked_whiten.as_slice().chunks_exact(d))
            {
                *w = vector::dot_lanes(x, whiten_row);
            }
            for (c, o) in out_row.iter_mut().enumerate() {
                let maha = vector::squared_distance_lanes(
                    &whitened[c * d..(c + 1) * d],
                    self.whitened_means.row(c),
                );
                *o = self.log_weights[c] + self.log_norm_consts[c] - 0.5 * maha;
            }
        }
    }

    /// Panics unless `data` has one column per dimension of the mixture.
    fn check_columns(&self, data: &Matrix) {
        assert_eq!(
            data.cols(),
            self.dim(),
            "data has {} columns for a {}-dimensional mixture",
            data.cols(),
            self.dim()
        );
    }

    /// The pre-fusion E-step kernel, kept as the test reference for
    /// [`Gmm::log_densities_into`]: one `data · stacked_whitenᵀ` product,
    /// then the log densities on parallel row chunks.
    #[cfg(test)]
    pub(crate) fn log_densities_reference(&self, data: &Matrix) -> Matrix {
        let k = self.n_components();
        let d = self.dim();
        let whitened = data.matmul_transposed(&self.stacked_whiten).unwrap();
        let mut out = Matrix::zeros(data.rows(), k);
        let rows_per_chunk = p3gm_parallel::default_chunk_len(data.rows());
        p3gm_parallel::par_chunks_mut(
            out.as_mut_slice(),
            rows_per_chunk * k,
            |chunk_index, out_chunk| {
                let base = chunk_index * rows_per_chunk;
                for (local, out_row) in out_chunk.chunks_mut(k).enumerate() {
                    let w_row = whitened.row(base + local);
                    for (c, o) in out_row.iter_mut().enumerate() {
                        let maha = vector::squared_distance_lanes(
                            &w_row[c * d..(c + 1) * d],
                            self.whitened_means.row(c),
                        );
                        *o = self.log_weights[c] + self.log_norm_consts[c] - 0.5 * maha;
                    }
                }
            },
        );
        out
    }

    /// Posterior responsibilities `p(component | x)`.
    pub fn responsibilities(&self, x: &[f64]) -> Vec<f64> {
        let logs: Vec<f64> = (0..self.n_components())
            .map(|k| self.weights[k].max(1e-300).ln() + self.component_log_density(k, x))
            .collect();
        vector::softmax(&logs)
    }

    /// Posterior responsibilities for a whole batch: row `i` of the
    /// returned `n x k` matrix is `p(component | data.row(i))`.
    ///
    /// Each row's weighted log densities (as in
    /// [`Gmm::log_densities_batch`]) are exp-normalized in place (the same
    /// `log_sum_exp` fold as [`vector::softmax`], with no per-row
    /// allocations), on parallel row chunks in one dispatch, so the result
    /// is bit-identical for every thread count.
    ///
    /// # Panics
    /// Panics if `data` does not have [`Gmm::dim`] columns.
    pub fn responsibilities_batch(&self, data: &Matrix) -> Matrix {
        self.check_columns(data);
        let k = self.n_components();
        let mut resp = Matrix::zeros(data.rows(), k);
        let rows_per_chunk = p3gm_parallel::default_chunk_len(data.rows());
        p3gm_parallel::par_chunks_mut(
            resp.as_mut_slice(),
            rows_per_chunk * k,
            |chunk_index, resp_chunk| {
                let start = chunk_index * rows_per_chunk;
                let rows = start..start + resp_chunk.len() / k;
                self.log_densities_into(rows_of(data, rows), resp_chunk);
                for resp_row in resp_chunk.chunks_mut(k) {
                    normalize_log_row(resp_row);
                }
            },
        );
        resp
    }

    /// Draws one sample from the mixture into `out`: a component by
    /// weight, then that component's Gaussian in place
    /// ([`sampling::multivariate_normal`]).
    ///
    /// # Panics
    /// Panics if `out` is not [`Gmm::dim`] long.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        let k = sampling::categorical(rng, &self.weights);
        sampling::multivariate_normal(rng, self.means.row(k), &self.factors[k], out);
    }

    /// Draws `n` samples from the mixture as rows of a matrix.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Matrix {
        let mut out = Matrix::zeros(n, self.dim());
        for i in 0..n {
            self.sample(rng, out.row_mut(i));
        }
        out
    }

    /// KL divergence `KL( N(mu, diag(exp(logvar))) || component k )` with
    /// gradients with respect to `mu` and `logvar`.
    ///
    /// For a diagonal Gaussian `q` and a full-covariance component
    /// `N(m_k, Σ_k)`:
    ///
    /// ```text
    /// KL = ½ [ tr(Σ_k⁻¹ diag(v)) + (m_k − µ)ᵀ Σ_k⁻¹ (m_k − µ) − d
    ///          + log det Σ_k − Σ_i log v_i ]
    /// ∂KL/∂µ      = Σ_k⁻¹ (µ − m_k)
    /// ∂KL/∂logvar_i = ½ ( (Σ_k⁻¹)_{ii} v_i − 1 )
    /// ```
    pub fn kl_diag_to_component(
        &self,
        k: usize,
        mu: &[f64],
        logvar: &[f64],
    ) -> (f64, Vec<f64>, Vec<f64>) {
        let d = self.dim();
        debug_assert_eq!(mu.len(), d);
        debug_assert_eq!(logvar.len(), d);
        let inv = &self.inverses[k];
        let var: Vec<f64> = logvar.iter().map(|l| l.exp()).collect();

        let mut trace = 0.0;
        for (i, &v) in var.iter().enumerate() {
            trace += inv.get(i, i) * v;
        }
        let diff = vector::sub(mu, self.means.row(k));
        let inv_diff = inv.matvec(&diff).expect("dimension checked");
        let maha = vector::dot(&diff, &inv_diff);
        let sum_logvar: f64 = logvar.iter().sum();
        let value = 0.5 * (trace + maha - d as f64 + self.log_dets[k] - sum_logvar);

        let grad_mu = inv_diff;
        let grad_logvar: Vec<f64> = (0..d)
            .map(|i| 0.5 * (inv.get(i, i) * var[i] - 1.0))
            .collect();
        (value, grad_mu, grad_logvar)
    }

    /// Serializes the mixture into a framed `p3gm-store` buffer (weights,
    /// mean matrix, covariance matrices; bit-exact round trip).
    ///
    /// The Cholesky factors, inverses and log-determinants are *not*
    /// persisted: [`Gmm::from_bytes`] rebuilds them deterministically from
    /// the covariance bits, so the reconstructed caches match the originals
    /// exactly and sampling from the reloaded mixture is bit-identical.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::GMM);
        enc.f64_slice(&self.weights);
        enc.nested(&self.means.to_bytes());
        enc.usize(self.covariances.len());
        for cov in &self.covariances {
            enc.nested(&cov.to_bytes());
        }
        enc.finish()
    }

    /// Deserializes a mixture from a buffer produced by [`Gmm::to_bytes`].
    ///
    /// The stored weights are kept bit-for-bit (they were normalized at
    /// construction time; re-normalizing here could flip their last bits
    /// and break sample-stream reproducibility), but are still validated:
    /// they must be finite, non-negative and sum to 1 within `1e-6`.
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<Gmm> {
        use p3gm_store::StoreError;
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::GMM)?;
        let weights = dec.f64_vec()?;
        let means = Matrix::from_bytes(dec.nested()?)?;
        let k = weights.len();
        // One covariance per weight. Checking the claimed count before
        // reading any covariance bounds the allocation below by the
        // weights already decoded, so a crafted count cannot trigger a
        // huge up-front allocation.
        let n_covs = dec.usize()?;
        if n_covs != k {
            return Err(StoreError::Invalid {
                msg: format!("mixture shape mismatch: {k} weights, {n_covs} covariances"),
            });
        }
        let mut covariances = Vec::with_capacity(k);
        for _ in 0..k {
            covariances.push(Matrix::from_bytes(dec.nested()?)?);
        }
        dec.finish()?;

        let d = means.cols();
        if k == 0 || means.rows() != k || d == 0 {
            return Err(StoreError::Invalid {
                msg: format!(
                    "mixture shape mismatch: {k} weights, {} means",
                    means.rows()
                ),
            });
        }
        if covariances.iter().any(|c| c.shape() != (d, d)) {
            return Err(StoreError::Invalid {
                msg: "inconsistent component dimensions".to_string(),
            });
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(StoreError::Invalid {
                msg: "weights must be finite and non-negative".to_string(),
            });
        }
        if means.as_slice().iter().any(|v| !v.is_finite())
            || covariances
                .iter()
                .any(|c| c.as_slice().iter().any(|v| !v.is_finite()))
        {
            return Err(StoreError::Invalid {
                msg: "means and covariances must be finite".to_string(),
            });
        }
        let total: f64 = weights.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(StoreError::Invalid {
                msg: format!("weights sum to {total}, expected 1"),
            });
        }
        let caches = build_caches(&weights, &means, &covariances)
            .map_err(|e| StoreError::Invalid { msg: e.to_string() })?;
        Ok(Gmm::from_parts(weights, means, covariances, caches))
    }

    /// Variational (Hershey–Olsen) approximation of
    /// `KL( N(mu, diag(exp(logvar))) || mixture )`, with gradients.
    ///
    /// For a single-Gaussian `q` the approximation reduces to
    /// `−log Σ_k π_k exp(−KL(q || component_k))`; the gradient is the
    /// softmin-weighted combination of the per-component gradients.
    pub fn kl_diag_to_mixture(&self, mu: &[f64], logvar: &[f64]) -> (f64, Vec<f64>, Vec<f64>) {
        let k = self.n_components();
        let d = self.dim();
        let mut kls = Vec::with_capacity(k);
        let mut grads_mu = Vec::with_capacity(k);
        let mut grads_logvar = Vec::with_capacity(k);
        for j in 0..k {
            let (v, gm, gl) = self.kl_diag_to_component(j, mu, logvar);
            kls.push(v);
            grads_mu.push(gm);
            grads_logvar.push(gl);
        }
        // log Σ_k π_k exp(−KL_k), computed stably.
        let logs: Vec<f64> = (0..k)
            .map(|j| self.weights[j].max(1e-300).ln() - kls[j])
            .collect();
        let lse = vector::log_sum_exp(&logs);
        let value = -lse;
        // Softmin weights w_j = π_j exp(−KL_j) / Σ …
        let w: Vec<f64> = logs.iter().map(|&l| (l - lse).exp()).collect();
        let mut grad_mu = vec![0.0; d];
        let mut grad_logvar = vec![0.0; d];
        for j in 0..k {
            vector::axpy(w[j], &grads_mu[j], &mut grad_mu);
            vector::axpy(w[j], &grads_logvar[j], &mut grad_logvar);
        }
        (value, grad_mu, grad_logvar)
    }
}

/// Rows `range` of `data` as one contiguous row-major slice.
pub(crate) fn rows_of(data: &Matrix, range: std::ops::Range<usize>) -> &[f64] {
    let d = data.cols();
    &data.as_slice()[range.start * d..range.end * d]
}

/// Exp-normalizes one row of weighted log densities into responsibilities
/// in place, returning the row's log-sum-exp (its log-likelihood).
pub(crate) fn normalize_log_row(row: &mut [f64]) -> f64 {
    let lse = vector::log_sum_exp(row);
    for v in row.iter_mut() {
        *v = (*v - lse).exp();
    }
    lse
}

/// Everything a [`Gmm`] caches besides its defining parameters.
struct GmmCaches {
    factors: Vec<Cholesky>,
    inverses: Vec<Matrix>,
    log_dets: Vec<f64>,
    stacked_whiten: Matrix,
    whitened_means: Matrix,
    log_weights: Vec<f64>,
    log_norm_consts: Vec<f64>,
}

/// Builds the per-component caches: Cholesky factors, inverses,
/// log-determinants, and the batched-E-step operators (stacked `L_k⁻¹`
/// whitening matrix, whitened means `L_k⁻¹ μ_k`, log weights, Gaussian
/// normalization constants). Deterministic: identical parameter bits always
/// yield identical caches (which is what makes persisted mixtures sample —
/// and batch-evaluate — bit-identically after a reload).
fn build_caches(weights: &[f64], means: &Matrix, covariances: &[Matrix]) -> Result<GmmCaches> {
    let k = covariances.len();
    let d = means.cols();
    let mut factors = Vec::with_capacity(k);
    let mut inverses = Vec::with_capacity(k);
    let mut log_dets = Vec::with_capacity(k);
    let mut stacked_whiten = Matrix::zeros(k * d, d);
    let mut whitened_means = Matrix::zeros(k, d);
    for (c, cov) in covariances.iter().enumerate() {
        let chol =
            Cholesky::new_with_jitter(cov, 1e-6, 12).map_err(|e| MixtureError::Numerical {
                msg: format!("covariance not positive definite: {e}"),
            })?;
        let inv = chol.inverse().map_err(|e| MixtureError::Numerical {
            msg: format!("covariance inversion failed: {e}"),
        })?;
        let whiten = chol.inverse_lower();
        for r in 0..d {
            stacked_whiten
                .row_mut(c * d + r)
                .copy_from_slice(whiten.row(r));
        }
        whitened_means.row_mut(c).copy_from_slice(
            &whiten
                .matvec(means.row(c))
                .expect("dimensions checked at construction"),
        );
        log_dets.push(chol.log_determinant());
        inverses.push(inv);
        factors.push(chol);
    }
    let log_weights = weights.iter().map(|w| w.max(1e-300).ln()).collect();
    let half_d_ln_2pi = 0.5 * d as f64 * (2.0 * std::f64::consts::PI).ln();
    let log_norm_consts = log_dets
        .iter()
        .map(|ld| -(half_d_ln_2pi + 0.5 * ld))
        .collect();
    Ok(GmmCaches {
        factors,
        inverses,
        log_dets,
        stacked_whiten,
        whitened_means,
        log_weights,
        log_norm_consts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(13)
    }

    fn means_of(rows: &[Vec<f64>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    fn two_component_gmm() -> Gmm {
        Gmm::new(
            vec![0.3, 0.7],
            means_of(&[vec![-2.0, 0.0], vec![2.0, 1.0]]),
            vec![
                Matrix::from_rows(&[vec![1.0, 0.2], vec![0.2, 0.5]]).unwrap(),
                Matrix::from_rows(&[vec![0.5, 0.0], vec![0.0, 1.5]]).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Gmm::new(vec![], Matrix::zeros(0, 0), vec![]).is_err());
        assert!(Gmm::new(vec![1.0], means_of(&[vec![0.0]]), vec![]).is_err());
        assert!(Gmm::new(
            vec![1.0],
            means_of(&[vec![0.0, 0.0]]),
            vec![Matrix::identity(3)]
        )
        .is_err());
        assert!(Gmm::new(vec![0.0], means_of(&[vec![0.0]]), vec![Matrix::identity(1)]).is_err());
        assert!(Gmm::isotropic(vec![1.0], means_of(&[vec![0.0]]), 0.0).is_err());
    }

    #[test]
    fn construction_rejects_non_finite_parameters() {
        let good = || {
            (
                vec![0.5, 0.5],
                means_of(&[vec![0.0], vec![1.0]]),
                vec![Matrix::identity(1); 2],
            )
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let (mut weights, means, covs) = good();
            weights[1] = bad;
            assert!(Gmm::new(weights, means, covs).is_err(), "weight {bad}");
            let (weights, mut means, covs) = good();
            means.set(1, 0, bad);
            assert!(Gmm::new(weights, means, covs).is_err(), "mean {bad}");
            let (weights, means, mut covs) = good();
            covs[0].set(0, 0, bad);
            assert!(Gmm::new(weights, means, covs).is_err(), "covariance {bad}");
        }
        let (weights, means, covs) = good();
        assert!(Gmm::new(weights, means, covs).is_ok());
    }

    #[test]
    fn weights_are_normalized() {
        let gmm = Gmm::isotropic(vec![2.0, 6.0], means_of(&[vec![0.0], vec![1.0]]), 1.0).unwrap();
        assert!((gmm.weights()[0] - 0.25).abs() < 1e-12);
        assert!((gmm.weights()[1] - 0.75).abs() < 1e-12);
        assert_eq!(gmm.n_components(), 2);
        assert_eq!(gmm.dim(), 1);
    }

    #[test]
    fn single_gaussian_density_matches_closed_form() {
        let gmm = Gmm::isotropic(vec![1.0], means_of(&[vec![0.0, 0.0]]), 1.0).unwrap();
        // Standard normal at origin: log p = -log(2π).
        let expected = -(2.0 * std::f64::consts::PI).ln();
        assert!((gmm.log_density(&[0.0, 0.0]) - expected).abs() < 1e-10);
        // At (1, 0): subtract 1/2.
        assert!((gmm.log_density(&[1.0, 0.0]) - (expected - 0.5)).abs() < 1e-10);
    }

    #[test]
    fn responsibilities_sum_to_one_and_favor_nearest() {
        let gmm = two_component_gmm();
        let r = gmm.responsibilities(&[2.0, 1.0]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(r[1] > 0.9);
        let r = gmm.responsibilities(&[-2.0, 0.0]);
        assert!(r[0] > 0.9);
    }

    #[test]
    fn sampling_recovers_component_means() {
        let mut r = rng();
        let gmm = two_component_gmm();
        let samples = gmm.sample_n(&mut r, 8000);
        // Split by nearest mean and check the empirical means/mixing weight.
        let mut count1 = 0usize;
        let mut sum0 = vec![0.0; 2];
        let mut sum1 = vec![0.0; 2];
        for row in samples.row_iter() {
            if vector::distance(row, &[2.0, 1.0]) < vector::distance(row, &[-2.0, 0.0]) {
                count1 += 1;
                vector::axpy(1.0, row, &mut sum1);
            } else {
                vector::axpy(1.0, row, &mut sum0);
            }
        }
        let frac1 = count1 as f64 / 8000.0;
        assert!((frac1 - 0.7).abs() < 0.05, "weight {frac1}");
        assert!((sum1[0] / count1 as f64 - 2.0).abs() < 0.1);
        assert!((sum0[0] / (8000 - count1) as f64 + 2.0).abs() < 0.1);
    }

    #[test]
    fn in_place_sample_matches_mean_plus_l_z_from_an_allocated_z() {
        // The reference is the allocating sampler: pick a component, draw
        // z into a fresh vector, then set each entry to mean + Σ_j L[i][j]
        // z[j]. Full 4 × 4 covariances give every row of L off-diagonal
        // terms, so an entry overwritten too early would show.
        let d = 4;
        let cov = |s: f64| Matrix::from_fn(d, d, |i, j| if i == j { 1.0 + s } else { 0.3 * s });
        let gmm = Gmm::new(
            vec![0.2, 0.5, 0.3],
            Matrix::from_fn(3, d, |k, i| (k * d + i) as f64 * 0.7 - 3.0),
            vec![cov(0.5), cov(1.0), cov(2.0)],
        )
        .unwrap();
        let mut r1 = rng();
        let mut r2 = rng();
        let mut out = vec![f64::NAN; d];
        for _ in 0..500 {
            gmm.sample(&mut r1, &mut out);
            let k = sampling::categorical(&mut r2, gmm.weights());
            let z = sampling::normal_vec(&mut r2, d, 1.0);
            let l = gmm.factors[k].lower();
            let reference: Vec<f64> = (0..d)
                .map(|i| {
                    let mut acc = 0.0;
                    for (j, &zj) in z.iter().enumerate().take(i + 1) {
                        acc += l.get(i, j) * zj;
                    }
                    gmm.means().get(k, i) + acc
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&reference));
        }
    }

    #[test]
    fn mean_log_likelihood_prefers_generating_model() {
        let mut r = rng();
        let gmm = two_component_gmm();
        let data = gmm.sample_n(&mut r, 500);
        let wrong = Gmm::isotropic(vec![1.0], means_of(&[vec![10.0, 10.0]]), 1.0).unwrap();
        assert!(gmm.mean_log_likelihood(&data) > wrong.mean_log_likelihood(&data));
        assert_eq!(wrong.mean_log_likelihood(&Matrix::zeros(0, 2)), 0.0);
    }

    #[test]
    fn kl_to_component_zero_when_equal() {
        // Component 0: isotropic unit variance at origin; q identical.
        let gmm = Gmm::isotropic(vec![1.0], means_of(&[vec![0.0, 0.0]]), 1.0).unwrap();
        let (v, gm, gl) = gmm.kl_diag_to_component(0, &[0.0, 0.0], &[0.0, 0.0]);
        assert!(v.abs() < 1e-10);
        assert!(gm.iter().all(|g| g.abs() < 1e-10));
        assert!(gl.iter().all(|g| g.abs() < 1e-10));
    }

    #[test]
    fn kl_to_component_matches_diagonal_formula() {
        // Against the diagonal-vs-diagonal closed form in p3gm-nn::loss.
        let gmm = Gmm::new(
            vec![1.0],
            means_of(&[vec![1.0, -0.5]]),
            vec![Matrix::from_diagonal(&[2.0, 0.7])],
        )
        .unwrap();
        let mu = [0.3, 0.4];
        let logvar = [0.1, -0.3];
        let (v, gm, gl) = gmm.kl_diag_to_component(0, &mu, &logvar);
        let (v2, gm2, gl2) =
            p3gm_nn::loss::kl_diag_gaussians(&mu, &logvar, &[1.0, -0.5], &[2.0, 0.7]);
        assert!((v - v2).abs() < 1e-9);
        for i in 0..2 {
            assert!((gm[i] - gm2[i]).abs() < 1e-9);
            assert!((gl[i] - gl2[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn kl_to_component_gradients_match_finite_differences() {
        let gmm = two_component_gmm();
        let mu = [0.5, -0.2];
        let logvar = [-0.4, 0.3];
        let (_, gm, gl) = gmm.kl_diag_to_component(1, &mu, &logvar);
        let h = 1e-6;
        for i in 0..2 {
            let mut mp = mu;
            mp[i] += h;
            let mut mm = mu;
            mm[i] -= h;
            let numeric = (gmm.kl_diag_to_component(1, &mp, &logvar).0
                - gmm.kl_diag_to_component(1, &mm, &logvar).0)
                / (2.0 * h);
            assert!((gm[i] - numeric).abs() < 1e-5, "mu[{i}]");
            let mut lp = logvar;
            lp[i] += h;
            let mut lm = logvar;
            lm[i] -= h;
            let numeric = (gmm.kl_diag_to_component(1, &mu, &lp).0
                - gmm.kl_diag_to_component(1, &mu, &lm).0)
                / (2.0 * h);
            assert!((gl[i] - numeric).abs() < 1e-5, "logvar[{i}]");
        }
    }

    #[test]
    fn kl_to_mixture_reduces_to_single_component() {
        let gmm = Gmm::isotropic(vec![1.0], means_of(&[vec![1.0, 2.0]]), 0.5).unwrap();
        let mu = [0.2, 0.9];
        let logvar = [-0.1, 0.4];
        let (single, gm_s, gl_s) = gmm.kl_diag_to_component(0, &mu, &logvar);
        let (mix, gm_m, gl_m) = gmm.kl_diag_to_mixture(&mu, &logvar);
        assert!((single - mix).abs() < 1e-10);
        for i in 0..2 {
            assert!((gm_s[i] - gm_m[i]).abs() < 1e-10);
            assert!((gl_s[i] - gl_m[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn kl_to_mixture_gradients_match_finite_differences() {
        let gmm = two_component_gmm();
        let mu = [0.5, -0.2];
        let logvar = [-0.4, 0.3];
        let (_, gm, gl) = gmm.kl_diag_to_mixture(&mu, &logvar);
        let h = 1e-6;
        for i in 0..2 {
            let mut mp = mu;
            mp[i] += h;
            let mut mm = mu;
            mm[i] -= h;
            let numeric = (gmm.kl_diag_to_mixture(&mp, &logvar).0
                - gmm.kl_diag_to_mixture(&mm, &logvar).0)
                / (2.0 * h);
            assert!((gm[i] - numeric).abs() < 1e-5, "mu[{i}]");
            let mut lp = logvar;
            lp[i] += h;
            let mut lm = logvar;
            lm[i] -= h;
            let numeric = (gmm.kl_diag_to_mixture(&mu, &lp).0 - gmm.kl_diag_to_mixture(&mu, &lm).0)
                / (2.0 * h);
            assert!((gl[i] - numeric).abs() < 1e-5, "logvar[{i}]");
        }
    }

    #[test]
    fn kl_to_mixture_smaller_near_a_component() {
        let gmm = two_component_gmm();
        let (near, _, _) = gmm.kl_diag_to_mixture(&[2.0, 1.0], &[-1.0, -1.0]);
        let (far, _, _) = gmm.kl_diag_to_mixture(&[10.0, 10.0], &[-1.0, -1.0]);
        assert!(near < far);
    }

    #[test]
    fn byte_round_trip_samples_bit_identically() {
        let gmm = two_component_gmm();
        let back = Gmm::from_bytes(&gmm.to_bytes()).unwrap();
        assert_eq!(back.weights(), gmm.weights());
        assert_eq!(back.means().as_slice(), gmm.means().as_slice());
        for (a, b) in back.covariances().iter().zip(gmm.covariances().iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // The rebuilt caches reproduce the exact sample stream.
        let mut r1 = rng();
        let mut r2 = rng();
        let (mut a, mut b) = ([0.0; 2], [0.0; 2]);
        for _ in 0..50 {
            gmm.sample(&mut r1, &mut a);
            back.sample(&mut r2, &mut b);
            assert_eq!(a, b);
        }
        // And densities match bitwise too.
        assert_eq!(
            gmm.log_density(&[0.3, -0.4]).to_bits(),
            back.log_density(&[0.3, -0.4]).to_bits()
        );
    }

    #[test]
    fn from_bytes_rejects_malformed_buffers() {
        let gmm = two_component_gmm();
        let bytes = gmm.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Gmm::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut corrupted = bytes.clone();
        corrupted[bytes.len() / 3] ^= 0x20;
        assert!(Gmm::from_bytes(&corrupted).is_err());
        // Unnormalized weights are rejected even inside a valid frame.
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::GMM);
        enc.f64_slice(&[2.0, 6.0]);
        enc.nested(&gmm.means().to_bytes());
        enc.usize(2);
        for cov in gmm.covariances() {
            enc.nested(&cov.to_bytes());
        }
        assert!(matches!(
            Gmm::from_bytes(&enc.finish()),
            Err(p3gm_store::StoreError::Invalid { .. })
        ));
        // Non-finite means are rejected: they would make every sample NaN.
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::GMM);
        enc.f64_slice(gmm.weights());
        enc.nested(&Matrix::filled(2, 2, f64::NAN).to_bytes());
        enc.usize(2);
        for cov in gmm.covariances() {
            enc.nested(&cov.to_bytes());
        }
        assert!(matches!(
            Gmm::from_bytes(&enc.finish()),
            Err(p3gm_store::StoreError::Invalid { .. })
        ));
    }

    #[test]
    fn a_huge_claimed_covariance_count_is_invalid_before_any_allocation() {
        // A count of 2^60 covariances against two weights is rejected
        // before a covariance is read; reserving space for it would
        // abort the process instead.
        let gmm = two_component_gmm();
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::GMM);
        enc.f64_slice(gmm.weights());
        enc.nested(&gmm.means().to_bytes());
        enc.usize(1 << 60);
        assert!(matches!(
            Gmm::from_bytes(&enc.finish()),
            Err(p3gm_store::StoreError::Invalid { .. })
        ));
    }

    #[test]
    fn indefinite_covariance_is_repaired() {
        // A covariance that is slightly indefinite (as DP-EM noise can
        // produce) should be accepted thanks to the jittered factorization.
        let cov = Matrix::from_rows(&[vec![1.0, 1.0005], vec![1.0005, 1.0]]).unwrap();
        let gmm = Gmm::new(vec![1.0], means_of(&[vec![0.0, 0.0]]), vec![cov]);
        assert!(gmm.is_ok());
    }
}
