//! One DP-SGD lot of a trainer as one parallel dispatch.
//!
//! Both trainers ([`crate::pgm`] and [`crate::vae`]) split a lot into row
//! chunks of a length that depends only on the lot size. Each chunk runs
//! the batched forward passes, the per-row loss glue and the batched
//! backward passes, then clips and sums its examples' gradients without
//! forming them (`p3gm_nn::dpsgd::clip_and_sum_batch`). The chunk
//! partials fold in chunk order, so a lot's sum is bit-identical for every
//! thread count.

use crate::config::DecoderLoss;
use p3gm_linalg::Matrix;
use p3gm_nn::loss::{bce_with_logits, sse};
use std::ops::Range;

/// Rows per chunk are the default chunk length rounded up to this many.
const LOT_TILE: usize = 16;

/// What a chunk of a lot contributes: the clipped gradient sum of its
/// rows, how many of them were clipped, and each row's (reconstruction,
/// KL) loss in row order.
pub(crate) struct LotSum {
    pub(crate) gradient: Vec<f64>,
    pub(crate) clipped: u64,
    pub(crate) losses: Vec<(f64, f64)>,
}

impl LotSum {
    /// Folds the next chunk's contribution into this one.
    fn fold(mut self, next: LotSum) -> LotSum {
        for (a, b) in self.gradient.iter_mut().zip(&next.gradient) {
            *a += b;
        }
        self.clipped += next.clipped;
        self.losses.extend(next.losses);
        self
    }
}

/// Sums a lot of `rows` examples: `chunk` computes the contribution of one
/// range of rows, and one `par_map_reduce` dispatch covers the lot.
///
/// # Panics
/// Panics if `rows` is zero.
pub(crate) fn sum_lot(rows: usize, chunk: impl Fn(Range<usize>) -> LotSum + Sync) -> LotSum {
    p3gm_parallel::par_map_reduce(
        rows,
        p3gm_parallel::default_tile(rows, LOT_TILE),
        chunk,
        LotSum::fold,
    )
    .expect("a lot has at least one row")
}

/// The reparametrized latent sample `z = µ + σ ⊙ ε` with `σ = exp(½ logvar)`,
/// row by row; `eps` holds one row of standard-normal noise per row of
/// `mu`. Returns `(σ, z)`.
pub(crate) fn reparametrize(mu: &Matrix, logvar: &Matrix, eps: &[f64]) -> (Matrix, Matrix) {
    let sigma = logvar.map(|l| (0.5 * l).exp());
    let mut z = mu.clone();
    for ((z, &s), &e) in z.as_mut_slice().iter_mut().zip(sigma.as_slice()).zip(eps) {
        *z += s * e;
    }
    (sigma, z)
}

/// Each row's reconstruction loss of `x` under the decoder's `logits`, and
/// the loss gradient with respect to the logits (one row per example).
pub(crate) fn reconstruction(loss: DecoderLoss, logits: &Matrix, x: &Matrix) -> (Vec<f64>, Matrix) {
    let mut grad = Matrix::zeros(x.rows(), x.cols());
    let losses = (0..x.rows())
        .map(|i| {
            let (value, g) = match loss {
                DecoderLoss::Bernoulli => bce_with_logits(logits.row(i), x.row(i)),
                DecoderLoss::Gaussian => sse(logits.row(i), x.row(i)),
            };
            grad.row_mut(i).copy_from_slice(&g);
            value
        })
        .collect();
    (losses, grad)
}

/// Test support shared by the trainers' unit tests: checks a lot's
/// factored sum against the materialized per-example reference.
#[cfg(test)]
pub(crate) mod reference {
    use super::LotSum;
    use p3gm_linalg::{vector, Matrix};
    use p3gm_privacy::mechanisms::clip_and_sum_gradients_counted;

    /// First-order bound on the difference between two fixed summation
    /// orders of the same terms: `2 n ε Σ|tᵢ|`, padded for sums near zero.
    fn reorder_tol(n_terms: usize, abs_sum: f64) -> f64 {
        2.0 * n_terms as f64 * f64::EPSILON * abs_sum + 1e-300
    }

    /// A clip norm halfway (geometrically) between the two middle row
    /// norms of `rows`, so about half the rows are clipped and no norm lies
    /// within rounding of it.
    pub(crate) fn clip_between_norms(rows: &Matrix) -> f64 {
        let mut norms: Vec<f64> = rows.row_iter().map(vector::norm2).collect();
        norms.sort_by(f64::total_cmp);
        let mid = norms.len() / 2;
        (norms[mid.saturating_sub(1)] * norms[mid]).sqrt()
    }

    /// Asserts that `lot` equals the reference computed from the
    /// materialized per-example gradients `rows` and the per-row `losses`:
    /// identical losses and clip counts, and every gradient entry within
    /// the reordering bound over the clipped column mass.
    pub(crate) fn assert_matches_rows(
        lot: &LotSum,
        rows: &Matrix,
        losses: &[(f64, f64)],
        clip_norm: Option<f64>,
    ) {
        assert_eq!(lot.losses, losses, "per-row losses");
        let (reference, clipped) = match clip_norm {
            Some(c) => clip_and_sum_gradients_counted(rows, c),
            None => (rows.column_sums(), 0),
        };
        assert_eq!(lot.clipped, clipped, "clipped count at C = {clip_norm:?}");
        let mut abs_mass = vec![0.0; rows.cols()];
        for row in rows.row_iter() {
            let norm = vector::norm2(row);
            let factor = match clip_norm {
                Some(c) if norm > c => c / norm,
                _ => 1.0,
            };
            vector::axpy(
                factor,
                &row.iter().map(|v| v.abs()).collect::<Vec<_>>(),
                &mut abs_mass,
            );
        }
        assert_eq!(lot.gradient.len(), reference.len());
        for (j, (&got, &want)) in lot.gradient.iter().zip(&reference).enumerate() {
            let tol = reorder_tol(rows.rows() + rows.cols(), abs_mass[j]);
            assert!(
                (got - want).abs() <= tol,
                "entry {j} at C = {clip_norm:?}: lot {got} vs reference {want} (tol {tol})"
            );
        }
    }

    /// With no noise, adding one adversarial example to a lot must move the
    /// clipped sum by at most `clip_norm` plus rounding. `sum(indices,
    /// clip)` is a lot's clipped sum and `with` is `base` plus the
    /// adversarial example. Without clipping (C = 1e300) the same example
    /// must move the sum by more, which shows the check can fail.
    pub(crate) fn assert_one_row_moves_sum_by_at_most_c(
        sum: impl Fn(&[usize], f64) -> Vec<f64>,
        base: &[usize],
        with: &[usize],
        clip_norm: f64,
    ) {
        let moved = |clip: f64| {
            let (a, b) = (sum(base, clip), sum(with, clip));
            let tol = 1e-12 * (vector::norm1(&a) + (a.len() as f64).sqrt() * clip_norm);
            (vector::distance(&a, &b), tol)
        };
        let (clipped, tol) = moved(clip_norm);
        assert!(
            clipped <= clip_norm + tol,
            "one example moved the clipped sum by {clipped} > C = {clip_norm}"
        );
        let (unclipped, tol) = moved(1e300);
        assert!(
            unclipped > clip_norm + tol,
            "the adversarial example is too weak to test clipping: {unclipped}"
        );
    }
}
