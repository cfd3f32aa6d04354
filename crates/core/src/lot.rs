//! The Decoding-Phase trainer both models share: one epoch loop
//! ([`train_epoch`]) and one DP-SGD step ([`step_gradient`]).
//!
//! DP-SGD (paper §II-D) clips each example's gradient to norm `C`, adds
//! `N(0, σ²C²I)` to the lot's sum and divides by the lot size. The ε of
//! both [`crate::pgm`] and [`crate::vae`] rests on that mechanism, so it
//! is written once, here. A model supplies what differs through
//! [`LotModel`]: its widths, its flat trainable-parameter layout and the
//! gradient of a chunk of a lot ([`LotModel::lot_chunk`]).
//!
//! A step is one parallel dispatch. The lot splits into row chunks of a
//! length that depends only on the lot size. Each chunk runs the batched
//! forward passes, the per-row loss glue and the batched backward passes,
//! then clips and sums its examples' gradients without forming them
//! (`p3gm_nn::dpsgd::clip_and_sum_batch`). The chunk partials fold in
//! chunk order, so a lot's sum is bit-identical for every thread count.
//! While the helpers map the first chunks, the calling thread draws the
//! step's DP noise from the trainer's rng (the dispatch's prologue), in
//! the same rng order as drawing it after the lot.

use crate::averaging::PolyakAverager;
use crate::config::DecoderLoss;
use crate::history::EpochStats;
use crate::report::{elapsed_nanos, TrainReport};
use crate::{CoreError, Result};
use p3gm_linalg::Matrix;
use p3gm_nn::dpsgd::{sample_batch_indices, DpSgdConfig};
use p3gm_nn::loss::{bce_with_logits, sse};
use p3gm_nn::optimizer::{Adam, Optimizer};
use p3gm_obs::TimeSource;
use p3gm_privacy::sampling;
use rand::Rng;

/// Rows per chunk are the default chunk length rounded up to this many.
const LOT_TILE: usize = 16;

/// Each row's (reconstruction, KL) loss, in row order.
pub(crate) type RowLosses = Vec<(f64, f64)>;

/// What a chunk of a lot contributes: the clipped gradient sum of its
/// rows, how many of them were clipped, and each row's (reconstruction,
/// KL) loss in row order.
pub(crate) struct LotSum {
    pub(crate) gradient: Vec<f64>,
    pub(crate) clipped: u64,
    pub(crate) losses: RowLosses,
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

/// What a model supplies to the shared trainer. A trait rather than
/// closures, because an epoch alternates `&self` chunk work with
/// `&mut self` parameter installs.
pub(crate) trait LotModel: Sync {
    /// Width of a data row.
    fn data_dim(&self) -> usize;
    /// Width of the latent space: the reparametrization noise per row.
    fn latent_dim(&self) -> usize;
    /// Number of trainable parameters, the length of [`Self::flat_params`].
    fn num_params(&self) -> usize;
    /// The trainable parameters as one flat vector.
    fn flat_params(&self) -> Vec<f64>;
    /// Installs a flat vector in the layout of [`Self::flat_params`].
    fn set_flat_params(&mut self, params: &[f64]);
    /// The contribution of one chunk of a lot — rows `indices` of `data`
    /// with their pre-drawn standard-normal reparametrization noise `eps`
    /// (row-major) — to the step: the gradient sum over the trainable
    /// parameters in the flat layout, each example clipped to `clip_norm`
    /// when given, plus the clip count and the rows' reconstruction and KL
    /// losses. Deterministic, so it is safe to run on worker threads.
    fn lot_chunk(
        &self,
        data: &Matrix,
        indices: &[usize],
        eps: &[f64],
        clip_norm: Option<f64>,
    ) -> LotSum;
    /// The model's optimizer state.
    fn trainer(&mut self) -> &mut Trainer;
}

/// The optimizer state a model carries between epochs: Adam, the raw
/// iterate, its Polyak average and the number of epochs trained.
#[derive(Debug, Clone)]
pub(crate) struct Trainer {
    optimizer: Adam,
    /// Raw (non-averaged) optimizer iterate. Between epochs the networks
    /// hold the Polyak-averaged weights, which inference and sampling use;
    /// the optimizer continues from this iterate.
    raw_params: Option<Vec<f64>>,
    averager: PolyakAverager,
    epochs: usize,
}

impl Trainer {
    /// A trainer that counts `epochs` epochs done, with a fresh Adam at
    /// `learning_rate` and a Polyak averager of per-step `decay`.
    pub(crate) fn new(learning_rate: f64, decay: f64, epochs: usize) -> Self {
        Trainer {
            optimizer: Adam::new(learning_rate),
            raw_params: None,
            averager: PolyakAverager::new(decay),
            epochs,
        }
    }

    /// Number of epochs trained so far.
    pub(crate) fn epochs(&self) -> usize {
        self.epochs
    }
}

/// Steps per epoch on `n` rows with lots of `batch_size`: `⌈n / B⌉`, at
/// least one. The epoch loop and the step counts the accountant charges
/// (`PgmConfig::sgd_steps`, `VaeConfig::sgd_steps`) all take it from here.
pub(crate) fn steps_per_epoch(n: usize, batch_size: usize) -> usize {
    n.div_ceil(batch_size.max(1)).max(1)
}

/// One epoch of training: `⌈n / B⌉` steps on lots of `B = min(batch_size,
/// n)` rows sampled without replacement, each an Adam update with the
/// gradient of [`step_gradient`], then the Polyak average installed for
/// inference. `dp` is DP-SGD's clip norm `C` and noise multiplier σ, or
/// `None` for plain training. The optimizer updates are recorded as the
/// `"optimizer"` phase, and the epoch and its steps' counts go into
/// `report`.
pub(crate) fn train_epoch<M: LotModel, R: Rng + ?Sized>(
    model: &mut M,
    rng: &mut R,
    data: &Matrix,
    batch_size: usize,
    dp: Option<(f64, f64)>,
    report: &mut TrainReport,
    timer: Option<&dyn TimeSource>,
) -> Result<EpochStats> {
    let width = model.data_dim();
    if data.cols() != width {
        return Err(CoreError::InvalidData {
            msg: format!("expected {width} features, got {}", data.cols()),
        });
    }
    let n = data.rows();
    if n == 0 {
        return Err(CoreError::InvalidData {
            msg: "empty training data".to_string(),
        });
    }
    let batch = batch_size.min(n).max(1);
    let steps = steps_per_epoch(n, batch_size);
    let dp = dp.map(|(clip_norm, noise_multiplier)| DpSgdConfig {
        clip_norm,
        noise_multiplier,
        batch_size: batch,
    });

    // Resume from the raw optimizer iterate, and install it before
    // computing any gradients: the networks hold the previous epoch's
    // averaged weights, but gradients must be evaluated at the point the
    // optimizer actually updates.
    let mut params = match model.trainer().raw_params.take() {
        Some(p) => p,
        None => model.flat_params(),
    };
    model.set_flat_params(&params);
    let mut recon_sum = 0.0;
    let mut kl_sum = 0.0;
    let mut examples = 0usize;

    for _ in 0..steps {
        let indices = sample_batch_indices(rng, n, batch);
        let (gradient, losses) = step_gradient(&*model, rng, data, &indices, dp, report, timer)?;
        for (recon, kl) in losses {
            recon_sum += recon;
            kl_sum += kl;
            examples += 1;
        }
        let start = timer.map(TimeSource::now_nanos);
        model.trainer().optimizer.step(&mut params, &gradient);
        model.set_flat_params(&params);
        model.trainer().averager.update(&params);
        report.record_phase(timer, "optimizer", start);
    }

    // Install the averaged weights for inference; keep the raw iterate
    // so the next epoch's optimization continues undisturbed.
    if let Some(avg) = model.trainer().averager.average() {
        model.trainer().raw_params = Some(params);
        model.set_flat_params(&avg);
    }

    let trainer = model.trainer();
    let stats = EpochStats {
        epoch: trainer.epochs,
        reconstruction_loss: recon_sum / examples.max(1) as f64,
        kl_loss: kl_sum / examples.max(1) as f64,
        steps,
    };
    trainer.epochs += 1;
    report.epochs += 1;
    Ok(stats)
}

/// One step's gradient over the lot `indices` of `data`: the privatized
/// average gradient when `dp` is set (DP-SGD), else the plain average,
/// with each row's (reconstruction, KL) loss.
///
/// The lot's reparametrization noise is drawn serially (row-major, the
/// rng order of the per-example loop it replaced). Then one dispatch
/// sums the lot on parallel row chunks, bit-identical for every thread
/// count, while this thread draws the step's DP noise: the rng order is
/// the same as drawing it after the lot. Records the step's
/// `"lot_gradients"` and `"dp_noise"` phases and counts into `report`.
pub(crate) fn step_gradient<M: LotModel, R: Rng + ?Sized>(
    model: &M,
    rng: &mut R,
    data: &Matrix,
    indices: &[usize],
    dp: Option<DpSgdConfig>,
    report: &mut TrainReport,
    timer: Option<&dyn TimeSource>,
) -> Result<(Vec<f64>, RowLosses)> {
    let b = indices.len();
    let eps: Vec<f64> = (0..b * model.latent_dim())
        .map(|_| sampling::normal(rng, 0.0, 1.0))
        .collect();
    let dim = model.num_params();
    let draw_noise = || {
        dp.map(|cfg| {
            let start = timer.map(TimeSource::now_nanos);
            let noise = cfg.draw_noise(rng, dim);
            (noise, elapsed_nanos(timer, start))
        })
    };
    let clip_norm = dp.map(|cfg| cfg.clip_norm);
    let start = timer.map(TimeSource::now_nanos);
    let (noise, lot) = sum_lot(model, data, indices, &eps, clip_norm, draw_noise);
    report.record_phase(timer, "lot_gradients", start);
    let gradient = match noise {
        Some((noise, draw_nanos)) => {
            let noise = noise.map_err(|e| CoreError::Substrate { msg: e.to_string() })?;
            report.record_nanos("dp_noise", draw_nanos);
            report.dp_sgd_steps += 1;
            report.clipped_examples += lot.clipped;
            report.clip_measured_examples += b as u64;
            noise.apply(lot.gradient)
        }
        None => {
            let mut avg = lot.gradient;
            p3gm_linalg::vector::scale(1.0 / b as f64, &mut avg);
            avg
        }
    };
    Ok((gradient, lot.losses))
}

/// Sums the lot `indices` of `data`, with each row's reparametrization
/// noise in `eps` (row-major), in one dispatch over row chunks. The
/// calling thread runs `prologue` first, while the helpers already map
/// chunks, and its result is returned beside the sum.
///
/// # Panics
/// Panics if `indices` is empty.
fn sum_lot<M: LotModel, P>(
    model: &M,
    data: &Matrix,
    indices: &[usize],
    eps: &[f64],
    clip_norm: Option<f64>,
    prologue: impl FnOnce() -> P,
) -> (P, LotSum) {
    let d = model.latent_dim();
    let rows = indices.len();
    let (head, lot) = p3gm_parallel::par_map_reduce_with_prologue(
        rows,
        p3gm_parallel::default_tile(rows, LOT_TILE),
        prologue,
        |range| {
            let eps = &eps[range.start * d..range.end * d];
            model.lot_chunk(data, &indices[range], eps, clip_norm)
        },
        LotSum::fold,
    );
    (head, lot.expect("a lot has at least one row"))
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

/// Test support shared by the models' unit tests: a lot's sum through
/// the production path, checked against the materialized per-example
/// reference.
#[cfg(test)]
pub(crate) mod reference {
    use super::{sum_lot, LotModel, LotSum};
    use p3gm_linalg::{vector, Matrix};
    use p3gm_privacy::mechanisms::clip_and_sum_gradients_counted;

    /// A lot's clipped sum through the production path: rows `indices` of
    /// `data` with reparametrization noise `eps`, one dispatch.
    pub(crate) fn lot_sum<M: LotModel>(
        model: &M,
        data: &Matrix,
        indices: &[usize],
        eps: &[f64],
        clip_norm: Option<f64>,
    ) -> LotSum {
        sum_lot(model, data, indices, eps, clip_norm, || ()).1
    }

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

    /// Asserts that a DP-SGD step adds its noise exactly once and at the
    /// calibrated scale. `step(σ)` returns the step's gradient for noise
    /// multiplier σ from one fixed rng state, and `clipped_average` is the
    /// same lot's clipped gradient sum divided by the lot size `b`. At
    /// σ = 0 the step must return `clipped_average` exactly. At `sigma`,
    /// the rescaled difference `(noisy − clipped_average) · b / (σ C)` over
    /// all `P` coordinates must look standard normal: mean within `5/√P`
    /// of 0 and variance within `1 ± 5·√(2/P)`. Noise left out gives
    /// variance 0; noise added twice gives 2 or 4.
    pub(crate) fn assert_step_noise_is_calibrated(
        step: impl Fn(f64) -> Vec<f64>,
        clipped_average: &[f64],
        b: usize,
        clip_norm: f64,
        sigma: f64,
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&step(0.0)),
            bits(clipped_average),
            "at σ = 0 a step must be exactly the clipped average"
        );
        let noisy = step(sigma);
        let p = noisy.len() as f64;
        assert_eq!(noisy.len(), clipped_average.len());
        let z: Vec<f64> = noisy
            .iter()
            .zip(clipped_average)
            .map(|(&n, &a)| (n - a) * b as f64 / (sigma * clip_norm))
            .collect();
        let mean = z.iter().sum::<f64>() / p;
        let variance = z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / p;
        assert!(
            mean.abs() <= 5.0 / p.sqrt(),
            "noise mean {mean} over {p} coordinates"
        );
        assert!(
            (variance - 1.0).abs() <= 5.0 * (2.0 / p).sqrt(),
            "noise variance {variance} over {p} coordinates, expected 1"
        );
    }
}
