//! Variational autoencoder with end-to-end training — the `VAE` and
//! `DP-VAE` baselines of the paper.
//!
//! The encoder maps `x` to the mean and log-variance of a diagonal Gaussian
//! `q_φ(z|x)`; the decoder maps a reparametrized sample `z = µ + σ ⊙ ε`
//! back to Bernoulli logits over `x`. The objective is the negative ELBO
//! of paper Eq. (1) with the standard-normal prior. With `sigma_s > 0` the
//! gradients are privatized with DP-SGD (DP-VAE), through the same
//! trainer as the P3GM Decoding Phase (the crate's `lot` module).

use crate::config::VaeConfig;
use crate::history::{EpochStats, TrainingHistory};
use crate::lot::{self, reconstruction, reparametrize, LotModel, LotSum, Trainer};
use crate::report::TrainReport;
use crate::{GenerativeModel, Result};
use p3gm_linalg::Matrix;
use p3gm_nn::activation::{sigmoid, Activation};
use p3gm_nn::dpsgd::clip_and_sum_batch;
use p3gm_nn::loss::{bce_with_logits, kl_diag_gaussian_standard};
use p3gm_nn::mlp::Mlp;
use p3gm_privacy::rdp::{DpSgdBound, PrivacySpec, RdpAccountant};
use p3gm_privacy::sampling;
use rand::Rng;

/// A (DP-)VAE with two-layer MLP encoder and decoder.
#[derive(Debug, Clone)]
pub struct Vae {
    encoder: Mlp,
    decoder: Mlp,
    config: VaeConfig,
    data_dim: usize,
    trainer: Trainer,
}

impl Vae {
    /// Builds an untrained VAE for `data_dim`-dimensional data, after the
    /// checks of [`VaeConfig::validate`] that do not depend on the number
    /// of rows.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, data_dim: usize, config: VaeConfig) -> Result<Self> {
        config.validate_for_dim(data_dim)?;
        let encoder = Mlp::new(
            rng,
            &[data_dim, config.hidden_dim, 2 * config.latent_dim],
            Activation::Relu,
            Activation::Identity,
        );
        let decoder = Mlp::new(
            rng,
            &[config.latent_dim, config.hidden_dim, data_dim],
            Activation::Relu,
            Activation::Identity,
        );
        let trainer = Trainer::new(config.learning_rate, 0.95, 0);
        Ok(Vae {
            encoder,
            decoder,
            config,
            data_dim,
            trainer,
        })
    }

    /// Trains a VAE on `data` (rows in `[0, 1]` for the Bernoulli decoder)
    /// for the configured number of epochs.
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        data: &Matrix,
        config: VaeConfig,
    ) -> Result<(Self, TrainingHistory)> {
        config.validate(data.rows(), data.cols())?;
        let mut vae = Vae::new(rng, data.cols(), config)?;
        let mut history = TrainingHistory::new();
        for _ in 0..vae.config.epochs {
            history.push(vae.train_epoch(rng, data)?);
        }
        Ok((vae, history))
    }

    /// The training configuration.
    pub fn config(&self) -> &VaeConfig {
        &self.config
    }

    /// Dimensionality of the data space.
    pub fn data_dim(&self) -> usize {
        self.data_dim
    }

    /// Number of epochs trained so far.
    pub fn trained_epochs(&self) -> usize {
        self.trainer.epochs()
    }

    /// Total number of trainable parameters (encoder + decoder).
    pub fn num_params(&self) -> usize {
        self.encoder.num_params() + self.decoder.num_params()
    }

    /// Runs one epoch of training and returns its statistics. Exposed so the
    /// learning-efficiency experiments (Figure 7) can evaluate the model
    /// after every epoch.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: &Matrix,
    ) -> Result<EpochStats> {
        let c = &self.config;
        let dp = c.is_private().then_some((c.clip_norm, c.sigma_s));
        let batch = c.batch_size;
        lot::train_epoch(self, rng, data, batch, dp, &mut TrainReport::new(), None)
    }

    /// Encodes one row to the mean and log-variance of `q_φ(z|x)`.
    pub fn encode(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let out = self.encoder.forward(x);
        let d = self.config.latent_dim;
        (out[..d].to_vec(), out[d..].to_vec())
    }

    /// Decodes each row of `latents` to its data-space mean, the sigmoid
    /// of the decoder's logits: one [`Mlp::forward_batch`] and an in-place
    /// sigmoid sweep. Row `i` is bit-identical to [`sigmoid`] applied to
    /// [`Mlp::forward`] of `latents.row(i)`, at every thread count.
    pub fn decode(&self, latents: &Matrix) -> Matrix {
        let mut means = self.decoder.forward_batch(latents);
        means.map_inplace(sigmoid);
        means
    }

    /// Average per-example reconstruction loss over a dataset (no sampling
    /// noise; uses the encoder mean). Accumulated over parallel row chunks
    /// with a deterministic in-order fold.
    pub fn reconstruction_loss(&self, data: &Matrix) -> f64 {
        let total = p3gm_parallel::par_map_reduce(
            data.rows(),
            p3gm_parallel::default_chunk_len(data.rows()),
            |range| {
                let mut sum = 0.0;
                for i in range {
                    let row = data.row(i);
                    let (mu, _) = self.encode(row);
                    let logits = self.decoder.forward(&mu);
                    sum += bce_with_logits(&logits, row).0;
                }
                sum
            },
            |a, b| a + b,
        )
        .unwrap_or(0.0);
        total / data.rows().max(1) as f64
    }

    /// The (ε, δ)-DP guarantee of training this configuration on `n` rows,
    /// or `None` for the non-private VAE.
    pub fn privacy_spec(&self, n: usize) -> Option<PrivacySpec> {
        if !self.config.is_private() {
            return None;
        }
        let mut acc = RdpAccountant::default();
        acc.add_dp_sgd(
            self.config.sgd_steps(n),
            self.config.sampling_probability(n),
            self.config.sigma_s,
            DpSgdBound::PaperEq4,
        )
        .ok()?;
        acc.to_dp(self.config.delta).ok()
    }
}

/// The trainable parameters: the encoder followed by the decoder.
impl LotModel for Vae {
    fn data_dim(&self) -> usize {
        self.data_dim
    }

    fn latent_dim(&self) -> usize {
        self.config.latent_dim
    }

    fn num_params(&self) -> usize {
        Vae::num_params(self)
    }

    fn flat_params(&self) -> Vec<f64> {
        let mut p = self.encoder.params();
        p.extend(self.decoder.params());
        p
    }

    fn set_flat_params(&mut self, params: &[f64]) {
        let enc_n = self.encoder.num_params();
        self.encoder.set_params(&params[..enc_n]);
        self.decoder.set_params(&params[enc_n..]);
    }

    /// A chunk's part of the ELBO step.
    fn lot_chunk(
        &self,
        data: &Matrix,
        indices: &[usize],
        eps: &[f64],
        clip_norm: Option<f64>,
    ) -> LotSum {
        let x = data
            .select_rows(indices)
            .expect("lot indices lie inside the data");
        let rows = x.rows();
        let d = self.config.latent_dim;
        let encoder = self.encoder.forward_batch_cached(&x);
        let enc_out = encoder.output();
        let mu = Matrix::from_fn(rows, d, |i, k| enc_out.get(i, k));
        let logvar = Matrix::from_fn(rows, d, |i, k| enc_out.get(i, d + k));

        // Reparametrization trick with the pre-drawn noise.
        let (sigma, z) = reparametrize(&mu, &logvar, eps);
        let decoder = self.decoder.forward_batch_cached(&z);
        let (recon, grad_logits) = reconstruction(decoder.output(), &x);
        let (decoder_grads, grad_z) = self.decoder.backward_batch(decoder, &grad_logits, true);
        let grad_z = grad_z.expect("the decoder input gradient was requested");

        // Chain the reconstruction gradient through the reparametrization.
        let mut grad_enc_out = Matrix::zeros(rows, 2 * d);
        let mut losses = Vec::with_capacity(rows);
        for (i, &recon) in recon.iter().enumerate() {
            let (kl, kl_grad_mu, kl_grad_logvar) =
                kl_diag_gaussian_standard(mu.row(i), logvar.row(i));
            let row = grad_enc_out.row_mut(i);
            for k in 0..d {
                let g = grad_z.get(i, k);
                row[k] = g + kl_grad_mu[k];
                row[d + k] = g * 0.5 * sigma.get(i, k) * eps[i * d + k] + kl_grad_logvar[k];
            }
            losses.push((recon, kl));
        }
        let (encoder_grads, _) = self.encoder.backward_batch(encoder, &grad_enc_out, false);
        let (gradient, clipped) = clip_and_sum_batch(&[&encoder_grads, &decoder_grads], clip_norm);
        LotSum {
            gradient,
            clipped,
            losses,
        }
    }

    fn trainer(&mut self) -> &mut Trainer {
        &mut self.trainer
    }
}

impl GenerativeModel for Vae {
    /// Draws each row's latent from the standard-normal prior into one
    /// `n × latent_dim` matrix, then decodes it in one batch.
    fn sample(&self, rng: &mut dyn rand::RngCore, n: usize) -> Matrix {
        let d = self.config.latent_dim;
        let mut latents = Matrix::zeros(n, d);
        for i in 0..n {
            latents
                .row_mut(i)
                .copy_from_slice(&sampling::normal_vec(rng, d, 1.0));
        }
        self.decode(&latents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lot::reference::lot_sum;
    use crate::CoreError;
    use p3gm_nn::dpsgd::DpSgdConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(111)
    }

    /// Tiny bimodal dataset in [0,1]^6: half the rows light up the first
    /// three features, half the last three.
    fn bimodal(rng: &mut StdRng, n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let hot = i % 2 == 0;
                (0..6)
                    .map(|j| {
                        let base = if (j < 3) == hot { 0.9 } else { 0.1 };
                        (base + sampling::normal(rng, 0.0, 0.05)).clamp(0.0, 1.0)
                    })
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn small_config() -> VaeConfig {
        VaeConfig {
            latent_dim: 2,
            hidden_dim: 16,
            epochs: 15,
            batch_size: 16,
            learning_rate: 5e-3,
            ..Default::default()
        }
    }

    /// The per-row path the lot path replaced, kept as its reference:
    /// example `x`'s full flat ELBO gradient (encoder block then decoder
    /// block) from single-example forward and backward passes, written
    /// into `out`. Returns the reconstruction and KL losses.
    fn example_gradient_reference(
        vae: &Vae,
        x: &[f64],
        eps: &[f64],
        out: &mut [f64],
    ) -> (f64, f64) {
        let d = vae.config.latent_dim;
        let enc_cache = vae.encoder.forward_cached(x);
        let enc_out = enc_cache.output();
        let (mu, logvar) = enc_out.split_at(d);
        let sigma: Vec<f64> = logvar.iter().map(|&l| (0.5 * l).exp()).collect();
        let z: Vec<f64> = (0..d).map(|i| mu[i] + sigma[i] * eps[i]).collect();
        let (enc_grads, dec_grads) = out.split_at_mut(vae.encoder.num_params());
        let dec_cache = vae.decoder.forward_cached(&z);
        let (recon, grad_logits) = bce_with_logits(dec_cache.output(), x);
        let grad_z = vae.decoder.backward(&dec_cache, &grad_logits, dec_grads);
        let (kl, kl_grad_mu, kl_grad_logvar) = kl_diag_gaussian_standard(mu, logvar);
        let mut grad_enc_out = vec![0.0; 2 * d];
        for i in 0..d {
            grad_enc_out[i] = grad_z[i] + kl_grad_mu[i];
            grad_enc_out[d + i] = grad_z[i] * 0.5 * sigma[i] * eps[i] + kl_grad_logvar[i];
        }
        vae.encoder.backward(&enc_cache, &grad_enc_out, enc_grads);
        (recon, kl)
    }

    #[test]
    fn a_dp_sgd_step_adds_calibrated_noise_exactly_once() {
        use crate::lot::reference::assert_step_noise_is_calibrated;
        let mut r = rng();
        let data = bimodal(&mut r, 48);
        let indices: Vec<usize> = (0..40).map(|i| (i * 7) % 48).collect();
        let b = indices.len();
        // A wide hidden layer gives P ≈ 1.2k noise coordinates.
        let cfg = VaeConfig {
            hidden_dim: 64,
            ..small_config()
        };
        let vae = Vae::new(&mut r, data.cols(), cfg.clone()).unwrap();
        let clip_norm = 0.7;
        let step = |sigma: f64| {
            let dp = DpSgdConfig {
                clip_norm,
                noise_multiplier: sigma,
                batch_size: b,
            };
            let mut rng = StdRng::seed_from_u64(5);
            let mut report = TrainReport::new();
            lot::step_gradient(&vae, &mut rng, &data, &indices, Some(dp), &mut report, None)
                .unwrap()
                .0
        };
        // The step draws the lot's reparametrization noise first.
        let mut rng = StdRng::seed_from_u64(5);
        let eps: Vec<f64> = (0..b * cfg.latent_dim)
            .map(|_| sampling::normal(&mut rng, 0.0, 1.0))
            .collect();
        let mut average = lot_sum(&vae, &data, &indices, &eps, Some(clip_norm)).gradient;
        p3gm_linalg::vector::scale(1.0 / b as f64, &mut average);
        assert_step_noise_is_calibrated(step, &average, b, clip_norm, 1.3);
    }

    #[test]
    fn lot_sums_match_the_per_row_reference() {
        use crate::lot::reference::{assert_matches_rows, clip_between_norms};
        let mut r = rng();
        let data = bimodal(&mut r, 48);
        // 40 distinct rows: three chunks of 16, 16 and 8.
        let indices: Vec<usize> = (0..40).map(|i| (i * 7) % 48).collect();
        for sigma_s in [0.0, 1.0] {
            let cfg = VaeConfig {
                sigma_s,
                ..small_config()
            };
            let mut vae = Vae::new(&mut r, 6, cfg).unwrap();
            vae.train_epoch(&mut r, &data).unwrap();
            let d = vae.config.latent_dim;
            let eps = sampling::normal_vec(&mut r, indices.len() * d, 1.0);
            let mut rows = Matrix::zeros(indices.len(), vae.num_params());
            let losses: Vec<(f64, f64)> = indices
                .iter()
                .enumerate()
                .map(|(i, &row)| {
                    let eps = &eps[i * d..(i + 1) * d];
                    example_gradient_reference(&vae, data.row(row), eps, rows.row_mut(i))
                })
                .collect();
            for clip_norm in [None, Some(clip_between_norms(&rows))] {
                let lot = lot_sum(&vae, &data, &indices, &eps, clip_norm);
                assert_matches_rows(&lot, &rows, &losses, clip_norm);
            }
        }
    }

    #[test]
    fn one_adversarial_row_moves_the_clipped_sum_by_at_most_the_clip_norm() {
        use crate::lot::reference::assert_one_row_moves_sum_by_at_most_c;
        let mut r = rng();
        let data = bimodal(&mut r, 40);
        let cfg = VaeConfig {
            sigma_s: 1.0,
            ..small_config()
        };
        let vae = Vae::new(&mut r, 6, cfg.clone()).unwrap();
        let adversarial: Vec<f64> = data.row(0).iter().map(|v| v * 1e2).collect();
        let data = data
            .vstack(&Matrix::from_rows(&[adversarial]).unwrap())
            .unwrap();
        let eps = sampling::normal_vec(&mut r, 17 * cfg.latent_dim, 1.0);
        let base: Vec<usize> = (0..16).collect();
        let with: Vec<usize> = (0..16).chain([40]).collect();
        assert_one_row_moves_sum_by_at_most_c(
            |indices, clip| lot_sum(&vae, &data, indices, &eps, Some(clip)).gradient,
            &base,
            &with,
            cfg.clip_norm,
        );
    }

    #[test]
    fn non_finite_config_floats_are_rejected_at_construction() {
        let mut r = rng();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for cfg in [
                VaeConfig {
                    learning_rate: bad,
                    ..small_config()
                },
                VaeConfig {
                    clip_norm: bad,
                    ..small_config()
                },
                VaeConfig {
                    sigma_s: bad,
                    ..small_config()
                },
                VaeConfig {
                    delta: bad,
                    ..small_config()
                },
            ] {
                assert!(
                    matches!(
                        Vae::new(&mut r, 6, cfg),
                        Err(CoreError::InvalidConfig { .. })
                    ),
                    "{bad}"
                );
            }
        }
    }

    #[test]
    fn construction_validates() {
        let mut r = rng();
        assert!(Vae::new(&mut r, 0, small_config()).is_err());
        let bad = VaeConfig {
            latent_dim: 10,
            ..small_config()
        };
        assert!(Vae::new(&mut r, 6, bad).is_err());
        let vae = Vae::new(&mut r, 6, small_config()).unwrap();
        assert_eq!(vae.data_dim(), 6);
        assert!(vae.num_params() > 0);
        assert_eq!(vae.trained_epochs(), 0);
    }

    #[test]
    fn training_reduces_reconstruction_loss() {
        let mut r = rng();
        let data = bimodal(&mut r, 120);
        let untrained = Vae::new(&mut r, 6, small_config()).unwrap();
        let before = untrained.reconstruction_loss(&data);
        let (vae, history) = Vae::fit(&mut r, &data, small_config()).unwrap();
        let after = vae.reconstruction_loss(&data);
        assert!(
            after < before,
            "reconstruction loss should drop: {before} -> {after}"
        );
        assert_eq!(history.len(), 15);
        assert!(history.improved());
        assert_eq!(vae.trained_epochs(), 15);
    }

    #[test]
    fn samples_have_correct_shape_and_range() {
        let mut r = rng();
        let data = bimodal(&mut r, 60);
        let (vae, _) = Vae::fit(&mut r, &data, small_config()).unwrap();
        let samples = vae.sample(&mut r, 32);
        assert_eq!(samples.shape(), (32, 6));
        assert!(samples.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn encode_decode_roundtrip_shapes() {
        let mut r = rng();
        let vae = Vae::new(&mut r, 6, small_config()).unwrap();
        let (mu, logvar) = vae.encode(&[0.5; 6]);
        assert_eq!(mu.len(), 2);
        assert_eq!(logvar.len(), 2);
        let latents = Matrix::from_vec(1, 2, mu).unwrap();
        assert_eq!(vae.decode(&latents).shape(), (1, 6));
    }

    #[test]
    fn batched_samples_match_a_per_row_draw_and_decode() {
        let mut r = rng();
        let data = bimodal(&mut r, 60);
        let (vae, _) = Vae::fit(&mut r, &data, small_config()).unwrap();
        let d = vae.config.latent_dim;
        let n = 130;
        // Each row drawn and decoded on its own: `Mlp::forward`, then the
        // sigmoid of each logit.
        let mut draws = StdRng::seed_from_u64(5);
        let per_row: Vec<u64> = (0..n)
            .flat_map(|_| {
                let z = sampling::normal_vec(&mut draws, d, 1.0);
                vae.decoder
                    .forward(&z)
                    .into_iter()
                    .map(|l| sigmoid(l).to_bits())
            })
            .collect();
        for threads in [1, 2, 4] {
            let sampled = p3gm_parallel::with_threads(threads, || {
                vae.sample(&mut StdRng::seed_from_u64(5), n)
            });
            assert_eq!(sampled.shape(), (n, 6));
            let bits: Vec<u64> = sampled.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, per_row, "{threads} threads");
        }
    }

    #[test]
    fn dp_vae_trains_and_reports_privacy() {
        let mut r = rng();
        let data = bimodal(&mut r, 80);
        let cfg = VaeConfig {
            sigma_s: 2.0,
            epochs: 3,
            ..small_config()
        };
        let (vae, history) = Vae::fit(&mut r, &data, cfg).unwrap();
        assert_eq!(history.len(), 3);
        let spec = vae.privacy_spec(80).expect("private config has a spec");
        assert!(spec.epsilon > 0.0 && spec.epsilon.is_finite());
        assert_eq!(spec.delta, 1e-5);
        // Non-private VAE reports no privacy guarantee.
        let (plain, _) = Vae::fit(&mut r, &data, small_config()).unwrap();
        assert!(plain.privacy_spec(80).is_none());
    }

    #[test]
    fn dp_vae_with_more_noise_learns_worse() {
        let mut r = rng();
        let data = bimodal(&mut r, 100);
        let loss_with = |sigma: f64, r: &mut StdRng| {
            let cfg = VaeConfig {
                sigma_s: sigma,
                epochs: 8,
                ..small_config()
            };
            let (vae, _) = Vae::fit(r, &data, cfg).unwrap();
            vae.reconstruction_loss(&data)
        };
        // Average two runs each to reduce randomness.
        let low = (loss_with(0.5, &mut r) + loss_with(0.5, &mut r)) / 2.0;
        let high = (loss_with(30.0, &mut r) + loss_with(30.0, &mut r)) / 2.0;
        assert!(
            high > low,
            "huge noise should hurt reconstruction: low {low}, high {high}"
        );
    }

    #[test]
    fn train_epoch_rejects_wrong_width() {
        let mut r = rng();
        let mut vae = Vae::new(&mut r, 6, small_config()).unwrap();
        let bad = Matrix::zeros(10, 3);
        assert!(vae.train_epoch(&mut r, &bad).is_err());
        assert!(vae.train_epoch(&mut r, &Matrix::zeros(0, 6)).is_err());
    }
}
