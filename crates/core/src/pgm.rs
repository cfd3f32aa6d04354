//! The phased generative model (PGM) and its differentially private version
//! (P3GM) — the paper's §IV.
//!
//! **Encoding Phase** (paper §IV-B): a dimensionality reduction `f` is
//! fitted with (DP-)PCA and the encoder mean is frozen to `µ_φ(x) = f(x)`
//! (paper Eq. (6)); a mixture-of-Gaussians prior `r_λ(z)` is fitted to the
//! projected data with (DP-)EM (paper Eq. (7)).
//!
//! **Decoding Phase** (paper §IV-C): the decoder `p_θ(x|z)` and the encoder
//! variance `σ_φ(x)` are trained against the ELBO of paper Eq. (8), whose KL
//! term is taken against the MoG prior via the Hershey–Olsen approximation;
//! the optimizer is DP-SGD for P3GM and plain Adam for PGM. The epoch loop
//! and the DP-SGD step are the trainer the DP-VAE shares (the crate's `lot`
//! module); this module supplies the networks, their flat parameter layout
//! and the gradient of a chunk of a lot.
//!
//! **Data synthesis** (paper §IV-E): sample `z ~ MoG(λ)`, decode.
//!
//! The privacy of the whole pipeline is the RDP composition of Theorem 4,
//! exposed through [`PhasedGenerativeModel::privacy_spec`].

use crate::config::{PgmConfig, VarianceMode};
use crate::history::{EpochStats, TrainingHistory};
use crate::lot::{self, reconstruction, reparametrize, LotModel, LotSum, Trainer};
use crate::report::TrainReport;
use crate::{CoreError, GenerativeModel, Result};
use p3gm_linalg::Matrix;
use p3gm_mixture::dpem::{self, DpEmConfig};
use p3gm_mixture::em::{self, EmConfig};
use p3gm_mixture::Gmm;
use p3gm_nn::activation::{sigmoid, Activation};
use p3gm_nn::dpsgd::clip_and_sum_batch;
use p3gm_nn::loss::bce_with_logits;
use p3gm_nn::mlp::{BatchGradients, Mlp};
use p3gm_obs::TimeSource;
use p3gm_preprocess::pca::{DpPca, Pca};
use p3gm_privacy::rdp::PrivacySpec;
use rand::Rng;

/// Per-step decay of the Polyak average of the Decoding Phase's iterates.
const POLYAK_DECAY: f64 = 0.99;

/// The dimensionality-reduction component of the Encoding Phase.
#[derive(Debug, Clone)]
enum Projection {
    /// Exact PCA (PGM).
    Exact(Pca),
    /// DP-PCA via the Wishart mechanism (P3GM).
    Private(DpPca),
}

impl Projection {
    fn transform_row(&self, x: &[f64]) -> Vec<f64> {
        match self {
            Projection::Exact(p) => p.transform_row(x).expect("dimension fixed at fit time"),
            Projection::Private(p) => p.transform_row(x).expect("dimension fixed at fit time"),
        }
    }

    /// Projects a whole batch as one centred matrix product.
    fn transform(&self, data: &Matrix) -> Result<Matrix> {
        match self {
            Projection::Exact(p) => p.transform(data),
            Projection::Private(p) => p.transform(data),
        }
        .map_err(|e| CoreError::Substrate { msg: e.to_string() })
    }
}

/// The phased generative model: PGM when `config.private == false`, P3GM
/// when `true`, P3GM(AE) when the variance mode is fixed.
#[derive(Debug, Clone)]
pub struct PhasedGenerativeModel {
    projection: Projection,
    prior: Gmm,
    /// Encoder-variance network `x → log σ²_φ(x)` (present even in the
    /// fixed-variance mode, but then it is not trained or used).
    encoder_var: Mlp,
    decoder: Mlp,
    config: PgmConfig,
    data_dim: usize,
    /// Scale applied to rows before the projection so that the DP-PCA
    /// sensitivity bound (unit L2 ball) holds; 1.0 for the non-private PGM.
    input_scale: f64,
    n_train: usize,
    trainer: Trainer,
}

impl PhasedGenerativeModel {
    /// Runs the Encoding Phase: fits the (DP-)PCA projection and the (DP-)EM
    /// mixture prior, and initializes the networks. The Decoding Phase is
    /// run separately with [`PhasedGenerativeModel::train_epoch`] (or use
    /// [`PhasedGenerativeModel::fit`] for the whole pipeline).
    pub fn encode_phase<R: Rng + ?Sized>(
        rng: &mut R,
        data: &Matrix,
        config: PgmConfig,
    ) -> Result<Self> {
        Self::encode_phase_observed(rng, data, config, &mut TrainReport::new(), None)
    }

    /// [`encode_phase`](Self::encode_phase) plus telemetry: the (DP-)EM
    /// iteration count and log-likelihood trajectory are accumulated into
    /// `report`, and with an injected `timer` the projection fit
    /// (`"dp_pca"`, or `"pca"` for PGM) and the mixture fit (`"dp_em"`, or
    /// `"em"`) are recorded as phases. The fitted model is identical — the
    /// trace is a diagnostic the mixture fit computes anyway. It is
    /// evaluated on the clipped private rows, so the model's privacy stamp
    /// does not cover it.
    pub fn encode_phase_observed<R: Rng + ?Sized>(
        rng: &mut R,
        data: &Matrix,
        config: PgmConfig,
        report: &mut TrainReport,
        timer: Option<&dyn TimeSource>,
    ) -> Result<Self> {
        config.validate(data.rows(), data.cols())?;
        let d = data.cols();
        let n = data.rows();

        // DP-PCA's Wishart sensitivity analysis assumes rows in the unit L2
        // ball; [0,1]^d rows have norm at most sqrt(d) (a public bound), so
        // scale by 1/sqrt(d) before computing the covariance. The same scale
        // is applied at projection time so f(x) is consistent.
        let input_scale = if config.private {
            1.0 / (d as f64).sqrt()
        } else {
            1.0
        };
        let scaled = if input_scale == 1.0 {
            data.clone()
        } else {
            data.scale(input_scale)
        };

        // For the private pipeline, keep the DP-PCA's noisy eigenvalues: they
        // are part of the same DP release and provide a calibrated estimate
        // of the projected data's per-coordinate variance, which the prior
        // sanitization below uses (post-processing, no extra budget).
        let mut latent_scale: Option<Vec<f64>> = None;
        let projection_start = timer.map(TimeSource::now_nanos);
        let projection = if config.private {
            let dp_pca = DpPca::fit(rng, &scaled, config.latent_dim, config.eps_p)
                .map_err(|e| CoreError::Substrate { msg: e.to_string() })?;
            // The Wishart noise matrix has known mean (d+1)·3/(2nε)·I; subtract
            // it from the noisy eigenvalues to debias the variance estimate.
            let noise_mean = (d as f64 + 1.0) * 3.0 / (2.0 * n as f64 * config.eps_p);
            latent_scale = Some(
                dp_pca.pca().eigenvalues()[..config.latent_dim]
                    .iter()
                    .map(|&l| (l - noise_mean).max(l.abs() * 0.05).max(1e-10))
                    .collect(),
            );
            Projection::Private(dp_pca)
        } else {
            Projection::Exact(
                Pca::fit(&scaled, config.latent_dim)
                    .map_err(|e| CoreError::Substrate { msg: e.to_string() })?,
            )
        };
        let (projection_phase, mixture_phase) = if config.private {
            ("dp_pca", "dp_em")
        } else {
            ("pca", "em")
        };
        report.record_phase(timer, projection_phase, projection_start);

        // Project the whole batch and fit the MoG prior.
        let mixture_start = timer.map(TimeSource::now_nanos);
        let projected = projection.transform(&scaled)?;

        let prior = if config.private {
            let fitted = dpem::fit(
                rng,
                &projected,
                &DpEmConfig {
                    n_components: config.mog_components,
                    iterations: config.em_iterations,
                    sigma_e: config.sigma_e,
                    covariance_regularization: 1e-4,
                    clip_norm: 1.0,
                },
            )
            .map_err(|e| CoreError::Substrate { msg: e.to_string() })?;
            report.em_iterations += fitted.iterations as u64;
            report
                .em_log_likelihood
                .extend_from_slice(&fitted.log_likelihood_trace);
            match &latent_scale {
                Some(scale) => sanitize_prior(&fitted.model, scale)?,
                None => fitted.model,
            }
        } else {
            let fitted = em::fit(
                rng,
                &projected,
                &EmConfig {
                    n_components: config.mog_components,
                    max_iters: 50,
                    tolerance: 1e-5,
                    covariance_regularization: 1e-6,
                },
            )
            .map_err(|e| CoreError::Substrate { msg: e.to_string() })?;
            report.em_iterations += fitted.iterations as u64;
            report
                .em_log_likelihood
                .extend_from_slice(&fitted.log_likelihood_trace);
            fitted.model
        };
        report.record_phase(timer, mixture_phase, mixture_start);

        let mut encoder_var = Mlp::new(
            rng,
            &[d, config.hidden_dim, config.latent_dim],
            Activation::Relu,
            Activation::Identity,
        );
        // Initialize the output bias of the variance network so that the
        // initial σ_φ(x) matches the within-component scale of the prior
        // instead of the default σ = 1. The frozen encoder mean µ_φ(x) =
        // f(x) lives on the prior's scale (typically ≪ 1 after the unit-ball
        // normalization), so starting with unit reparametrization noise
        // would drown the latent signal for most of a short training run.
        // The prior is already a DP release, so this is pure post-processing.
        {
            let weights = prior.weights();
            let mut v_bar = 0.0;
            for (k, cov) in prior.covariances().iter().enumerate() {
                let dim = cov.rows();
                let trace_mean = (0..dim).map(|i| cov.get(i, i)).sum::<f64>() / dim as f64;
                v_bar += weights[k] * trace_mean;
            }
            let log_var = v_bar.max(1e-12).ln();
            let mut params = encoder_var.params();
            let n_params = params.len();
            for b in &mut params[n_params - config.latent_dim..] {
                *b = log_var;
            }
            encoder_var.set_params(&params);
        }
        let mut decoder = Mlp::new(
            rng,
            &[config.latent_dim, config.hidden_dim, d],
            Activation::Relu,
            Activation::Identity,
        );
        // Warm-start the decoder at the linear inverse of the projection,
        // which is known in closed form: the reconstruction
        // x̂ = (V z + µ) / input_scale. A ReLU pair per latent coordinate
        // (+z_i, −z_i) represents the identity exactly, so the two-layer
        // decoder can start as precisely this affine map instead of a
        // random function. Privacy: V is post-processing of the DP-PCA
        // release; the centring mean µ is the same quantity the projection
        // already exposes through `transform_row` and is treated as
        // publicly available per the paper's footnote 2 (see the
        // `p3gm-preprocess::pca` module docs), so the warm start consumes
        // no additional budget under the paper's threat model. It lets a
        // short (or heavily noised) decoding phase start from a generator
        // that already respects the data's principal structure.
        {
            let pca = match &projection {
                Projection::Exact(p) => p,
                Projection::Private(p) => p.pca(),
            };
            warm_start_decoder(&mut decoder, pca.components(), pca.mean(), input_scale);
        }
        let trainer = Trainer::new(config.learning_rate, POLYAK_DECAY, 0);
        Ok(PhasedGenerativeModel {
            projection,
            prior,
            encoder_var,
            decoder,
            config,
            data_dim: d,
            input_scale,
            n_train: n,
            trainer,
        })
    }

    /// Runs the complete two-phase training (Encoding Phase + `epochs`
    /// epochs of the Decoding Phase).
    pub fn fit<R: Rng + ?Sized>(
        rng: &mut R,
        data: &Matrix,
        config: PgmConfig,
    ) -> Result<(Self, TrainingHistory)> {
        Self::fit_with_report(rng, data, config, None).map(|(model, history, _)| (model, history))
    }

    /// [`fit`](Self::fit) plus a [`TrainReport`]: DP-SGD step and
    /// clipped-gradient counts, the EM log-likelihood trajectory, and —
    /// only when a [`TimeSource`] is injected — per-phase wall times, in
    /// this order: `"dp_pca"`, `"dp_em"`, `"encode"`, then per-fit totals
    /// of the DP-SGD steps' parts (`"lot_gradients"`, `"dp_noise"`,
    /// `"optimizer"`), then `"decode"`. A non-private PGM reports `"pca"`
    /// and `"em"` instead and has no `"dp_noise"`. The
    /// trained model is bit-identical to [`fit`](Self::fit) with the same
    /// rng: telemetry consumes no randomness and alters no update. Pass
    /// `timer: None` to keep the call fully deterministic (this crate
    /// never reads a clock itself).
    pub fn fit_with_report<R: Rng + ?Sized>(
        rng: &mut R,
        data: &Matrix,
        config: PgmConfig,
        timer: Option<&dyn TimeSource>,
    ) -> Result<(Self, TrainingHistory, TrainReport)> {
        let epochs = config.epochs;
        let mut report = TrainReport::new();
        let encode_start = timer.map(TimeSource::now_nanos);
        let mut model = Self::encode_phase_observed(rng, data, config, &mut report, timer)?;
        report.record_phase(timer, "encode", encode_start);
        let decode_start = timer.map(TimeSource::now_nanos);
        let mut history = TrainingHistory::new();
        for _ in 0..epochs {
            history.push(model.train_epoch_observed(rng, data, &mut report, timer)?);
        }
        report.record_phase(timer, "decode", decode_start);
        Ok((model, history, report))
    }

    /// The training configuration.
    pub fn config(&self) -> &PgmConfig {
        &self.config
    }

    /// The fitted mixture-of-Gaussians prior `r_λ(z)`.
    pub fn prior(&self) -> &Gmm {
        &self.prior
    }

    /// Dimensionality of the data space.
    pub fn data_dim(&self) -> usize {
        self.data_dim
    }

    /// Number of Decoding-Phase epochs trained so far.
    pub fn trained_epochs(&self) -> usize {
        self.trainer.epochs()
    }

    /// Whether the encoder-variance network is trained (full P3GM) or the
    /// variance is frozen (P3GM(AE)).
    pub fn trains_variance(&self) -> bool {
        matches!(self.config.variance_mode, VarianceMode::Learned)
    }

    /// The frozen encoder mean `µ_φ(x) = f(x)` (paper Eq. (6)).
    pub fn encode_mean(&self, x: &[f64]) -> Vec<f64> {
        let scaled: Vec<f64> = x.iter().map(|v| v * self.input_scale).collect();
        self.projection.transform_row(&scaled)
    }

    /// The encoder log-variance for one row (the frozen constant in the
    /// fixed-variance mode).
    pub fn encode_logvar(&self, x: &[f64]) -> Vec<f64> {
        match self.config.variance_mode {
            VarianceMode::Learned => self.encoder_var.forward(x),
            VarianceMode::Fixed(v) => vec![v; self.config.latent_dim],
        }
    }

    /// The decoder network `p_θ(x|z)`, mapping latent rows to logits: the
    /// per-row reference the batched sampling tests decode through.
    #[cfg(test)]
    pub(crate) fn decoder(&self) -> &Mlp {
        &self.decoder
    }

    /// Decodes each row of `latents` to its data-space mean, the sigmoid
    /// of the decoder's logits: one [`Mlp::forward_batch`] and an in-place
    /// sigmoid sweep. Row `i` is bit-identical to [`sigmoid`] applied to
    /// [`Mlp::forward`] of `latents.row(i)`.
    ///
    /// Runs on the calling thread: a served window is at most 512 rows,
    /// too few to pay for a helper dispatch per layer. On a 2-vCPU host a
    /// two-thread dispatch made the decode 30–50 µs slower at both served
    /// shapes (64 rows of the MNIST-like decoder, 512 of the adult-like).
    pub fn decode(&self, latents: &Matrix) -> Matrix {
        let mut means = p3gm_parallel::with_threads(1, || self.decoder.forward_batch(latents));
        means.map_inplace(sigmoid);
        means
    }

    /// Average per-example reconstruction loss over a dataset (decoding the
    /// encoder mean; this is the curve plotted in Figure 7a/7b).
    /// Accumulated over parallel row chunks with a deterministic in-order
    /// fold.
    pub fn reconstruction_loss(&self, data: &Matrix) -> f64 {
        let total = p3gm_parallel::par_map_reduce(
            data.rows(),
            p3gm_parallel::default_chunk_len(data.rows()),
            |range| {
                let mut sum = 0.0;
                for i in range {
                    let row = data.row(i);
                    let mu = self.encode_mean(row);
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

    /// One epoch of the Decoding Phase. Exposed so the Figure 7 experiments
    /// can evaluate the model after every epoch.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: &Matrix,
    ) -> Result<EpochStats> {
        self.train_epoch_observed(rng, data, &mut TrainReport::new(), None)
    }

    /// [`train_epoch`](Self::train_epoch) plus telemetry accumulated into
    /// `report`: one epoch, its DP-SGD steps, and the clipped-gradient
    /// counts from the clipping pass, and with an injected `timer` the
    /// running totals of the steps' parts: the lot's gradient dispatch
    /// (`"lot_gradients"`), the DP noise draw (`"dp_noise"`) and the
    /// optimizer update (`"optimizer"`). The noise is drawn inside the
    /// lot's dispatch, so `"dp_noise"` overlaps `"lot_gradients"` rather
    /// than following it. The counts are deterministic (folded in chunk
    /// order) and do not alter the update.
    ///
    /// The epoch runs the trainer the DP-VAE shares (see the crate's
    /// `lot` module): each step is one parallel dispatch over row chunks
    /// of the lot, while the calling thread draws the step's DP noise.
    pub fn train_epoch_observed<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: &Matrix,
        report: &mut TrainReport,
        timer: Option<&dyn TimeSource>,
    ) -> Result<EpochStats> {
        let c = &self.config;
        let dp = c.private.then_some((c.clip_norm, c.sigma_s));
        let batch = c.batch_size;
        lot::train_epoch(self, rng, data, batch, dp, report, timer)
    }

    /// The (ε, δ)-DP guarantee of the *configured* training run on `n` rows
    /// (paper Theorem 4), or `None` for the non-private PGM.
    ///
    /// The guarantee covers DP-PCA, `em_iterations` DP-EM steps and the
    /// number of DP-SGD steps the configuration takes on `n` rows.
    pub fn privacy_spec(&self, n: usize) -> Option<PrivacySpec> {
        self.config.privacy_spec(n)
    }

    /// Convenience: the privacy guarantee for the dataset the model was
    /// fitted on.
    pub fn training_privacy_spec(&self) -> Option<PrivacySpec> {
        self.privacy_spec(self.n_train)
    }

    /// Serializes the trained model into a framed `p3gm-store` buffer:
    /// the configuration, the dataset geometry, the fitted projection
    /// (PCA or DP-PCA), the MoG prior and both networks, all as `f64` bit
    /// patterns so the round trip is bit-exact.
    ///
    /// The snapshot is an **inference artifact**: the networks hold the
    /// Polyak-averaged weights that sampling and reconstruction use, and
    /// optimizer state (Adam moments, the raw iterate, the averaging
    /// window) is deliberately *not* persisted. A reloaded model samples
    /// bit-identically to the saved one, but further [`Self::train_epoch`]
    /// calls restart the optimizer from the averaged weights.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::PGM_MODEL);
        self.config.encode_into(&mut enc);
        enc.usize(self.data_dim)
            .f64(self.input_scale)
            .usize(self.trained_epochs())
            .usize(self.n_train);
        match &self.projection {
            Projection::Exact(p) => enc.u8(0).nested(&p.to_bytes()),
            Projection::Private(p) => enc.u8(1).nested(&p.to_bytes()),
        };
        enc.nested(&self.prior.to_bytes());
        enc.nested(&self.encoder_var.to_bytes());
        enc.nested(&self.decoder.to_bytes());
        enc.finish()
    }

    /// Deserializes a model from a buffer produced by
    /// [`PhasedGenerativeModel::to_bytes`], revalidating the configuration
    /// and the cross-component geometry (projection, prior and network
    /// dimensions must agree) so a malformed buffer can never produce a
    /// model that panics later.
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<Self> {
        use p3gm_store::StoreError;
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::PGM_MODEL)?;
        let ModelHead {
            config,
            data_dim,
            input_scale,
            trained_epochs,
            n_train,
        } = ModelHead::decode(&mut dec)?;
        let projection = match dec.u8()? {
            0 => Projection::Exact(Pca::from_bytes(dec.nested()?)?),
            1 => Projection::Private(DpPca::from_bytes(dec.nested()?)?),
            code => {
                return Err(StoreError::Invalid {
                    msg: format!("unknown projection code {code}"),
                })
            }
        };
        let prior = Gmm::from_bytes(dec.nested()?)?;
        let encoder_var = Mlp::from_bytes(dec.nested()?)?;
        let decoder = Mlp::from_bytes(dec.nested()?)?;
        dec.finish()?;

        let (proj_in, proj_out) = match &projection {
            Projection::Exact(p) => (p.input_dim(), p.n_components()),
            Projection::Private(p) => (p.pca().input_dim(), p.pca().n_components()),
        };
        if proj_in != data_dim || proj_out != config.latent_dim {
            return Err(StoreError::Invalid {
                msg: format!(
                    "projection maps {proj_in}->{proj_out}, model expects {data_dim}->{}",
                    config.latent_dim
                ),
            });
        }
        if prior.dim() != config.latent_dim || prior.n_components() != config.mog_components {
            return Err(StoreError::Invalid {
                msg: format!(
                    "prior is a {}-component mixture over {} dims, config expects {} over {}",
                    prior.n_components(),
                    prior.dim(),
                    config.mog_components,
                    config.latent_dim
                ),
            });
        }
        if encoder_var.in_dim() != data_dim || encoder_var.out_dim() != config.latent_dim {
            return Err(StoreError::Invalid {
                msg: "encoder-variance network dimensions disagree with the model".to_string(),
            });
        }
        if decoder.in_dim() != config.latent_dim || decoder.out_dim() != data_dim {
            return Err(StoreError::Invalid {
                msg: "decoder dimensions disagree with the model".to_string(),
            });
        }

        let trainer = Trainer::new(config.learning_rate, POLYAK_DECAY, trained_epochs);
        Ok(PhasedGenerativeModel {
            projection,
            prior,
            encoder_var,
            decoder,
            config,
            data_dim,
            input_scale,
            n_train,
            trainer,
        })
    }
}

/// The leading fields of a model buffer, ahead of the weights: the
/// configuration and the dataset geometry.
pub(crate) struct ModelHead {
    pub(crate) config: PgmConfig,
    pub(crate) data_dim: usize,
    pub(crate) input_scale: f64,
    pub(crate) trained_epochs: usize,
    pub(crate) n_train: usize,
}

impl ModelHead {
    /// Reads the head and applies the checks it passes on its own: the
    /// configuration is valid for `n_train` rows of `data_dim` features,
    /// and the input scale is positive and finite. The one reader of
    /// these fields: [`PhasedGenerativeModel::from_bytes`] calls it on
    /// the whole buffer, the snapshot header peek on a prefix.
    pub(crate) fn decode(dec: &mut p3gm_store::Decoder<'_>) -> p3gm_store::Result<ModelHead> {
        use p3gm_store::StoreError;
        let config = PgmConfig::decode_from(dec)?;
        let data_dim = dec.usize()?;
        let input_scale = dec.f64()?;
        let trained_epochs = dec.usize()?;
        let n_train = dec.usize()?;
        config
            .validate(n_train, data_dim)
            .map_err(|e| StoreError::Invalid { msg: e.to_string() })?;
        if !(input_scale.is_finite() && input_scale > 0.0) {
            return Err(StoreError::Invalid {
                msg: format!("input scale must be positive and finite, got {input_scale}"),
            });
        }
        Ok(ModelHead {
            config,
            data_dim,
            input_scale,
            trained_epochs,
            n_train,
        })
    }
}

/// The Decoding Phase's trainable parameters: the encoder-variance network
/// (when trained) followed by the decoder.
impl LotModel for PhasedGenerativeModel {
    fn data_dim(&self) -> usize {
        self.data_dim
    }

    fn latent_dim(&self) -> usize {
        self.config.latent_dim
    }

    fn num_params(&self) -> usize {
        let encoder = if self.trains_variance() {
            self.encoder_var.num_params()
        } else {
            0
        };
        encoder + self.decoder.num_params()
    }

    fn flat_params(&self) -> Vec<f64> {
        if self.trains_variance() {
            let mut p = self.encoder_var.params();
            p.extend(self.decoder.params());
            p
        } else {
            self.decoder.params()
        }
    }

    fn set_flat_params(&mut self, params: &[f64]) {
        if self.trains_variance() {
            let enc_n = self.encoder_var.num_params();
            self.encoder_var.set_params(&params[..enc_n]);
            self.decoder.set_params(&params[enc_n..]);
        } else {
            self.decoder.set_params(params);
        }
    }

    /// A chunk's part of the Decoding-Phase step (paper Eq. (10)).
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
        // The frozen encoder mean, bit-identical to `encode_mean` per row.
        let mu = self
            .projection
            .transform(&x.scale(self.input_scale))
            .expect("dimension fixed at fit time");
        let (encoder, logvar) = match self.config.variance_mode {
            VarianceMode::Learned => {
                let cache = self.encoder_var.forward_batch_cached(&x);
                let logvar = cache.output().clone();
                (Some(cache), logvar)
            }
            VarianceMode::Fixed(v) => (None, Matrix::filled(rows, d, v)),
        };
        let (sigma, z) = reparametrize(&mu, &logvar, eps);

        // Reconstruction term.
        let decoder = self.decoder.forward_batch_cached(&z);
        let (recon, grad_logits) = reconstruction(decoder.output(), &x);
        let (decoder_grads, grad_z) = self.decoder.backward_batch(decoder, &grad_logits, true);
        let grad_z = grad_z.expect("the decoder input gradient was requested");

        // KL against the MoG prior (Hershey–Olsen approximation). The mean
        // is frozen so only the log-variance gradient is used.
        let mut grad_logvar = Matrix::zeros(rows, d);
        let mut losses = Vec::with_capacity(rows);
        for (i, &recon) in recon.iter().enumerate() {
            let (kl, _kl_grad_mu, kl_grad_logvar) =
                self.prior.kl_diag_to_mixture(mu.row(i), logvar.row(i));
            let row = grad_logvar.row_mut(i);
            for k in 0..d {
                row[k] =
                    grad_z.get(i, k) * 0.5 * sigma.get(i, k) * eps[i * d + k] + kl_grad_logvar[k];
            }
            losses.push((recon, kl));
        }
        let encoder_grads = encoder.map(|cache| {
            self.encoder_var
                .backward_batch(cache, &grad_logvar, false)
                .0
        });
        let parts: Vec<&BatchGradients> = encoder_grads.iter().chain([&decoder_grads]).collect();
        let (gradient, clipped) = clip_and_sum_batch(&parts, clip_norm);
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

/// Initializes a two-layer ReLU decoder to the affine PCA reconstruction
/// `x̂(z) = (V z + µ) / input_scale`, using one `(+z_i, −z_i)` ReLU pair per
/// latent coordinate (`ReLU(t) − ReLU(−t) = t`). The Bernoulli decoder's
/// output is expressed in logit space via the first-order linearization
/// `logit ≈ 4 (x̂ − ½)`, which matches value and slope of `sigmoid⁻¹` at ½.
///
/// Requires `hidden ≥ 2 · latent`; smaller hidden layers keep their random
/// initialization. Hidden units beyond the identity pairs keep their random
/// incoming weights but start with zero outgoing weights, so the function is
/// exactly affine at initialization while spare capacity remains trainable.
fn warm_start_decoder(decoder: &mut Mlp, components: &Matrix, mean: &[f64], input_scale: f64) {
    let latent = components.cols();
    let d = components.rows();
    let hidden = (decoder.num_params() - d) / (latent + d + 1);
    if hidden < 2 * latent {
        return;
    }
    let (k, shift) = (4.0, -0.5);

    let mut params = decoder.params();
    let w0_len = hidden * latent;
    // Layer 0: rows 2i and 2i+1 select ±z_i; their biases are zero.
    for i in 0..latent {
        for (row, sign) in [(2 * i, 1.0), (2 * i + 1, -1.0)] {
            for j in 0..latent {
                params[row * latent + j] = if j == i { sign } else { 0.0 };
            }
            params[w0_len + row] = 0.0;
        }
    }
    // Layer 1: recombine the pairs into k·V/s and zero the spare columns.
    let l1 = w0_len + hidden;
    for out in 0..d {
        for h in 0..hidden {
            let value = if h < 2 * latent {
                let i = h / 2;
                let sign = if h % 2 == 0 { 1.0 } else { -1.0 };
                sign * k * components.get(out, i) / input_scale
            } else {
                0.0
            };
            params[l1 + out * hidden + h] = value;
        }
        params[l1 + d * hidden + out] = k * (mean[out] / input_scale + shift);
    }
    decoder.set_params(&params);
}

/// Post-processes a DP-EM prior so its per-coordinate marginal second
/// moments match `target_var` — the (debiased) DP-PCA eigenvalue spectrum of
/// the same latent space.
///
/// At small `n` the DP-EM noise can leave component means and covariances
/// orders of magnitude off the data's scale, in which case samples from the
/// prior land far outside the region the decoder is trained on and the
/// synthesized data degrades to extrapolation noise. Both inputs are DP
/// releases, so this rescaling is pure post-processing (no privacy cost);
/// when DP-EM already matches the spectrum (large `n`), the scale factors
/// are ≈ 1 and the prior is returned essentially unchanged.
fn sanitize_prior(raw: &Gmm, target_var: &[f64]) -> Result<Gmm> {
    let k = raw.n_components();
    let dim = raw.dim();
    debug_assert_eq!(dim, target_var.len());

    // Floor collapsed component weights: noisy responsibilities can starve a
    // component to numerical zero, which would make sampling degenerate.
    let floor = 1.0 / (20.0 * k as f64);
    let weights: Vec<f64> = raw.weights().iter().map(|&w| w.max(floor)).collect();

    // Per-coordinate marginal second moment of the mixture.
    let mut m2 = vec![0.0; dim];
    let total: f64 = weights.iter().sum();
    for (c, (mean, cov)) in raw
        .means()
        .row_iter()
        .zip(raw.covariances().iter())
        .enumerate()
    {
        let w = weights[c] / total;
        for j in 0..dim {
            m2[j] += w * (cov.get(j, j) + mean[j] * mean[j]);
        }
    }

    // Clamp the correction to four orders of magnitude: enough to pull a
    // noise-dominated prior back on scale, while keeping the congruence
    // transform numerically safe for the Cholesky revalidation below.
    let scale: Vec<f64> = (0..dim)
        .map(|j| (target_var[j] / m2[j].max(1e-12)).sqrt().clamp(1e-2, 1e2))
        .collect();

    let mut means = raw.means().clone();
    for c in 0..k {
        for (v, s) in means.row_mut(c).iter_mut().zip(scale.iter()) {
            *v *= s;
        }
    }
    let covariances: Vec<Matrix> = raw
        .covariances()
        .iter()
        .map(|cov| {
            let mut out = cov.clone();
            for i in 0..dim {
                for j in 0..dim {
                    out.set(i, j, cov.get(i, j) * scale[i] * scale[j]);
                }
            }
            // Diagonal jitter keeps the rescaled matrix safely positive
            // definite despite floating-point asymmetry.
            for (j, &tv) in target_var.iter().enumerate() {
                out.set(j, j, out.get(j, j) + 1e-9 + 1e-6 * tv);
            }
            out
        })
        .collect();

    Gmm::new(weights, means, covariances).map_err(|e| CoreError::Substrate { msg: e.to_string() })
}

impl GenerativeModel for PhasedGenerativeModel {
    /// `n` prior draws, decoded in one [`PhasedGenerativeModel::decode`].
    fn sample(&self, rng: &mut dyn rand::RngCore, n: usize) -> Matrix {
        self.decode(&self.prior.sample_n(rng, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lot::reference::lot_sum;
    use p3gm_nn::dpsgd::DpSgdConfig;
    use p3gm_privacy::rdp::RdpAccountant;
    use p3gm_privacy::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(131)
    }

    /// Bimodal dataset in [0,1]^8 with two clearly distinct patterns.
    fn bimodal(rng: &mut StdRng, n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let hot = i % 2 == 0;
                (0..8)
                    .map(|j| {
                        let base = if (j < 4) == hot { 0.9 } else { 0.1 };
                        (base + sampling::normal(rng, 0.0, 0.05)).clamp(0.0, 1.0)
                    })
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn small_config(private: bool) -> PgmConfig {
        PgmConfig {
            latent_dim: 3,
            hidden_dim: 16,
            mog_components: 2,
            epochs: 10,
            batch_size: 16,
            learning_rate: 5e-3,
            clip_norm: 1.0,
            private,
            eps_p: 0.5,
            sigma_e: 50.0,
            em_iterations: 5,
            sigma_s: 1.0,
            delta: 1e-5,
            variance_mode: VarianceMode::Learned,
        }
    }

    /// The per-row path the lot path replaced, kept as its reference:
    /// example `x`'s full flat gradient (encoder-variance block then
    /// decoder block when the variance is trained, decoder only otherwise)
    /// from single-example forward and backward passes, written into `out`.
    /// Returns the reconstruction and KL losses.
    fn example_gradient_reference(
        model: &PhasedGenerativeModel,
        x: &[f64],
        eps: &[f64],
        out: &mut [f64],
    ) -> (f64, f64) {
        let d = model.config.latent_dim;
        let mu = model.encode_mean(x);
        let (logvar, enc_cache) = match model.config.variance_mode {
            VarianceMode::Learned => {
                let cache = model.encoder_var.forward_cached(x);
                (cache.output().to_vec(), Some(cache))
            }
            VarianceMode::Fixed(v) => (vec![v; d], None),
        };
        let sigma: Vec<f64> = logvar.iter().map(|&l| (0.5 * l).exp()).collect();
        let z: Vec<f64> = (0..d).map(|i| mu[i] + sigma[i] * eps[i]).collect();
        let (enc_grads, dec_grads) = if model.trains_variance() {
            let (enc, dec) = out.split_at_mut(model.encoder_var.num_params());
            (Some(enc), dec)
        } else {
            (None, out)
        };
        let dec_cache = model.decoder.forward_cached(&z);
        let (recon, grad_logits) = bce_with_logits(dec_cache.output(), x);
        let grad_z = model.decoder.backward(&dec_cache, &grad_logits, dec_grads);
        let (kl, _kl_grad_mu, kl_grad_logvar) = model.prior.kl_diag_to_mixture(&mu, &logvar);
        if let (Some(enc_grads), Some(cache)) = (enc_grads, enc_cache) {
            let grad_enc_out: Vec<f64> = (0..d)
                .map(|i| grad_z[i] * 0.5 * sigma[i] * eps[i] + kl_grad_logvar[i])
                .collect();
            model.encoder_var.backward(&cache, &grad_enc_out, enc_grads);
        }
        (recon, kl)
    }

    /// Every Decoding-Phase variant: PGM and P3GM, learned and fixed
    /// (P3GM(AE)) variance.
    fn variants() -> Vec<PgmConfig> {
        let mut out = Vec::new();
        for private in [false, true] {
            let cfg = small_config(private);
            out.push(cfg.clone());
            out.push(cfg.autoencoder_variant());
        }
        out
    }

    #[test]
    fn lot_sums_match_the_per_row_reference() {
        use crate::lot::reference::{assert_matches_rows, clip_between_norms};
        let mut r = rng();
        let data = bimodal(&mut r, 48);
        // 40 distinct rows: three chunks of 16, 16 and 8.
        let indices: Vec<usize> = (0..40).map(|i| (i * 7) % 48).collect();
        for cfg in variants() {
            let mut model = PhasedGenerativeModel::encode_phase(&mut r, &data, cfg).unwrap();
            model.train_epoch(&mut r, &data).unwrap();
            let d = model.config.latent_dim;
            let eps = sampling::normal_vec(&mut r, indices.len() * d, 1.0);
            let mut rows = Matrix::zeros(indices.len(), model.flat_params().len());
            let losses: Vec<(f64, f64)> = indices
                .iter()
                .enumerate()
                .map(|(i, &row)| {
                    let eps = &eps[i * d..(i + 1) * d];
                    example_gradient_reference(&model, data.row(row), eps, rows.row_mut(i))
                })
                .collect();
            for clip_norm in [None, Some(clip_between_norms(&rows))] {
                let lot = lot_sum(&model, &data, &indices, &eps, clip_norm);
                assert_matches_rows(&lot, &rows, &losses, clip_norm);
            }
        }
    }

    #[test]
    fn one_adversarial_row_moves_the_clipped_sum_by_at_most_the_clip_norm() {
        use crate::lot::reference::assert_one_row_moves_sum_by_at_most_c;
        let mut r = rng();
        let data = bimodal(&mut r, 40);
        let cfg = small_config(true);
        let model = PhasedGenerativeModel::encode_phase(&mut r, &data, cfg.clone()).unwrap();
        let adversarial: Vec<f64> = data.row(0).iter().map(|v| v * 1e2).collect();
        let data = data
            .vstack(&Matrix::from_rows(&[adversarial]).unwrap())
            .unwrap();
        let eps = sampling::normal_vec(&mut r, 17 * cfg.latent_dim, 1.0);
        let base: Vec<usize> = (0..16).collect();
        let with: Vec<usize> = (0..16).chain([40]).collect();
        assert_one_row_moves_sum_by_at_most_c(
            |indices, clip| lot_sum(&model, &data, indices, &eps, Some(clip)).gradient,
            &base,
            &with,
            cfg.clip_norm,
        );
    }

    #[test]
    fn a_dp_sgd_step_adds_calibrated_noise_exactly_once() {
        use crate::lot::reference::assert_step_noise_is_calibrated;
        let mut r = rng();
        let data = bimodal(&mut r, 48);
        let indices: Vec<usize> = (0..40).map(|i| (i * 7) % 48).collect();
        let b = indices.len();
        // Wide hidden layers give P ≈ 1.5k (learned variance) and ≈ 0.8k
        // (P3GM(AE)) noise coordinates, so the moment bounds are tight.
        let wide = PgmConfig {
            hidden_dim: 64,
            clip_norm: 0.7,
            ..small_config(true)
        };
        for cfg in [wide.clone(), wide.autoencoder_variant()] {
            let model = PhasedGenerativeModel::encode_phase(&mut r, &data, cfg.clone()).unwrap();
            let step = |sigma: f64| {
                let dp = DpSgdConfig {
                    clip_norm: cfg.clip_norm,
                    noise_multiplier: sigma,
                    batch_size: b,
                };
                let mut rng = StdRng::seed_from_u64(5);
                let mut report = TrainReport::new();
                let (gradient, _) = lot::step_gradient(
                    &model,
                    &mut rng,
                    &data,
                    &indices,
                    Some(dp),
                    &mut report,
                    None,
                )
                .unwrap();
                gradient
            };
            // The step draws the lot's reparametrization noise first.
            let mut rng = StdRng::seed_from_u64(5);
            let eps: Vec<f64> = (0..b * cfg.latent_dim)
                .map(|_| sampling::normal(&mut rng, 0.0, 1.0))
                .collect();
            let mut average = lot_sum(&model, &data, &indices, &eps, Some(cfg.clip_norm)).gradient;
            p3gm_linalg::vector::scale(1.0 / b as f64, &mut average);
            assert_step_noise_is_calibrated(step, &average, b, cfg.clip_norm, 1.3);
        }
    }

    #[test]
    fn encode_phase_fixes_the_encoder_mean() {
        let mut r = rng();
        let data = bimodal(&mut r, 80);
        let model =
            PhasedGenerativeModel::encode_phase(&mut r, &data, small_config(false)).unwrap();
        // The frozen mean is a deterministic function of x with the latent
        // dimensionality.
        let mu1 = model.encode_mean(data.row(0));
        let mu2 = model.encode_mean(data.row(0));
        assert_eq!(mu1.len(), 3);
        assert_eq!(mu1, mu2);
        // Different patterns land in different latent locations.
        let a = model.encode_mean(data.row(0));
        let b = model.encode_mean(data.row(1));
        assert!(p3gm_linalg::vector::distance(&a, &b) > 0.1);
        assert_eq!(model.prior().n_components(), 2);
        assert!(model.trains_variance());
        assert_eq!(model.trained_epochs(), 0);
    }

    #[test]
    fn pgm_training_reduces_reconstruction_loss() {
        let mut r = rng();
        let data = bimodal(&mut r, 120);
        let untrained =
            PhasedGenerativeModel::encode_phase(&mut r, &data, small_config(false)).unwrap();
        let before = untrained.reconstruction_loss(&data);
        let (model, history) =
            PhasedGenerativeModel::fit(&mut r, &data, small_config(false)).unwrap();
        let after = model.reconstruction_loss(&data);
        assert!(after < before, "loss should drop: {before} -> {after}");
        assert_eq!(history.len(), 10);
        assert!(history.improved());
    }

    #[test]
    fn p3gm_trains_under_noise_and_reports_privacy() {
        let mut r = rng();
        let data = bimodal(&mut r, 120);
        let (model, history) =
            PhasedGenerativeModel::fit(&mut r, &data, small_config(true)).unwrap();
        assert_eq!(history.len(), 10);
        let spec = model.training_privacy_spec().expect("P3GM is private");
        assert!(spec.epsilon.is_finite() && spec.epsilon > 0.0);
        assert_eq!(spec.delta, 1e-5);
        // Reconstruction is still meaningfully better than random guessing
        // (BCE of ~0.69 per dimension on [0,1] data with p=0.5).
        let loss = model.reconstruction_loss(&data);
        assert!(loss < 8.0 * 0.69, "reconstruction loss {loss}");
    }

    #[test]
    fn non_private_pgm_has_no_privacy_spec() {
        let mut r = rng();
        let data = bimodal(&mut r, 60);
        let model =
            PhasedGenerativeModel::encode_phase(&mut r, &data, small_config(false)).unwrap();
        assert!(model.privacy_spec(60).is_none());
        assert!(model.training_privacy_spec().is_none());
    }

    #[test]
    fn samples_have_correct_shape_and_range() {
        let mut r = rng();
        let data = bimodal(&mut r, 80);
        let (model, _) = PhasedGenerativeModel::fit(&mut r, &data, small_config(false)).unwrap();
        let samples = model.sample(&mut r, 25);
        assert_eq!(samples.shape(), (25, 8));
        assert!(samples.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn generated_samples_resemble_the_two_modes() {
        let mut r = rng();
        let data = bimodal(&mut r, 200);
        let mut cfg = small_config(false);
        cfg.epochs = 30;
        let (model, _) = PhasedGenerativeModel::fit(&mut r, &data, cfg).unwrap();
        let samples = model.sample(&mut r, 60);
        // Every sample should be closer to one of the two true modes than to
        // the uniform 0.5 vector.
        let mode_a: Vec<f64> = (0..8).map(|j| if j < 4 { 0.9 } else { 0.1 }).collect();
        let mode_b: Vec<f64> = (0..8).map(|j| if j < 4 { 0.1 } else { 0.9 }).collect();
        let uniform = vec![0.5; 8];
        let mut near_modes = 0;
        for row in samples.row_iter() {
            let da = p3gm_linalg::vector::distance(row, &mode_a);
            let db = p3gm_linalg::vector::distance(row, &mode_b);
            let du = p3gm_linalg::vector::distance(row, &uniform);
            if da.min(db) < du {
                near_modes += 1;
            }
        }
        assert!(
            near_modes as f64 / 60.0 > 0.6,
            "only {near_modes}/60 samples near the true modes"
        );
    }

    #[test]
    fn ae_variant_trains_only_the_decoder() {
        let mut r = rng();
        let data = bimodal(&mut r, 80);
        let cfg = small_config(false).autoencoder_variant();
        let model = PhasedGenerativeModel::encode_phase(&mut r, &data, cfg).unwrap();
        assert!(!model.trains_variance());
        // Frozen log-variance is the configured constant.
        let lv = model.encode_logvar(data.row(0));
        assert!(lv.iter().all(|&v| (v + 20.0).abs() < 1e-12));
        // Training still works and reduces loss.
        let mut model = model;
        let before = model.reconstruction_loss(&data);
        for _ in 0..10 {
            model.train_epoch(&mut r, &data).unwrap();
        }
        let after = model.reconstruction_loss(&data);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn byte_round_trip_samples_bit_identically() {
        let mut r = rng();
        let data = bimodal(&mut r, 120);
        for private in [false, true] {
            let (model, _) =
                PhasedGenerativeModel::fit(&mut r, &data, small_config(private)).unwrap();
            let back = PhasedGenerativeModel::from_bytes(&model.to_bytes()).unwrap();
            assert_eq!(back.data_dim(), model.data_dim());
            assert_eq!(back.trained_epochs(), model.trained_epochs());
            assert_eq!(back.config(), model.config());
            // Deterministic surfaces match bitwise.
            assert_eq!(
                back.encode_mean(data.row(0)),
                model.encode_mean(data.row(0))
            );
            let latents = Matrix::from_rows(&[
                model.encode_mean(data.row(3)),
                model.encode_mean(data.row(5)),
            ])
            .unwrap();
            assert_eq!(
                back.decode(&latents).as_slice(),
                model.decode(&latents).as_slice()
            );
            // Sampling with the same seed is bit-identical to the model
            // that never left memory.
            let mut r1 = StdRng::seed_from_u64(777);
            let mut r2 = StdRng::seed_from_u64(777);
            let original = model.sample(&mut r1, 40);
            let reloaded = back.sample(&mut r2, 40);
            assert_eq!(original.as_slice(), reloaded.as_slice());
            // The privacy stamp recomputes identically from the restored
            // configuration and training-set size.
            assert_eq!(back.training_privacy_spec(), model.training_privacy_spec());
        }
    }

    #[test]
    fn from_bytes_rejects_malformed_buffers() {
        let mut r = rng();
        let data = bimodal(&mut r, 80);
        let model = PhasedGenerativeModel::encode_phase(&mut r, &data, small_config(true)).unwrap();
        let bytes = model.to_bytes();
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                PhasedGenerativeModel::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut}"
            );
        }
        let mut corrupted = bytes.clone();
        corrupted[bytes.len() / 2] ^= 0x02;
        assert!(PhasedGenerativeModel::from_bytes(&corrupted).is_err());
        assert!(PhasedGenerativeModel::from_bytes(&[]).is_err());
    }

    #[test]
    fn config_validation_propagates() {
        let mut r = rng();
        let data = bimodal(&mut r, 40);
        let mut cfg = small_config(true);
        cfg.latent_dim = 50; // larger than data dimension
        assert!(PhasedGenerativeModel::encode_phase(&mut r, &data, cfg).is_err());
        let mut cfg = small_config(true);
        cfg.sigma_s = 0.0;
        assert!(PhasedGenerativeModel::encode_phase(&mut r, &data, cfg).is_err());
    }

    #[test]
    fn train_epoch_rejects_wrong_width() {
        let mut r = rng();
        let data = bimodal(&mut r, 40);
        let mut model =
            PhasedGenerativeModel::encode_phase(&mut r, &data, small_config(false)).unwrap();
        assert!(model.train_epoch(&mut r, &Matrix::zeros(5, 3)).is_err());
        assert!(model.train_epoch(&mut r, &Matrix::zeros(0, 8)).is_err());
    }

    #[test]
    fn paper_epsilon_ballpark_for_table_iv_settings() {
        // MNIST row of Table IV: sigma_s = 1.42, batch 240, 10 epochs,
        // N = 63 000, eps_p = 0.1, Te = 20, dm = 3 → the paper reports
        // (1, 1e-5)-DP. Our accountant should place it near 1.
        let cfg = PgmConfig {
            sigma_s: 1.42,
            batch_size: 240,
            epochs: 10,
            eps_p: 0.1,
            em_iterations: 20,
            mog_components: 3,
            sigma_e: 70.0,
            ..PgmConfig::default()
        };
        let n = 63_000;
        let spec = RdpAccountant::p3gm_total(
            cfg.eps_p,
            cfg.em_iterations,
            cfg.sigma_e,
            cfg.mog_components,
            cfg.sgd_steps(n),
            cfg.sampling_probability(n),
            cfg.sigma_s,
            cfg.delta,
        )
        .unwrap();
        assert!(
            spec.epsilon > 0.3 && spec.epsilon < 2.0,
            "epsilon {} not near the paper's 1.0",
            spec.epsilon
        );
    }
}
