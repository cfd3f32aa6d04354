//! Hyper-parameter configuration for the generative models.

use crate::lot::{sampling_probability, steps_per_epoch};
use crate::{CoreError, Result};

/// How the encoder variance is handled in the Decoding Phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarianceMode {
    /// Train σ_φ(x) with the decoder (the full P3GM of paper Eq. (10)).
    Learned,
    /// Freeze log σ²_φ(x) at the given constant (paper Eq. (11)); with a very
    /// negative value this is the autoencoder-like P3GM(AE) of Figure 7.
    Fixed(f64),
}

/// Configuration of the phased generative model (PGM / P3GM / P3GM(AE)).
///
/// Every decoder is Bernoulli: it outputs logits over data scaled to
/// `[0, 1]`, as the reference implementation does.
#[derive(Debug, Clone, PartialEq)]
pub struct PgmConfig {
    /// Latent dimensionality `d'` (the PCA output dimension).
    pub latent_dim: usize,
    /// Hidden width of the encoder/decoder MLPs (the paper uses 1000; the
    /// evaluation harness scales this down).
    pub hidden_dim: usize,
    /// Number of mixture components `d_m` of the MoG prior.
    pub mog_components: usize,
    /// Training epochs of the Decoding Phase.
    pub epochs: usize,
    /// Mini-batch (lot) size `B`.
    pub batch_size: usize,
    /// Learning rate of the Adam optimizer.
    pub learning_rate: f64,
    /// Per-example gradient clipping norm `C`.
    pub clip_norm: f64,
    /// Whether the model is trained under differential privacy (P3GM) or not
    /// (PGM). When `false`, `eps_p`, `sigma_e` and `sigma_s` are ignored.
    pub private: bool,
    /// DP-PCA budget ε_p (paper default 0.1).
    pub eps_p: f64,
    /// DP-EM noise multiplier σ_e.
    pub sigma_e: f64,
    /// DP-EM iterations T_e (paper default 20).
    pub em_iterations: usize,
    /// DP-SGD noise multiplier σ_s.
    pub sigma_s: f64,
    /// Target δ of the overall (ε, δ)-DP guarantee.
    pub delta: f64,
    /// How the encoder variance is treated.
    pub variance_mode: VarianceMode,
}

impl Default for PgmConfig {
    fn default() -> Self {
        PgmConfig {
            latent_dim: 10,
            hidden_dim: 100,
            mog_components: 3,
            epochs: 10,
            batch_size: 64,
            learning_rate: 1e-3,
            clip_norm: 1.0,
            private: true,
            eps_p: 0.1,
            sigma_e: 100.0,
            em_iterations: 20,
            sigma_s: 1.42,
            delta: 1e-5,
            variance_mode: VarianceMode::Learned,
        }
    }
}

impl PgmConfig {
    /// A non-private PGM configuration with the same architecture.
    pub fn non_private(mut self) -> Self {
        self.private = false;
        self
    }

    /// The P3GM(AE) variant: encoder variance frozen (σ ≈ 0).
    pub fn autoencoder_variant(mut self) -> Self {
        self.variance_mode = VarianceMode::Fixed(-20.0);
        self
    }

    /// Validates the configuration against a dataset of `n` rows and `d`
    /// features.
    pub fn validate(&self, n: usize, d: usize) -> Result<()> {
        self.check_finite()?;
        if self.latent_dim == 0 || self.latent_dim > d {
            return Err(CoreError::InvalidConfig {
                msg: format!("latent_dim must be in 1..={d}, got {}", self.latent_dim),
            });
        }
        if self.hidden_dim == 0 {
            return Err(CoreError::InvalidConfig {
                msg: "hidden_dim must be positive".to_string(),
            });
        }
        if self.mog_components == 0 || self.mog_components > n {
            return Err(CoreError::InvalidConfig {
                msg: format!(
                    "mog_components must be in 1..={n}, got {}",
                    self.mog_components
                ),
            });
        }
        if self.epochs == 0 || self.batch_size == 0 {
            return Err(CoreError::InvalidConfig {
                msg: "epochs and batch_size must be positive".to_string(),
            });
        }
        if self.learning_rate <= 0.0 || self.clip_norm <= 0.0 {
            return Err(CoreError::InvalidConfig {
                msg: "learning_rate and clip_norm must be positive".to_string(),
            });
        }
        if self.private {
            if self.eps_p <= 0.0 || self.sigma_e <= 0.0 || self.sigma_s <= 0.0 {
                return Err(CoreError::InvalidConfig {
                    msg: "private training requires positive eps_p, sigma_e and sigma_s"
                        .to_string(),
                });
            }
            if !(0.0..1.0).contains(&self.delta) || self.delta == 0.0 {
                return Err(CoreError::InvalidConfig {
                    msg: format!("delta must be in (0,1), got {}", self.delta),
                });
            }
            if self.em_iterations == 0 {
                return Err(CoreError::InvalidConfig {
                    msg: "private training requires at least one DP-EM iteration".to_string(),
                });
            }
        }
        if n < 2 * self.batch_size.min(n).max(1) && n < 8 {
            return Err(CoreError::InvalidData {
                msg: format!("{n} rows are not enough to train"),
            });
        }
        Ok(())
    }

    /// Rejects a non-finite value in any floating-point field (see
    /// [`check_finite`]).
    fn check_finite(&self) -> Result<()> {
        let fixed_variance = match self.variance_mode {
            VarianceMode::Learned => 0.0,
            VarianceMode::Fixed(v) => v,
        };
        check_finite(&[
            ("learning_rate", self.learning_rate),
            ("clip_norm", self.clip_norm),
            ("eps_p", self.eps_p),
            ("sigma_e", self.sigma_e),
            ("sigma_s", self.sigma_s),
            ("delta", self.delta),
            ("fixed log-variance", fixed_variance),
        ])
    }

    /// Writes the configuration into a snapshot payload. The field order is
    /// part of the `p3gm-store` wire format — append, never reorder.
    pub(crate) fn encode_into(&self, enc: &mut p3gm_store::Encoder) {
        enc.usize(self.latent_dim)
            .usize(self.hidden_dim)
            .usize(self.mog_components)
            .usize(self.epochs)
            .usize(self.batch_size)
            .f64(self.learning_rate)
            .f64(self.clip_norm)
            .bool(self.private)
            .f64(self.eps_p)
            .f64(self.sigma_e)
            .usize(self.em_iterations)
            .f64(self.sigma_s)
            .f64(self.delta);
        match self.variance_mode {
            VarianceMode::Learned => enc.u8(0).f64(0.0),
            VarianceMode::Fixed(v) => enc.u8(1).f64(v),
        };
        // The decoder-likelihood code: 0 is the Bernoulli decoder, the only
        // one there is. Code 1 named the retired Gaussian decoder.
        enc.u8(0);
    }

    /// Reads a configuration written by [`PgmConfig::encode_into`].
    pub(crate) fn decode_from(dec: &mut p3gm_store::Decoder) -> p3gm_store::Result<Self> {
        let latent_dim = dec.usize()?;
        let hidden_dim = dec.usize()?;
        let mog_components = dec.usize()?;
        let epochs = dec.usize()?;
        let batch_size = dec.usize()?;
        let learning_rate = dec.f64()?;
        let clip_norm = dec.f64()?;
        let private = dec.bool()?;
        let eps_p = dec.f64()?;
        let sigma_e = dec.f64()?;
        let em_iterations = dec.usize()?;
        let sigma_s = dec.f64()?;
        let delta = dec.f64()?;
        let variance_mode = match (dec.u8()?, dec.f64()?) {
            (0, _) => VarianceMode::Learned,
            (1, v) => VarianceMode::Fixed(v),
            (code, _) => {
                return Err(p3gm_store::StoreError::Invalid {
                    msg: format!("unknown variance-mode code {code}"),
                })
            }
        };
        match dec.u8()? {
            0 => {}
            code => {
                return Err(p3gm_store::StoreError::Invalid {
                    msg: format!("unknown decoder-likelihood code {code}"),
                })
            }
        }
        let config = PgmConfig {
            latent_dim,
            hidden_dim,
            mog_components,
            epochs,
            batch_size,
            learning_rate,
            clip_norm,
            private,
            eps_p,
            sigma_e,
            em_iterations,
            sigma_s,
            delta,
            variance_mode,
        };
        config
            .check_finite()
            .map_err(|e| p3gm_store::StoreError::Invalid { msg: e.to_string() })?;
        Ok(config)
    }

    /// Number of DP-SGD steps `T_s` the Decoding Phase will take on a
    /// dataset of `n` rows.
    pub fn sgd_steps(&self, n: usize) -> usize {
        steps_per_epoch(n, self.batch_size) * self.epochs
    }

    /// Sampling probability `q = B/N` used by the privacy accountant.
    pub fn sampling_probability(&self, n: usize) -> f64 {
        sampling_probability(n, self.batch_size)
    }

    /// The (ε, δ)-DP guarantee of running this configuration on `n`
    /// training rows (paper Theorem 4), or `None` for a non-private
    /// configuration.
    ///
    /// The guarantee is a pure function of the configuration and `n` —
    /// no trained weights are involved — which is what lets a snapshot
    /// *header* peek recompute the honest stamp without decoding any
    /// weight payload. `PhasedGenerativeModel::privacy_spec` delegates
    /// here, so the header-reported and full-decode-reported stamps are
    /// the same accountant run by construction.
    pub fn privacy_spec(&self, n: usize) -> Option<p3gm_privacy::rdp::PrivacySpec> {
        if !self.private {
            return None;
        }
        p3gm_privacy::rdp::RdpAccountant::p3gm_total(
            self.eps_p,
            self.em_iterations,
            self.sigma_e,
            self.mog_components,
            self.sgd_steps(n),
            self.sampling_probability(n),
            self.sigma_s,
            self.delta,
        )
        .ok()
    }
}

/// Configuration of the (DP-)VAE baselines (Bernoulli decoder, like
/// [`PgmConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VaeConfig {
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Hidden width of the encoder/decoder MLPs.
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Per-example clipping norm (only used when `sigma_s > 0`).
    pub clip_norm: f64,
    /// DP-SGD noise multiplier; `0.0` means non-private end-to-end training
    /// (plain VAE), positive values give DP-VAE.
    pub sigma_s: f64,
    /// Target δ for the DP guarantee of DP-VAE.
    pub delta: f64,
}

impl Default for VaeConfig {
    fn default() -> Self {
        VaeConfig {
            latent_dim: 10,
            hidden_dim: 100,
            epochs: 10,
            batch_size: 64,
            learning_rate: 1e-2,
            clip_norm: 1.0,
            sigma_s: 0.0,
            delta: 1e-5,
        }
    }
}

impl VaeConfig {
    /// Returns `true` when the configuration trains with DP-SGD.
    pub fn is_private(&self) -> bool {
        self.sigma_s > 0.0
    }

    /// Validates the configuration against a dataset of `n` rows and `d`
    /// features.
    pub fn validate(&self, n: usize, d: usize) -> Result<()> {
        self.validate_for_dim(d)?;
        if n < 8 {
            return Err(CoreError::InvalidData {
                msg: format!("{n} rows are not enough to train"),
            });
        }
        Ok(())
    }

    /// The checks of [`validate`](Self::validate) that do not depend on
    /// the number of rows, for `d` features.
    pub(crate) fn validate_for_dim(&self, d: usize) -> Result<()> {
        check_finite(&[
            ("learning_rate", self.learning_rate),
            ("clip_norm", self.clip_norm),
            ("sigma_s", self.sigma_s),
            ("delta", self.delta),
        ])?;
        if self.latent_dim == 0 || self.latent_dim > d {
            return Err(CoreError::InvalidConfig {
                msg: format!("latent_dim must be in 1..={d}, got {}", self.latent_dim),
            });
        }
        if self.hidden_dim == 0 || self.epochs == 0 || self.batch_size == 0 {
            return Err(CoreError::InvalidConfig {
                msg: "hidden_dim, epochs and batch_size must be positive".to_string(),
            });
        }
        if self.learning_rate <= 0.0 || self.clip_norm <= 0.0 || self.sigma_s < 0.0 {
            return Err(CoreError::InvalidConfig {
                msg: "learning_rate and clip_norm must be positive, sigma_s non-negative"
                    .to_string(),
            });
        }
        if self.is_private() && !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidConfig {
                msg: format!("DP-VAE needs delta in (0,1), got {}", self.delta),
            });
        }
        Ok(())
    }

    /// Number of SGD steps taken on `n` rows.
    pub fn sgd_steps(&self, n: usize) -> usize {
        steps_per_epoch(n, self.batch_size) * self.epochs
    }

    /// Sampling probability `q = B/N` used by the privacy accountant.
    pub fn sampling_probability(&self, n: usize) -> f64 {
        sampling_probability(n, self.batch_size)
    }
}

/// Rejects the first non-finite `(name, value)` field. The range checks
/// cannot catch NaN, since every comparison with NaN is false: a NaN clip
/// norm or noise multiplier would train with no clipping or no noise under
/// a DP stamp.
fn check_finite(fields: &[(&str, f64)]) -> Result<()> {
    match fields.iter().find(|(_, value)| !value.is_finite()) {
        Some((name, value)) => Err(CoreError::InvalidConfig {
            msg: format!("{name} must be finite, got {value}"),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pgm_config_is_valid() {
        let cfg = PgmConfig::default();
        assert!(cfg.validate(1000, 64).is_ok());
        assert!(cfg.private);
    }

    #[test]
    fn variant_constructors() {
        let cfg = PgmConfig::default().non_private();
        assert!(!cfg.private);
        let ae = PgmConfig::default().autoencoder_variant();
        assert!(matches!(ae.variance_mode, VarianceMode::Fixed(v) if v < -10.0));
    }

    #[test]
    fn pgm_validation_rejects_bad_configs() {
        let base = PgmConfig::default();
        assert!(PgmConfig {
            latent_dim: 0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            latent_dim: 30,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            hidden_dim: 0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            mog_components: 0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            epochs: 0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            learning_rate: 0.0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            sigma_s: 0.0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            delta: 0.0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(PgmConfig {
            em_iterations: 0,
            ..base.clone()
        }
        .validate(100, 20)
        .is_err());
        // Non-private config does not care about the privacy fields.
        assert!(PgmConfig {
            sigma_s: 0.0,
            ..base.clone().non_private()
        }
        .validate(100, 20)
        .is_ok());
        assert!(base.validate(2, 20).is_err());
    }

    #[test]
    fn validation_rejects_non_finite_floats() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let base = PgmConfig::default();
            let pgm_fields = [
                PgmConfig {
                    learning_rate: bad,
                    ..base.clone()
                },
                PgmConfig {
                    clip_norm: bad,
                    ..base.clone()
                },
                PgmConfig {
                    eps_p: bad,
                    ..base.clone()
                },
                PgmConfig {
                    sigma_e: bad,
                    ..base.clone()
                },
                PgmConfig {
                    sigma_s: bad,
                    ..base.clone()
                },
                PgmConfig {
                    delta: bad,
                    ..base.clone()
                },
                PgmConfig {
                    variance_mode: VarianceMode::Fixed(bad),
                    ..base.clone()
                },
            ];
            for cfg in pgm_fields {
                for cfg in [cfg.clone(), cfg.non_private()] {
                    assert!(
                        matches!(cfg.validate(100, 20), Err(CoreError::InvalidConfig { .. })),
                        "{cfg:?}"
                    );
                }
            }
            let base = VaeConfig::default();
            let vae_fields = [
                VaeConfig {
                    learning_rate: bad,
                    ..base.clone()
                },
                VaeConfig {
                    clip_norm: bad,
                    ..base.clone()
                },
                VaeConfig {
                    sigma_s: bad,
                    ..base.clone()
                },
                VaeConfig {
                    delta: bad,
                    ..base.clone()
                },
            ];
            for cfg in vae_fields {
                assert!(
                    matches!(cfg.validate(100, 20), Err(CoreError::InvalidConfig { .. })),
                    "{cfg:?}"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_non_finite_floats() {
        // Round trip works for a sane config...
        let good = PgmConfig::default().autoencoder_variant();
        let mut enc = p3gm_store::Encoder::new(99);
        good.encode_into(&mut enc);
        let bytes = enc.finish();
        let mut dec = p3gm_store::Decoder::new(&bytes, 99).unwrap();
        assert_eq!(PgmConfig::decode_from(&mut dec).unwrap(), good);
        // ...but NaN fields (which pass validate()'s range checks because
        // NaN comparisons are false) are rejected at decode time.
        for bad in [
            PgmConfig {
                learning_rate: f64::NAN,
                ..PgmConfig::default()
            },
            PgmConfig {
                eps_p: f64::INFINITY,
                ..PgmConfig::default()
            },
            PgmConfig {
                variance_mode: VarianceMode::Fixed(f64::NAN),
                ..PgmConfig::default()
            },
        ] {
            let mut enc = p3gm_store::Encoder::new(99);
            bad.encode_into(&mut enc);
            let bytes = enc.finish();
            let mut dec = p3gm_store::Decoder::new(&bytes, 99).unwrap();
            assert!(matches!(
                PgmConfig::decode_from(&mut dec),
                Err(p3gm_store::StoreError::Invalid { .. })
            ));
        }
    }

    /// Decoder-likelihood code 1 named the retired Gaussian decoder; a
    /// payload carrying it, or any code but 0, is invalid.
    #[test]
    fn decode_rejects_reserved_decoder_likelihood_codes() {
        let mut enc = p3gm_store::Encoder::new(99);
        PgmConfig::default().encode_into(&mut enc);
        let good = enc.finish();
        // The code is the payload's last byte, just before the checksum.
        let body = good.len() - p3gm_store::CHECKSUM_LEN;
        assert_eq!(good[body - 1], 0);
        for code in [1, 2, u8::MAX] {
            let mut bytes = good.clone();
            bytes[body - 1] = code;
            let crc = p3gm_store::crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            let mut dec = p3gm_store::Decoder::new(&bytes, 99).unwrap();
            assert!(
                matches!(
                    PgmConfig::decode_from(&mut dec),
                    Err(p3gm_store::StoreError::Invalid { .. })
                ),
                "code {code}"
            );
        }
    }

    #[test]
    fn sgd_steps_and_sampling_probability() {
        use rand::{rngs::StdRng, SeedableRng};
        let cfg = PgmConfig {
            epochs: 5,
            batch_size: 32,
            ..Default::default()
        };
        assert_eq!(cfg.sgd_steps(320), 50);
        assert_eq!(cfg.sgd_steps(321), 55);
        assert!((cfg.sampling_probability(320) - 0.1).abs() < 1e-12);
        // A full-batch lot (batch_size >= n) is q = 1, and the accountant
        // stamps it rather than erroring after training already ran.
        for n in [10, 32] {
            assert_eq!(cfg.sampling_probability(n), 1.0);
            let spec = cfg
                .privacy_spec(n)
                .expect("a full-batch PGM fit is stamped");
            assert!(spec.epsilon.is_finite() && spec.epsilon > 0.0);
        }
        let vae_cfg = VaeConfig {
            latent_dim: 2,
            hidden_dim: 8,
            batch_size: 32,
            sigma_s: 1.0,
            ..VaeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        let vae = crate::Vae::new(&mut rng, 4, vae_cfg.clone()).unwrap();
        for n in [10, 32] {
            assert_eq!(vae_cfg.sampling_probability(n), 1.0);
            let spec = vae
                .privacy_spec(n)
                .expect("a full-batch DP-VAE fit is stamped");
            assert!(spec.epsilon.is_finite() && spec.epsilon > 0.0);
        }
    }

    /// The steps a fit takes are the steps the accountant charges, on lots
    /// of the size its sampling probability assumes.
    #[test]
    fn fits_take_the_steps_the_accountant_charges() {
        use crate::{PhasedGenerativeModel, Vae};
        use rand::{rngs::StdRng, SeedableRng};
        for (n, batch_size) in [(64, 16), (70, 16), (20, 64)] {
            let data = p3gm_linalg::Matrix::from_fn(n, 5, |i, j| {
                (((i * 5 + j) as f64) * 0.37).sin().abs()
            });
            let mut rng = StdRng::seed_from_u64(n as u64);
            let cfg = PgmConfig {
                latent_dim: 2,
                hidden_dim: 8,
                mog_components: 2,
                epochs: 2,
                batch_size,
                em_iterations: 2,
                ..PgmConfig::default()
            };
            let (_, history, report) =
                PhasedGenerativeModel::fit_with_report(&mut rng, &data, cfg.clone(), None).unwrap();
            let steps = cfg.sgd_steps(n);
            assert_eq!(
                report.dp_sgd_steps, steps as u64,
                "n = {n}, B = {batch_size}"
            );
            assert_eq!(history.total_steps(), steps, "n = {n}, B = {batch_size}");
            let lot = report.clip_measured_examples as f64 / report.dp_sgd_steps as f64;
            assert_eq!(lot / n as f64, cfg.sampling_probability(n));

            let cfg = VaeConfig {
                latent_dim: 2,
                hidden_dim: 8,
                epochs: 2,
                batch_size,
                sigma_s: 1.0,
                ..VaeConfig::default()
            };
            let (_, history) = Vae::fit(&mut rng, &data, cfg.clone()).unwrap();
            assert_eq!(
                history.total_steps(),
                cfg.sgd_steps(n),
                "n = {n}, B = {batch_size}"
            );
        }
    }

    #[test]
    fn vae_rejects_out_of_range_configs_at_new_and_fit() {
        use crate::Vae;
        use rand::{rngs::StdRng, SeedableRng};
        let mut r = StdRng::seed_from_u64(3);
        let data = p3gm_linalg::Matrix::from_fn(40, 6, |i, j| ((i + j) % 2) as f64);
        // (learning_rate, hidden_dim, sigma_s, delta), one bad field each;
        // δ matters only for the private DP-VAE.
        for (learning_rate, hidden_dim, sigma_s, delta) in [
            (0.0, 16, 0.0, 1e-5),
            (-1.0, 16, 0.0, 1e-5),
            (1e-2, 0, 0.0, 1e-5),
            (1e-2, 16, -1.0, 1e-5),
            (1e-2, 16, 1.0, 0.0),
            (1e-2, 16, 1.0, 1.0),
            (1e-2, 16, 1.0, 2.0),
        ] {
            let cfg = VaeConfig {
                learning_rate,
                hidden_dim,
                sigma_s,
                delta,
                latent_dim: 2,
                ..VaeConfig::default()
            };
            let new = Vae::new(&mut r, 6, cfg.clone());
            assert!(
                matches!(new, Err(CoreError::InvalidConfig { .. })),
                "{cfg:?}"
            );
            let fit = Vae::fit(&mut r, &data, cfg.clone());
            assert!(
                matches!(fit, Err(CoreError::InvalidConfig { .. })),
                "{cfg:?}"
            );
        }
    }

    #[test]
    fn vae_config_validation() {
        let cfg = VaeConfig::default();
        assert!(cfg.validate(100, 20).is_ok());
        assert!(!cfg.is_private());
        let dp = VaeConfig {
            sigma_s: 1.5,
            ..cfg.clone()
        };
        assert!(dp.is_private());
        assert!(VaeConfig {
            latent_dim: 0,
            ..cfg.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(VaeConfig {
            latent_dim: 40,
            ..cfg.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(VaeConfig {
            epochs: 0,
            ..cfg.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(VaeConfig {
            sigma_s: -1.0,
            ..cfg.clone()
        }
        .validate(100, 20)
        .is_err());
        assert!(cfg.validate(2, 20).is_err());
        assert_eq!(cfg.sgd_steps(640), 100);
    }
}
