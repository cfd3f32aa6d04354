//! DP-SGD: differentially private stochastic gradient descent (paper §II-D).
//!
//! This module glues the per-example gradients produced by [`crate::mlp`]
//! to the gradient-privatization primitives in `p3gm-privacy` and an
//! [`Adam`] step. The DP-SGD trainer (`p3gm-core`, shared by
//! P3GM and the DP-VAE) clips without ever forming a per-example gradient:
//! [`clip_and_sum_batch`] takes each example's norm from the factored
//! [`BatchGradients`] of one or more networks, clips with `p3gm-privacy`'s
//! single rule [`clip_factor`], and sums with one weighted product per
//! layer. [`DpSgdConfig::draw_noise`] draws a step's noise, which does not
//! depend on the data, so the trainer draws it on the calling thread while
//! the lot is summed in parallel, then adds it and averages
//! ([`GradientNoise::apply`]). [`DpSgdConfig::step`] runs the
//! same mechanism on a materialized `B x P` batch (the reference). The
//! privacy *accounting* for the resulting training run lives in
//! `p3gm-privacy::rdp`; `p3gm-core`'s `lot` module defines the step count
//! and sampling rate it charges.

use crate::mlp::BatchGradients;
use crate::optimizer::Adam;
use p3gm_linalg::Matrix;
use p3gm_privacy::mechanisms::{
    clip_factor, draw_gradient_noise, privatize_gradient_sum, validate_dp_sgd, GradientNoise,
};
use p3gm_privacy::PrivacyError;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters of a DP-SGD run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpSgdConfig {
    /// Per-example gradient clipping norm `C`.
    pub clip_norm: f64,
    /// Noise multiplier σ (noise std is `σ · C`).
    pub noise_multiplier: f64,
    /// Expected lot (batch) size `B`.
    pub batch_size: usize,
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 1.0,
            batch_size: 256,
        }
    }
}

impl DpSgdConfig {
    /// Validates the configuration: `C` positive and finite, σ
    /// non-negative and finite, `B` positive.
    pub fn validate(&self) -> Result<(), PrivacyError> {
        validate_dp_sgd(self.clip_norm, self.noise_multiplier, self.batch_size)
    }

    /// Privatizes a batch of per-example gradients (`B x P`, one flat
    /// gradient per row — the layout [`crate::mlp::Mlp::per_example_gradients`]
    /// produces) and applies one Adam step to `params`. Returns the
    /// privatized average gradient (useful for logging gradient norms).
    pub fn step<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        per_example_grads: &Matrix,
        params: &mut [f64],
        optimizer: &mut Adam,
    ) -> Result<Vec<f64>, PrivacyError> {
        let noisy = privatize_gradient_sum(
            rng,
            per_example_grads,
            self.clip_norm,
            self.noise_multiplier,
            self.batch_size,
        )?;
        optimizer.step(params, &noisy);
        Ok(noisy)
    }

    /// Draws the DP noise for a lot's clipped gradient sum of `dim`
    /// coordinates (from [`clip_and_sum_batch`] with this config's
    /// `clip_norm`). [`GradientNoise::apply`] then adds it to the sum and
    /// divides by the lot size, giving the privatized average gradient.
    pub fn draw_noise<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        dim: usize,
    ) -> Result<GradientNoise, PrivacyError> {
        draw_gradient_noise(
            rng,
            dim,
            self.clip_norm,
            self.noise_multiplier,
            self.batch_size,
        )
    }
}

/// Clips and sums the per-example gradients of a chunk of examples held in
/// factored form, without forming any of them. Each example's gradient is
/// the concatenation, in `parts` order, of its gradients in every network
/// of `parts` (all over the same examples); the returned sum uses that
/// flat layout.
///
/// With `clip_norm = Some(C)` each example's norm is taken across all parts
/// ([`BatchGradients::add_squared_norms`]) and its factor comes from
/// [`clip_factor`]; the second value counts the clipped examples. With
/// `None` (non-private training) every factor is 1, no norm is computed
/// and the count is 0.
pub fn clip_and_sum_batch(parts: &[&BatchGradients], clip_norm: Option<f64>) -> (Vec<f64>, u64) {
    let rows = parts.first().map_or(0, |part| part.rows());
    let mut factors = vec![1.0; rows];
    let mut clipped = 0;
    if let Some(clip_norm) = clip_norm {
        let mut squared_norms = vec![0.0; rows];
        for part in parts {
            part.add_squared_norms(&mut squared_norms);
        }
        for (factor, squared) in factors.iter_mut().zip(&squared_norms) {
            if let Some(f) = clip_factor(squared.sqrt(), clip_norm) {
                *factor = f;
                clipped += 1;
            }
        }
    }
    let mut sum = vec![0.0; parts.iter().map(|part| part.num_params()).sum()];
    let mut offset = 0;
    for part in parts {
        let len = part.num_params();
        part.add_weighted_sum(&factors, &mut sum[offset..offset + len]);
        offset += len;
    }
    (sum, clipped)
}

/// Samples a lot of `batch_size` example indices uniformly without
/// replacement from `0..n` (the paper assumes uniformly sampled batches, so
/// the sampling probability of any one record is `B/N`).
pub fn sample_batch_indices<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    batch_size: usize,
) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(batch_size.min(n));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn config_validation() {
        assert!(DpSgdConfig::default().validate().is_ok());
        assert!(DpSgdConfig {
            clip_norm: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DpSgdConfig {
            noise_multiplier: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DpSgdConfig {
            batch_size: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for cfg in [
                DpSgdConfig {
                    clip_norm: bad,
                    ..Default::default()
                },
                DpSgdConfig {
                    noise_multiplier: bad,
                    ..Default::default()
                },
            ] {
                assert!(cfg.validate().is_err(), "{cfg:?}");
                let mut params = vec![0.0; 2];
                let grads = Matrix::from_rows(&[vec![30.0, 40.0], vec![3.0, 4.0]]).unwrap();
                assert!(cfg
                    .step(&mut rng(), &grads, &mut params, &mut Adam::new(1.0))
                    .is_err());
                assert!(cfg.draw_noise(&mut rng(), 2).is_err());
                assert_eq!(params, vec![0.0; 2], "a rejected step must not move");
            }
        }
    }

    #[test]
    fn step_without_noise_is_clipped_sgd() {
        let mut r = rng();
        let cfg = DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 0.0,
            batch_size: 2,
        };
        let mut params = vec![0.0, 0.0];
        let mut opt = Adam::new(0.1);
        // A unit-norm gradient and a clipped one (norm 5 → 1): the
        // privatized average is their common direction.
        let grads = Matrix::from_rows(&[vec![0.6, 0.8], vec![3.0, 4.0]]).unwrap();
        let noisy = cfg.step(&mut r, &grads, &mut params, &mut opt).unwrap();
        assert!((noisy[0] - 0.6).abs() < 1e-12);
        assert!((noisy[1] - 0.8).abs() < 1e-12);
        // Adam's first step moves every coordinate by the learning rate
        // against the gradient's sign.
        assert_eq!(opt.steps_taken(), 1);
        assert!((params[0] + 0.1).abs() < 1e-6, "{params:?}");
        assert!((params[1] + 0.1).abs() < 1e-6, "{params:?}");
    }

    #[test]
    fn step_with_noise_changes_params() {
        let mut r = rng();
        let cfg = DpSgdConfig {
            clip_norm: 1.0,
            noise_multiplier: 2.0,
            batch_size: 4,
        };
        let mut params = vec![0.0; 8];
        let mut opt = Adam::new(0.1);
        let grads = Matrix::zeros(4, 8);
        cfg.step(&mut r, &grads, &mut params, &mut opt).unwrap();
        // Pure noise: parameters moved away from zero.
        assert!(params.iter().any(|&p| p.abs() > 1e-6));
    }

    #[test]
    fn batch_indices_are_unique_and_in_range() {
        let mut r = rng();
        let idx = sample_batch_indices(&mut r, 100, 32);
        assert_eq!(idx.len(), 32);
        assert!(idx.iter().all(|&i| i < 100));
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
        // Requesting more than n clamps.
        assert_eq!(sample_batch_indices(&mut r, 5, 32).len(), 5);
    }
}
