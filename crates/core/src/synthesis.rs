//! Label-aware data synthesis (paper §IV-E and §VI).
//!
//! The paper attaches the class label to each training row as a one-hot
//! suffix, trains the generative model on the concatenation, and generates
//! synthetic data "so that the label ratio is the same as the real training
//! dataset".  This module implements that protocol generically over any
//! [`GenerativeModel`]:
//!
//! 1. [`LabelledSynthesizer::prepare`] appends the one-hot labels and
//!    min-max-scales the features into `[0, 1]` and then weights the
//!    feature block by `sqrt(n_classes / n_features)` so the one-hot label
//!    columns keep a comparable share of the total variance (the Bernoulli
//!    decoder still applies — all entries stay in `[0, 1]`).
//! 2. The caller trains any generative model on the prepared matrix.
//! 3. [`LabelledSynthesizer::split`] converts generated rows back into
//!    features (in original units) and labels, and
//!    [`synthesize_labelled`] repeatedly samples until the requested
//!    per-class counts are met (falling back to closest-ratio assignment if
//!    a class is never generated).

use crate::{CoreError, GenerativeModel, Result};
use p3gm_linalg::Matrix;
use p3gm_preprocess::encoding::OneHotEncoder;
use p3gm_preprocess::scaler::MinMaxScaler;
use rand::Rng;

/// Prepares labelled data for a generative model and converts generated
/// rows back into (features, label) pairs.
#[derive(Debug, Clone)]
pub struct LabelledSynthesizer {
    encoder: OneHotEncoder,
    scaler: MinMaxScaler,
    n_features: usize,
    /// Scale applied to the (min-max-scaled) feature block so that its total
    /// variance budget is comparable to the one-hot label block. Without
    /// this, a wide feature matrix drowns the `n_classes` label columns and
    /// the generative model's latent space barely encodes the label,
    /// breaking the feature↔label association of the synthetic data. The
    /// weight depends only on the (public) column counts, not on the data.
    feature_weight: f64,
}

impl LabelledSynthesizer {
    /// Fits the scaler on `features` and records the label encoding.
    ///
    /// Returns the synthesizer and the prepared training matrix
    /// (features min-max-scaled to `[0, 1]` and then multiplied by the
    /// public `sqrt(n_classes / n_features)` feature weight, with the
    /// one-hot label appended).
    pub fn prepare(
        features: &Matrix,
        labels: &[usize],
        n_classes: usize,
    ) -> Result<(Self, Matrix)> {
        if features.rows() != labels.len() {
            return Err(CoreError::InvalidData {
                msg: format!(
                    "{} feature rows but {} labels",
                    features.rows(),
                    labels.len()
                ),
            });
        }
        let encoder = OneHotEncoder::new(n_classes)
            .map_err(|e| CoreError::InvalidConfig { msg: e.to_string() })?;
        let scaler = MinMaxScaler::fit(features)
            .map_err(|e| CoreError::InvalidData { msg: e.to_string() })?;
        let feature_weight = (n_classes as f64 / features.cols().max(1) as f64)
            .sqrt()
            .min(1.0);
        let scaled = scaler
            .transform(features)
            .map_err(|e| CoreError::InvalidData { msg: e.to_string() })?
            .scale(feature_weight);
        let prepared = encoder
            .append_to_rows(&scaled, labels)
            .map_err(|e| CoreError::InvalidData { msg: e.to_string() })?;
        Ok((
            LabelledSynthesizer {
                encoder,
                scaler,
                n_features: features.cols(),
                feature_weight,
            },
            prepared,
        ))
    }

    /// Width of the prepared rows (features + one-hot labels).
    pub fn prepared_width(&self) -> usize {
        self.n_features + self.encoder.n_classes()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.encoder.n_classes()
    }

    /// Serializes the synthesizer into a framed `p3gm-store` buffer
    /// (label encoder, feature scaler, feature geometry and the public
    /// feature weight).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::LABELLED_SYNTHESIZER);
        enc.nested(&self.encoder.to_bytes());
        enc.nested(&self.scaler.to_bytes());
        enc.usize(self.n_features).f64(self.feature_weight);
        enc.finish()
    }

    /// Deserializes a synthesizer from a buffer produced by
    /// [`LabelledSynthesizer::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<Self> {
        use p3gm_store::StoreError;
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::LABELLED_SYNTHESIZER)?;
        let encoder = OneHotEncoder::from_bytes(dec.nested()?)?;
        let scaler = MinMaxScaler::from_bytes(dec.nested()?)?;
        let n_features = dec.usize()?;
        let feature_weight = dec.f64()?;
        dec.finish()?;
        if scaler.mins().len() != n_features {
            return Err(StoreError::Invalid {
                msg: format!(
                    "scaler covers {} features, synthesizer claims {n_features}",
                    scaler.mins().len()
                ),
            });
        }
        if !(feature_weight.is_finite() && feature_weight > 0.0 && feature_weight <= 1.0) {
            return Err(StoreError::Invalid {
                msg: format!("feature weight must be in (0, 1], got {feature_weight}"),
            });
        }
        Ok(LabelledSynthesizer {
            encoder,
            scaler,
            n_features,
            feature_weight,
        })
    }

    /// The class count, read from the leading one-hot-encoder frame of a
    /// synthesizer buffer or of any prefix of one that holds that frame
    /// (a tiny, fully checksummed decode).
    pub(crate) fn peek_n_classes(bytes: &[u8]) -> p3gm_store::Result<usize> {
        let mut dec =
            p3gm_store::Decoder::over_prefix(bytes, p3gm_store::tags::LABELLED_SYNTHESIZER)?;
        Ok(OneHotEncoder::from_bytes(dec.nested()?)?.n_classes())
    }

    /// Splits generated rows back into original-unit features and labels.
    pub fn split(&self, generated: &Matrix) -> Result<(Matrix, Vec<usize>)> {
        let (weighted, labels) = self
            .encoder
            .split_rows(generated)
            .map_err(|e| CoreError::InvalidData { msg: e.to_string() })?;
        let scaled = weighted.scale(1.0 / self.feature_weight);
        let features = self
            .scaler
            .inverse_transform(&scaled)
            .map_err(|e| CoreError::InvalidData { msg: e.to_string() })?;
        Ok((features, labels))
    }
}

/// Samples from `model` until (approximately) `target_counts[c]` rows of
/// every class `c` have been collected, or the sampling budget
/// (`8 × total`) is exhausted — in which case the remaining slots are filled
/// with whatever the model produces, re-labelled round-robin to respect the
/// requested ratio (this mirrors how the evaluation protocol always trains
/// the downstream classifier on the requested label distribution).
///
/// Returns `(features, labels)` in original feature units.
pub fn synthesize_labelled<M: GenerativeModel + ?Sized, R: Rng>(
    model: &M,
    synthesizer: &LabelledSynthesizer,
    rng: &mut R,
    target_counts: &[usize],
) -> Result<(Matrix, Vec<usize>)> {
    if target_counts.len() != synthesizer.n_classes() {
        return Err(CoreError::InvalidConfig {
            msg: format!(
                "expected {} class counts, got {}",
                synthesizer.n_classes(),
                target_counts.len()
            ),
        });
    }
    let total: usize = target_counts.iter().sum();
    if total == 0 {
        return Err(CoreError::InvalidConfig {
            msg: "total synthetic sample count must be positive".to_string(),
        });
    }

    let mut remaining = target_counts.to_vec();
    let mut collected_rows: Vec<Vec<f64>> = Vec::with_capacity(total);
    let mut collected_labels: Vec<usize> = Vec::with_capacity(total);
    let mut leftovers: Vec<Vec<f64>> = Vec::new();

    let budget = total.saturating_mul(8).max(32);
    let chunk = total.clamp(16, 512);
    let mut drawn = 0usize;
    while collected_rows.len() < total && drawn < budget {
        let batch = model.sample(rng, chunk.min(budget - drawn));
        drawn += batch.rows();
        let (features, labels) = synthesizer.split(&batch)?;
        for (row, &label) in features.row_iter().zip(labels.iter()) {
            if remaining[label] > 0 {
                remaining[label] -= 1;
                collected_rows.push(row.to_vec());
                collected_labels.push(label);
            } else {
                leftovers.push(row.to_vec());
            }
            if collected_rows.len() == total {
                break;
            }
        }
    }

    // Fill any shortfall from the leftovers (or fresh samples), assigning
    // the still-needed labels round-robin.
    let mut needed: Vec<usize> = Vec::new();
    for (class, &count) in remaining.iter().enumerate() {
        needed.extend(std::iter::repeat_n(class, count));
    }
    let mut leftover_iter = leftovers.into_iter();
    for class in needed {
        let row = match leftover_iter.next() {
            Some(r) => r,
            None => {
                let batch = model.sample(rng, 1);
                let (features, _) = synthesizer.split(&batch)?;
                features.row(0).to_vec()
            }
        };
        collected_rows.push(row);
        collected_labels.push(class);
    }

    let features = Matrix::from_rows(&collected_rows)
        .map_err(|e| CoreError::InvalidData { msg: e.to_string() })?;
    Ok((features, collected_labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3gm_privacy::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(151)
    }

    /// A fake generative model that replays the rows it was given, cycling.
    struct Replay {
        rows: Matrix,
    }

    impl GenerativeModel for Replay {
        fn sample(&self, rng: &mut dyn rand::RngCore, n: usize) -> Matrix {
            let total = self.rows.rows();
            let start = (rng.next_u32() as usize) % total;
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|i| self.rows.row((start + i) % total).to_vec())
                .collect();
            Matrix::from_rows(&rows).unwrap()
        }
    }

    fn toy_data(rng: &mut StdRng, n: usize) -> (Matrix, Vec<usize>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let label = i % 3;
                vec![
                    label as f64 * 10.0 + sampling::normal(rng, 0.0, 0.1),
                    5.0 + sampling::normal(rng, 0.0, 1.0),
                ]
            })
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn prepare_produces_scaled_rows_with_onehot_suffix() {
        let mut r = rng();
        let (x, y) = toy_data(&mut r, 30);
        let (synth, prepared) = LabelledSynthesizer::prepare(&x, &y, 3).unwrap();
        assert_eq!(prepared.shape(), (30, 5));
        assert_eq!(synth.prepared_width(), 5);
        assert_eq!(synth.n_classes(), 3);
        // Feature columns are in [0, 1]; label columns are one-hot.
        for (row, &label) in prepared.row_iter().zip(y.iter()) {
            assert!(row[..2].iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert_eq!(row[2 + label], 1.0);
            assert_eq!(row[2..].iter().sum::<f64>(), 1.0);
        }
    }

    #[test]
    fn prepare_rejects_mismatched_labels() {
        let (x, _) = toy_data(&mut rng(), 10);
        assert!(LabelledSynthesizer::prepare(&x, &[0, 1], 3).is_err());
    }

    #[test]
    fn split_round_trips_prepared_rows() {
        let mut r = rng();
        let (x, y) = toy_data(&mut r, 30);
        let (synth, prepared) = LabelledSynthesizer::prepare(&x, &y, 3).unwrap();
        let (features, labels) = synth.split(&prepared).unwrap();
        assert_eq!(labels, y);
        assert!(features.approx_eq(&x, 1e-9));
    }

    #[test]
    fn byte_round_trip_splits_bit_identically() {
        let mut r = rng();
        let (x, y) = toy_data(&mut r, 30);
        let (synth, prepared) = LabelledSynthesizer::prepare(&x, &y, 3).unwrap();
        let back = LabelledSynthesizer::from_bytes(&synth.to_bytes()).unwrap();
        assert_eq!(back.prepared_width(), synth.prepared_width());
        assert_eq!(back.n_classes(), synth.n_classes());
        let (f1, l1) = synth.split(&prepared).unwrap();
        let (f2, l2) = back.split(&prepared).unwrap();
        assert_eq!(f1.as_slice(), f2.as_slice());
        assert_eq!(l1, l2);
        // Malformed buffers are typed errors.
        let bytes = synth.to_bytes();
        assert!(LabelledSynthesizer::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn synthesize_matches_requested_label_counts() {
        let mut r = rng();
        let (x, y) = toy_data(&mut r, 60);
        let (synth, prepared) = LabelledSynthesizer::prepare(&x, &y, 3).unwrap();
        let model = Replay { rows: prepared };
        let targets = vec![10, 5, 15];
        let (features, labels) = synthesize_labelled(&model, &synth, &mut r, &targets).unwrap();
        assert_eq!(features.rows(), 30);
        assert_eq!(labels.len(), 30);
        for (class, &target) in targets.iter().enumerate() {
            let count = labels.iter().filter(|&&l| l == class).count();
            assert_eq!(count, target, "class {class}");
        }
        // Features are back in original units (first column spans ~0..20).
        let col0 = features.col(0);
        assert!(col0.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 15.0);
    }

    #[test]
    fn synthesize_fills_missing_classes_by_relabelling() {
        let mut r = rng();
        // The replay model only ever produces class-0 rows.
        let (x, y) = toy_data(&mut r, 30);
        let only_class0: Vec<usize> = x
            .row_iter()
            .zip(y.iter())
            .enumerate()
            .filter(|(_, (_, &l))| l == 0)
            .map(|(i, _)| i)
            .collect();
        let x0 = x.select_rows(&only_class0).unwrap();
        let y0: Vec<usize> = vec![0; x0.rows()];
        let (synth, prepared) = LabelledSynthesizer::prepare(&x0, &y0, 3).unwrap();
        let model = Replay { rows: prepared };
        let targets = vec![4, 4, 4];
        let (features, labels) = synthesize_labelled(&model, &synth, &mut r, &targets).unwrap();
        assert_eq!(features.rows(), 12);
        for class in 0..3 {
            assert_eq!(labels.iter().filter(|&&l| l == class).count(), 4);
        }
    }

    #[test]
    fn synthesize_validates_inputs() {
        let mut r = rng();
        let (x, y) = toy_data(&mut r, 12);
        let (synth, prepared) = LabelledSynthesizer::prepare(&x, &y, 3).unwrap();
        let model = Replay { rows: prepared };
        assert!(synthesize_labelled(&model, &synth, &mut r, &[1, 2]).is_err());
        assert!(synthesize_labelled(&model, &synth, &mut r, &[0, 0, 0]).is_err());
    }
}
