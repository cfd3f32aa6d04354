//! Multi-class MLP softmax classifier.
//!
//! The paper's image experiments (Table VII, Figure 7c) train a small
//! convolutional classifier; the evaluation harness trains this MLP
//! instead (`eval::common::evaluate_images`, `eval::fig7`), which is faster
//! on the reduced-resolution synthetic images.

use p3gm_linalg::{vector, Matrix};
use p3gm_nn::activation::Activation;
use p3gm_nn::loss::softmax_cross_entropy;
use p3gm_nn::mlp::Mlp;
use p3gm_nn::optimizer::Adam;
use rand::seq::SliceRandom;
use rand::Rng;

/// A multi-class MLP classifier trained with Adam on softmax cross-entropy.
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    net: Mlp,
    n_classes: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
}

impl MlpClassifier {
    /// Builds a classifier with one hidden layer of `hidden` units.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        n_features: usize,
        hidden: usize,
        n_classes: usize,
    ) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        MlpClassifier {
            net: Mlp::new(
                rng,
                &[n_features, hidden, n_classes],
                Activation::Relu,
                Activation::Identity,
            ),
            n_classes,
            epochs: 15,
            batch_size: 32,
            learning_rate: 1e-3,
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Trains the classifier; returns the average loss of the final epoch.
    pub fn fit<R: Rng + ?Sized>(&mut self, rng: &mut R, x: &Matrix, labels: &[usize]) -> f64 {
        assert_eq!(x.rows(), labels.len(), "row/label mismatch");
        assert!(x.rows() > 0, "cannot fit on empty data");
        assert!(
            labels.iter().all(|&l| l < self.n_classes),
            "label out of range"
        );
        let n = x.rows();
        let mut optimizer = Adam::new(self.learning_rate);
        let mut params = self.net.params();
        let mut last_epoch_loss = 0.0;

        for _ in 0..self.epochs {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(self.batch_size.max(1)) {
                // Per-example passes run on parallel row chunks; the partial
                // gradients are folded in chunk order (deterministic for
                // every thread count). Chunks are floored at 8 examples so a
                // tiny mini-batch does not pay one thread dispatch and one
                // P-length partial per example.
                let (batch_loss, mut grads) = p3gm_parallel::par_map_reduce(
                    chunk.len(),
                    p3gm_parallel::default_chunk_len(chunk.len()).max(8),
                    |range| {
                        let mut grads = vec![0.0; self.net.num_params()];
                        let mut loss = 0.0;
                        for &i in &chunk[range] {
                            let cache = self.net.forward_cached(x.row(i));
                            let (l, grad_out) = softmax_cross_entropy(cache.output(), labels[i]);
                            loss += l;
                            self.net.backward(&cache, &grad_out, &mut grads);
                        }
                        (loss, grads)
                    },
                    |(loss_a, mut grads_a), (loss_b, grads_b)| {
                        vector::axpy(1.0, &grads_b, &mut grads_a);
                        (loss_a + loss_b, grads_a)
                    },
                )
                .unwrap_or_else(|| (0.0, vec![0.0; self.net.num_params()]));
                let scale = 1.0 / chunk.len() as f64;
                for g in &mut grads {
                    *g *= scale;
                }
                optimizer.step(&mut params, &grads);
                self.net.set_params(&params);
                epoch_loss += batch_loss;
            }
            last_epoch_loss = epoch_loss / n as f64;
        }
        last_epoch_loss
    }

    /// Class logits for one row.
    pub fn logits(&self, row: &[f64]) -> Vec<f64> {
        self.net.forward(row)
    }

    /// Class probabilities for one row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        vector::softmax(&self.logits(row))
    }

    /// Predicted class for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        vector::argmax(&self.logits(row)).unwrap_or(0)
    }

    /// Predicted classes for every row (one batched, parallel forward
    /// pass).
    pub fn predict_all(&self, x: &Matrix) -> Vec<usize> {
        self.net
            .forward_batch(x)
            .row_iter()
            .map(|logits| vector::argmax(logits).unwrap_or(0))
            .collect()
    }

    /// Accuracy on a labelled dataset.
    pub fn score(&self, x: &Matrix, labels: &[usize]) -> f64 {
        crate::metrics::accuracy(&self.predict_all(x), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3gm_privacy::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(91)
    }

    /// Three Gaussian blobs in 2-D, one per class.
    fn blobs(rng: &mut StdRng, per_class: usize) -> (Matrix, Vec<usize>) {
        let centers = [[-2.0, 0.0], [2.0, 0.0], [0.0, 3.0]];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (class, c) in centers.iter().enumerate() {
            for _ in 0..per_class {
                rows.push(vec![
                    c[0] + sampling::normal(rng, 0.0, 0.5),
                    c[1] + sampling::normal(rng, 0.0, 0.5),
                ]);
                labels.push(class);
            }
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn learns_three_blobs() {
        let mut r = rng();
        let (x, y) = blobs(&mut r, 60);
        let mut clf = MlpClassifier::new(&mut r, 2, 16, 3);
        clf.epochs = 40;
        let final_loss = clf.fit(&mut r, &x, &y);
        assert!(final_loss < 0.5, "final loss {final_loss}");
        assert!(clf.score(&x, &y) > 0.9);
        assert_eq!(clf.n_classes(), 3);
    }

    #[test]
    fn probabilities_are_normalized() {
        let mut r = rng();
        let (x, y) = blobs(&mut r, 20);
        let mut clf = MlpClassifier::new(&mut r, 2, 8, 3);
        clf.epochs = 5;
        clf.fit(&mut r, &x, &y);
        let p = clf.predict_proba(x.row(0));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn loss_decreases_with_training() {
        let mut r = rng();
        let (x, y) = blobs(&mut r, 40);
        let mut short = MlpClassifier::new(&mut r, 2, 16, 3);
        short.epochs = 1;
        let mut long = short.clone();
        long.epochs = 30;
        let loss_short = short.fit(&mut r, &x, &y);
        let loss_long = long.fit(&mut r, &x, &y);
        assert!(loss_long < loss_short);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let mut r = rng();
        let mut clf = MlpClassifier::new(&mut r, 2, 4, 2);
        clf.fit(&mut r, &Matrix::zeros(2, 2), &[0, 5]);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_single_class() {
        let mut r = rng();
        let _ = MlpClassifier::new(&mut r, 2, 4, 1);
    }
}
