//! The labelled-dataset container used throughout the evaluation harness.

use p3gm_linalg::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled dataset: a feature matrix (rows are samples) plus integer
/// class labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Feature matrix, one row per sample.
    pub features: Matrix,
    /// Class label of every row (`0..n_classes`).
    pub labels: Vec<usize>,
    /// Number of distinct classes.
    pub n_classes: usize,
    /// Human-readable name (e.g. "Kaggle Credit").
    pub name: String,
}

/// A train/test partition of a [`Dataset`].
#[derive(Debug, Clone)]
pub struct TrainTestSplit {
    /// Training portion.
    pub train: Dataset,
    /// Held-out test portion.
    pub test: Dataset,
}

impl Dataset {
    /// Creates a dataset, checking that labels are consistent with the
    /// feature matrix and the class count.
    ///
    /// # Panics
    /// Panics if the number of labels differs from the number of rows or a
    /// label is out of range — these are programming errors in the
    /// generators, not runtime conditions.
    pub fn new(features: Matrix, labels: Vec<usize>, n_classes: usize, name: &str) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature rows and label count must match"
        );
        assert!(n_classes >= 1, "need at least one class");
        assert!(
            labels.iter().all(|&l| l < n_classes),
            "label out of range for {n_classes} classes"
        );
        Dataset {
            features,
            labels,
            n_classes,
            name: name.to_string(),
        }
    }

    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.features.rows()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.features.cols()
    }

    /// Number of samples in each class.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Fraction of samples in each class.
    pub fn class_fractions(&self) -> Vec<f64> {
        let n = self.n_samples().max(1) as f64;
        self.class_counts().iter().map(|&c| c as f64 / n).collect()
    }

    /// Fraction of positive (label 1) samples — the imbalance statistic the
    /// paper reports for its binary datasets.
    pub fn positive_fraction(&self) -> f64 {
        if self.n_classes < 2 {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l == 1).count() as f64 / self.n_samples().max(1) as f64
    }

    /// Returns the subset of rows with the given label.
    pub fn filter_by_label(&self, label: usize) -> Dataset {
        let indices: Vec<usize> = self
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == label)
            .map(|(i, _)| i)
            .collect();
        self.select(&indices)
    }

    /// Returns the dataset restricted to the given row indices (in order).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let features = self
            .features
            .select_rows(indices)
            .expect("indices validated by caller");
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset {
            features,
            labels,
            n_classes: self.n_classes,
            name: self.name.clone(),
        }
    }

    /// Random train/test split; `test_fraction` of the rows (rounded down,
    /// at least 1 if possible) go to the test set. The paper uses 90%/10%.
    pub fn train_test_split<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        test_fraction: f64,
    ) -> TrainTestSplit {
        let n = self.n_samples();
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(rng);
        let n_test = ((n as f64 * test_fraction).round() as usize).clamp(1, n.saturating_sub(1));
        let (test_idx, train_idx) = indices.split_at(n_test);
        TrainTestSplit {
            train: self.select(train_idx),
            test: self.select(test_idx),
        }
    }

    /// The per-class sample counts needed to mirror this dataset's label
    /// ratio in a synthetic dataset of `total` rows (paper §VI: "generate a
    /// dataset so that the label ratio is the same as the real training
    /// dataset"). Every class with at least one real sample gets at least
    /// one synthetic row.
    pub fn matched_label_counts(&self, total: usize) -> Vec<usize> {
        let fractions = self.class_fractions();
        let mut counts: Vec<usize> = fractions
            .iter()
            .map(|&f| ((f * total as f64).round() as usize).max(usize::from(f > 0.0)))
            .collect();
        // Adjust the largest class so the total matches exactly.
        let sum: usize = counts.iter().sum();
        if sum != total && !counts.is_empty() {
            let largest = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0);
            if sum > total {
                counts[largest] = counts[largest].saturating_sub(sum - total);
            } else {
                counts[largest] += total - sum;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let features = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 0.0],
            vec![3.0, 0.0],
            vec![4.0, 1.0],
            vec![5.0, 1.0],
        ])
        .unwrap();
        Dataset::new(features, vec![0, 0, 0, 0, 1, 1], 2, "toy")
    }

    #[test]
    fn basic_statistics() {
        let d = toy();
        assert_eq!(d.n_samples(), 6);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.class_counts(), vec![4, 2]);
        assert!((d.positive_fraction() - 2.0 / 6.0).abs() < 1e-12);
        assert!((d.class_fractions()[0] - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "label count must match")]
    fn mismatched_labels_panic() {
        let _ = Dataset::new(Matrix::zeros(3, 2), vec![0, 1], 2, "bad");
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn out_of_range_label_panics() {
        let _ = Dataset::new(Matrix::zeros(2, 2), vec![0, 5], 2, "bad");
    }

    #[test]
    fn filter_and_select() {
        let d = toy();
        let pos = d.filter_by_label(1);
        assert_eq!(pos.n_samples(), 2);
        assert!(pos.labels.iter().all(|&l| l == 1));
        let sel = d.select(&[0, 5]);
        assert_eq!(sel.n_samples(), 2);
        assert_eq!(sel.labels, vec![0, 1]);
        assert_eq!(sel.features.row(1), &[5.0, 1.0]);
    }

    #[test]
    fn split_preserves_all_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = toy();
        let split = d.train_test_split(&mut rng, 0.34);
        assert_eq!(split.train.n_samples() + split.test.n_samples(), 6);
        assert_eq!(split.test.n_samples(), 2);
        assert_eq!(split.train.n_classes, 2);
    }

    #[test]
    fn split_always_keeps_both_sides_nonempty() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = toy();
        let tiny = d.train_test_split(&mut rng, 0.0);
        assert!(tiny.test.n_samples() >= 1);
        assert!(tiny.train.n_samples() >= 1);
        let huge = d.train_test_split(&mut rng, 1.0);
        assert!(huge.train.n_samples() >= 1);
    }

    #[test]
    fn matched_label_counts_sum_and_ratio() {
        let d = toy();
        let counts = d.matched_label_counts(300);
        assert_eq!(counts.iter().sum::<usize>(), 300);
        assert_eq!(counts.len(), 2);
        assert!((counts[0] as f64 / 300.0 - 4.0 / 6.0).abs() < 0.02);
        // Small totals still give every present class at least one sample.
        let counts = d.matched_label_counts(10);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c >= 1));
    }
}
