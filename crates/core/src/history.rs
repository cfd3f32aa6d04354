//! Per-epoch training statistics.
//!
//! Figure 7 of the paper plots the reconstruction loss per iteration and
//! the downstream utility per epoch for DP-VAE, P3GM(AE) and P3GM; every
//! trainer in this crate therefore reports an [`EpochStats`] per epoch and
//! accumulates them into a [`TrainingHistory`].

/// Statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Average per-example reconstruction loss (the first term of paper
    /// Eq. (8), negated so that smaller is better).
    pub reconstruction_loss: f64,
    /// Average per-example KL term.
    pub kl_loss: f64,
    /// Number of optimizer steps taken during the epoch.
    pub steps: usize,
}

/// The sequence of per-epoch statistics from one training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// One entry per completed epoch, in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainingHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch of statistics.
    pub fn push(&mut self, stats: EpochStats) {
        self.epochs.push(stats);
    }

    /// The reconstruction-loss curve (one value per epoch).
    pub fn reconstruction_curve(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.reconstruction_loss).collect()
    }

    /// The KL curve (one value per epoch).
    pub fn kl_curve(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.kl_loss).collect()
    }

    /// The final epoch's statistics, if any epoch completed.
    pub fn last(&self) -> Option<&EpochStats> {
        self.epochs.last()
    }

    /// Number of completed epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether no epoch has completed yet.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Total optimizer steps across all epochs.
    pub fn total_steps(&self) -> usize {
        self.epochs.iter().map(|e| e.steps).sum()
    }

    /// Whether the reconstruction loss decreased from the first to the last
    /// epoch (a coarse convergence indicator used in tests and reports).
    pub fn improved(&self) -> bool {
        match (self.epochs.first(), self.epochs.last()) {
            (Some(first), Some(last)) if self.epochs.len() > 1 => {
                last.reconstruction_loss < first.reconstruction_loss
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(epoch: usize, recon: f64) -> EpochStats {
        EpochStats {
            epoch,
            reconstruction_loss: recon,
            kl_loss: 1.0,
            steps: 10,
        }
    }

    #[test]
    fn accumulates_epochs() {
        let mut h = TrainingHistory::new();
        assert!(h.is_empty());
        h.push(stats(0, 5.0));
        h.push(stats(1, 3.0));
        assert_eq!(h.len(), 2);
        assert_eq!(h.reconstruction_curve(), vec![5.0, 3.0]);
        assert_eq!(h.kl_curve(), vec![1.0, 1.0]);
        assert_eq!(h.total_steps(), 20);
        assert_eq!(h.last().unwrap().epoch, 1);
        assert!(h.improved());
    }

    #[test]
    fn improvement_requires_two_epochs_and_a_decrease() {
        let mut h = TrainingHistory::new();
        assert!(!h.improved());
        h.push(stats(0, 5.0));
        assert!(!h.improved());
        h.push(stats(1, 6.0));
        assert!(!h.improved());
    }
}
