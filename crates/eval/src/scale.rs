//! Experiment scale: how large the synthetic datasets and networks are.
//!
//! The paper's experiments run on GPUs over datasets of up to 285 k rows
//! and 784 features; this reproduction runs everything on one CPU core, so
//! each experiment is scaled down. The scale factors live here so that
//! every experiment and bench uses the same, explicit configuration; the
//! `paper_tables` and `paper_figures` benches of `p3gm-bench` run them at
//! [`Scale::Paper`] and write their reports to `target/paper_reports/`.

/// How large an experiment run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny runs for `cargo test` — a few hundred rows, a handful of epochs.
    Smoke,
    /// The configuration used by the bench harness to regenerate the paper's
    /// tables and figures (minutes of CPU time in total).
    Paper,
}

impl Scale {
    /// Number of rows generated for the binary tabular datasets
    /// (train + test together).
    pub fn n_tabular(&self) -> usize {
        match self {
            Scale::Smoke => 400,
            Scale::Paper => 2000,
        }
    }

    /// Number of rows for the heavily imbalanced Credit-like dataset (a
    /// larger pool so that the 0.2% positive class is represented).
    pub fn n_credit(&self) -> usize {
        match self {
            Scale::Smoke => 800,
            Scale::Paper => 2500,
        }
    }

    /// Number of images for the MNIST-/Fashion-like datasets.
    pub fn n_images(&self) -> usize {
        match self {
            Scale::Smoke => 300,
            Scale::Paper => 800,
        }
    }

    /// Side length of the synthetic images (the paper uses 28; this
    /// reproduction uses a reduced resolution).
    pub fn image_size(&self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Paper => 14,
        }
    }

    /// Feature count used for the ISOLET-like dataset (617 in the paper).
    pub fn isolet_dims(&self) -> usize {
        match self {
            Scale::Smoke => 64,
            Scale::Paper => 128,
        }
    }

    /// Feature count used for the ESR-like dataset (179 in the paper).
    pub fn esr_dims(&self) -> usize {
        match self {
            Scale::Smoke => 48,
            Scale::Paper => 96,
        }
    }

    /// Hidden width of the encoder/decoder MLPs (1000 in the paper).
    pub fn hidden_dim(&self) -> usize {
        match self {
            Scale::Smoke => 24,
            Scale::Paper => 48,
        }
    }

    /// Latent dimensionality `d'` (the paper uses 10).
    pub fn latent_dim(&self) -> usize {
        match self {
            Scale::Smoke => 6,
            Scale::Paper => 10,
        }
    }

    /// Training epochs of the generative models (5–10 in the paper).
    pub fn epochs(&self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Paper => 6,
        }
    }

    /// Mini-batch size.
    pub fn batch_size(&self) -> usize {
        match self {
            Scale::Smoke => 32,
            Scale::Paper => 64,
        }
    }

    /// Number of synthetic rows generated for the downstream evaluation
    /// (the paper matches the real training-set size).
    pub fn n_synthetic(&self) -> usize {
        match self {
            Scale::Smoke => 300,
            Scale::Paper => 1000,
        }
    }

    /// Number of mixture components of the MoG prior (the paper uses 3).
    pub fn mog_components(&self) -> usize {
        3
    }

    /// Fraction of rows held out as the real test set (the paper uses 10%).
    pub fn test_fraction(&self) -> f64 {
        match self {
            Scale::Smoke => 0.25,
            Scale::Paper => 0.2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_larger_than_smoke() {
        assert!(Scale::Paper.n_tabular() > Scale::Smoke.n_tabular());
        assert!(Scale::Paper.n_credit() > Scale::Smoke.n_credit());
        assert!(Scale::Paper.n_images() > Scale::Smoke.n_images());
        assert!(Scale::Paper.image_size() >= Scale::Smoke.image_size());
        assert!(Scale::Paper.isolet_dims() > Scale::Smoke.isolet_dims());
        assert!(Scale::Paper.hidden_dim() >= Scale::Smoke.hidden_dim());
        assert!(Scale::Paper.epochs() >= Scale::Smoke.epochs());
        assert!(Scale::Paper.n_synthetic() > Scale::Smoke.n_synthetic());
    }

    #[test]
    fn shared_constants() {
        assert_eq!(Scale::Smoke.mog_components(), 3);
        assert!(Scale::Smoke.test_fraction() > 0.0 && Scale::Smoke.test_fraction() < 1.0);
        assert!(Scale::Paper.latent_dim() <= Scale::Paper.isolet_dims());
    }
}
