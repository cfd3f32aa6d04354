//! DP-GM (Acs et al. 2018): differentially private mixture of generative
//! neural networks.
//!
//! The algorithm (paper §I, Table I competitor):
//!
//! 1. Partition the data into `k` clusters with differentially private
//!    k-means (budget `kmeans_epsilon`).
//! 2. Release the cluster sizes with the Laplace mechanism
//!    (budget `count_epsilon`) — these become the mixture weights.
//! 3. Train one small VAE per cluster with DP-SGD. The clusters are
//!    disjoint, so the per-cluster training runs compose in **parallel**:
//!    the DP-SGD cost of the whole step is the maximum over clusters, not
//!    the sum.
//! 4. To sample: choose a cluster proportionally to the noisy sizes and
//!    decode a sample from that cluster's VAE.
//!
//! The paper's observation — and the behaviour this implementation
//! reproduces — is that the per-cluster models generate samples close to
//! their cluster centroids, so DP-GM produces *clean but mode-collapsed*
//! data, which hurts downstream utility despite the nice-looking samples.

use crate::{BaselineError, Result};
use p3gm_core::config::VaeConfig;
use p3gm_core::vae::Vae;
use p3gm_core::GenerativeModel;
use p3gm_linalg::Matrix;
use p3gm_mixture::kmeans::{dp_kmeans, KMeansConfig};
use p3gm_privacy::rdp::{DpSgdBound, PrivacySpec, RdpAccountant};
use p3gm_privacy::sampling;
use rand::Rng;

/// Configuration of the DP-GM baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DpGmConfig {
    /// Number of k-means partitions (and per-partition VAEs).
    pub n_clusters: usize,
    /// Privacy budget of the private k-means partitioning.
    pub kmeans_epsilon: f64,
    /// Privacy budget of the noisy cluster-size release.
    pub count_epsilon: f64,
    /// Iterations of private k-means.
    pub kmeans_iterations: usize,
    /// Configuration of each per-cluster VAE (its `sigma_s` must be positive
    /// for the overall model to satisfy DP).
    pub vae: VaeConfig,
    /// Target δ of the overall guarantee.
    pub delta: f64,
}

impl Default for DpGmConfig {
    fn default() -> Self {
        DpGmConfig {
            n_clusters: 5,
            kmeans_epsilon: 0.2,
            count_epsilon: 0.05,
            kmeans_iterations: 4,
            vae: VaeConfig {
                latent_dim: 4,
                hidden_dim: 32,
                epochs: 5,
                batch_size: 32,
                learning_rate: 1e-3,
                clip_norm: 1.0,
                sigma_s: 1.5,
                delta: 1e-5,
            },
            delta: 1e-5,
        }
    }
}

impl DpGmConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.n_clusters == 0 {
            return Err(BaselineError::InvalidConfig {
                msg: "n_clusters must be positive".to_string(),
            });
        }
        if self.kmeans_epsilon <= 0.0 || self.count_epsilon <= 0.0 {
            return Err(BaselineError::InvalidConfig {
                msg: "kmeans_epsilon and count_epsilon must be positive".to_string(),
            });
        }
        if self.vae.sigma_s <= 0.0 {
            return Err(BaselineError::InvalidConfig {
                msg: "the per-cluster VAEs must be trained with DP-SGD (sigma_s > 0)".to_string(),
            });
        }
        if !(0.0..1.0).contains(&self.delta) || self.delta == 0.0 {
            return Err(BaselineError::InvalidConfig {
                msg: format!("delta must be in (0,1), got {}", self.delta),
            });
        }
        Ok(())
    }
}

/// A fitted DP-GM model.
#[derive(Debug, Clone)]
pub struct DpGm {
    cluster_models: Vec<Vae>,
    /// Noisy (non-negative, normalized) cluster weights.
    weights: Vec<f64>,
    config: DpGmConfig,
    data_dim: usize,
    max_cluster_size: usize,
}

impl DpGm {
    /// Fits DP-GM on rows in `[0, 1]` (the prepared row format of the
    /// evaluation harness).
    pub fn fit<R: Rng + ?Sized>(rng: &mut R, data: &Matrix, config: DpGmConfig) -> Result<Self> {
        config.validate()?;
        if data.rows() < config.n_clusters.max(8) {
            return Err(BaselineError::InvalidData {
                msg: format!(
                    "{} rows are not enough for {} clusters",
                    data.rows(),
                    config.n_clusters
                ),
            });
        }
        let d = data.cols();

        // 1. Private k-means partitioning. Rows live in [0,1]^d, so the
        //    coordinate radius bound is 1.
        let km = dp_kmeans(
            rng,
            data,
            &KMeansConfig {
                k: config.n_clusters,
                max_iters: config.kmeans_iterations,
                tolerance: 1e-6,
            },
            config.kmeans_epsilon,
            1.0,
        )
        .map_err(|e| BaselineError::Substrate { msg: e.to_string() })?;

        // 2. Noisy cluster sizes (Laplace, sensitivity 1).
        let mut counts = vec![0.0; config.n_clusters];
        for &a in &km.assignments {
            counts[a] += 1.0;
        }
        let noisy_weights: Vec<f64> = counts
            .iter()
            .map(|&c| (c + sampling::laplace(rng, 1.0 / config.count_epsilon)).max(1.0))
            .collect();
        let total: f64 = noisy_weights.iter().sum();
        let weights: Vec<f64> = noisy_weights.iter().map(|w| w / total).collect();

        // 3. One DP-SGD-trained VAE per cluster (parallel composition).
        let mut cluster_models = Vec::with_capacity(config.n_clusters);
        let mut max_cluster_size = 0usize;
        for c in 0..config.n_clusters {
            let member_indices: Vec<usize> = km
                .assignments
                .iter()
                .enumerate()
                .filter(|(_, &a)| a == c)
                .map(|(i, _)| i)
                .collect();
            max_cluster_size = max_cluster_size.max(member_indices.len());
            // Clusters that are too small to train on fall back to a model
            // trained on a few rows resampled from the whole dataset's
            // centroid neighbourhood — in practice we simply train on the
            // cluster if it has at least 8 rows, otherwise keep an untrained
            // VAE (its samples are noise, which mirrors how tiny clusters
            // behave in the original system).
            let mut vae_cfg = config.vae.clone();
            vae_cfg.latent_dim = vae_cfg.latent_dim.min(d);
            if member_indices.len() >= 8 {
                let cluster_data = data
                    .select_rows(&member_indices)
                    .map_err(|e| BaselineError::Substrate { msg: e.to_string() })?;
                vae_cfg.batch_size = vae_cfg.batch_size.min(cluster_data.rows());
                let (vae, _) = Vae::fit(rng, &cluster_data, vae_cfg)
                    .map_err(|e| BaselineError::Substrate { msg: e.to_string() })?;
                cluster_models.push(vae);
            } else {
                let vae = Vae::new(rng, d, vae_cfg)
                    .map_err(|e| BaselineError::Substrate { msg: e.to_string() })?;
                cluster_models.push(vae);
            }
        }

        Ok(DpGm {
            cluster_models,
            weights,
            config,
            data_dim: d,
            max_cluster_size,
        })
    }

    /// Number of partitions.
    pub fn n_clusters(&self) -> usize {
        self.cluster_models.len()
    }

    /// The noisy mixture weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Dimensionality of the data space.
    pub fn data_dim(&self) -> usize {
        self.data_dim
    }

    /// The total (ε, δ)-DP guarantee: private k-means + noisy counts +
    /// per-cluster DP-SGD (parallel composition — charged once with the
    /// largest cluster's parameters).
    pub fn privacy_spec(&self) -> Option<PrivacySpec> {
        let mut acc = RdpAccountant::default();
        acc.add_pure_dp(self.config.kmeans_epsilon).ok()?;
        acc.add_pure_dp(self.config.count_epsilon).ok()?;
        let n = self.max_cluster_size.max(1);
        acc.add_dp_sgd(
            self.config.vae.sgd_steps(n),
            self.config.vae.sampling_probability(n),
            self.config.vae.sigma_s,
            DpSgdBound::PaperEq4,
        )
        .ok()?;
        acc.to_dp(self.config.delta).ok()
    }
}

impl GenerativeModel for DpGm {
    fn sample(&self, rng: &mut dyn rand::RngCore, n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let c = sampling::categorical(rng, &self.weights);
                let sample = self.cluster_models[c].sample(rng, 1);
                sample.row(0).to_vec()
            })
            .collect();
        Matrix::from_rows(&rows).expect("samples have equal width")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(171)
    }

    /// Two well-separated patterns in [0,1]^6.
    fn bimodal(rng: &mut StdRng, n: usize) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let hot = i % 2 == 0;
                (0..6)
                    .map(|j| {
                        let base = if (j < 3) == hot { 0.85 } else { 0.15 };
                        (base + sampling::normal(rng, 0.0, 0.05)).clamp(0.0, 1.0)
                    })
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    fn small_config() -> DpGmConfig {
        DpGmConfig {
            n_clusters: 2,
            kmeans_iterations: 3,
            vae: VaeConfig {
                latent_dim: 2,
                hidden_dim: 12,
                epochs: 4,
                batch_size: 16,
                sigma_s: 1.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(DpGmConfig::default().validate().is_ok());
        assert!(DpGmConfig {
            n_clusters: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DpGmConfig {
            kmeans_epsilon: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        let mut non_private = DpGmConfig::default();
        non_private.vae.sigma_s = 0.0;
        assert!(non_private.validate().is_err());
        assert!(DpGmConfig {
            delta: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn fit_and_sample_shapes() {
        let mut r = rng();
        let data = bimodal(&mut r, 120);
        let model = DpGm::fit(&mut r, &data, small_config()).unwrap();
        assert_eq!(model.n_clusters(), 2);
        assert_eq!(model.data_dim(), 6);
        assert!((model.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let samples = model.sample(&mut r, 20);
        assert_eq!(samples.shape(), (20, 6));
        assert!(samples.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn privacy_spec_is_finite_and_positive() {
        let mut r = rng();
        let data = bimodal(&mut r, 100);
        let model = DpGm::fit(&mut r, &data, small_config()).unwrap();
        let spec = model.privacy_spec().expect("DP-GM is private");
        assert!(spec.epsilon.is_finite() && spec.epsilon > 0.0);
        assert_eq!(spec.delta, 1e-5);
    }

    #[test]
    fn rejects_too_little_data() {
        let mut r = rng();
        let data = bimodal(&mut r, 4);
        assert!(DpGm::fit(&mut r, &data, small_config()).is_err());
    }

    #[test]
    fn samples_concentrate_around_cluster_structure() {
        let mut r = rng();
        let data = bimodal(&mut r, 200);
        let mut cfg = small_config();
        cfg.vae.epochs = 10;
        // Nearly no DP-SGD noise so the mode-collapse behaviour (samples near
        // the cluster centroids) is visible rather than drowned in noise.
        cfg.vae.sigma_s = 0.05;
        let model = DpGm::fit(&mut r, &data, cfg).unwrap();
        let samples = model.sample(&mut r, 60);
        // Samples should be closer on average to one of the two true modes
        // than a uniform-random [0,1]^6 point would be (expected distance of
        // a random point to a mode is ~1.1 in 6-D).
        let mode_a: Vec<f64> = (0..6).map(|j| if j < 3 { 0.85 } else { 0.15 }).collect();
        let mode_b: Vec<f64> = (0..6).map(|j| if j < 3 { 0.15 } else { 0.85 }).collect();
        let avg_dist: f64 = samples
            .row_iter()
            .map(|row| {
                p3gm_linalg::vector::distance(row, &mode_a)
                    .min(p3gm_linalg::vector::distance(row, &mode_b))
            })
            .sum::<f64>()
            / samples.rows() as f64;
        assert!(
            avg_dist < 1.0,
            "average distance to nearest mode {avg_dist}"
        );
    }
}
