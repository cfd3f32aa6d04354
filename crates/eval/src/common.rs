//! Shared machinery of the experiment harness: dataset construction,
//! privacy-budget calibration, model training and the
//! train-on-synthetic / test-on-real evaluation protocol.

use crate::scale::Scale;
use p3gm_baselines::dpgm::{DpGm, DpGmConfig};
use p3gm_baselines::privbayes::{PrivBayes, PrivBayesConfig};
use p3gm_classifiers::mlp_classifier::MlpClassifier;
use p3gm_classifiers::suite::{evaluate_binary_suite, SuiteReport};
use p3gm_core::config::{PgmConfig, VaeConfig};
use p3gm_core::pgm::PhasedGenerativeModel;
use p3gm_core::synthesis::{synthesize_labelled, LabelledSynthesizer};
use p3gm_core::vae::Vae;
use p3gm_core::GenerativeModel;
use p3gm_datasets::dataset::{Dataset, TrainTestSplit};
use p3gm_datasets::{images, tabular, DatasetKind};
use p3gm_linalg::Matrix;
use p3gm_privacy::calibrate::{calibrate_dpem_sigma, calibrate_dpsgd_sigma};
use rand::rngs::StdRng;

/// The δ used throughout the paper's experiments.
pub const DELTA: f64 = 1e-5;

/// Which generative model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenerativeKind {
    /// Non-private VAE.
    Vae,
    /// VAE trained with DP-SGD.
    DpVae,
    /// Non-private phased generative model.
    Pgm,
    /// Differentially private phased generative model (the paper's method).
    P3gm,
    /// P3GM with frozen encoder variance (autoencoder-like ablation).
    P3gmAe,
    /// DP-GM baseline (private k-means + per-cluster VAEs).
    DpGm,
    /// PrivBayes baseline (DP Bayesian network).
    PrivBayes,
    /// No generative model: train the classifiers on the real data
    /// (the "original" column of Table VI).
    Original,
}

impl GenerativeKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            GenerativeKind::Vae => "VAE",
            GenerativeKind::DpVae => "DP-VAE",
            GenerativeKind::Pgm => "PGM",
            GenerativeKind::P3gm => "P3GM",
            GenerativeKind::P3gmAe => "P3GM(AE)",
            GenerativeKind::DpGm => "DP-GM",
            GenerativeKind::PrivBayes => "PrivBayes",
            GenerativeKind::Original => "original",
        }
    }

    /// Whether the model consumes privacy budget.
    pub fn is_private(&self) -> bool {
        matches!(
            self,
            GenerativeKind::DpVae
                | GenerativeKind::P3gm
                | GenerativeKind::P3gmAe
                | GenerativeKind::DpGm
                | GenerativeKind::PrivBayes
        )
    }
}

/// A trained generative model of any kind, sampled uniformly by the harness.
// A handful of these exist per experiment, so the size imbalance between
// variants is irrelevant; boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
pub enum TrainedGenerator {
    /// A (DP-)VAE.
    Vae(Vae),
    /// A (non-)private phased generative model.
    Pgm(PhasedGenerativeModel),
    /// The DP-GM baseline.
    DpGm(DpGm),
    /// The PrivBayes baseline.
    PrivBayes(PrivBayes),
}

impl GenerativeModel for TrainedGenerator {
    fn sample(&self, rng: &mut dyn rand::RngCore, n: usize) -> Matrix {
        match self {
            TrainedGenerator::Vae(m) => m.sample(rng, n),
            TrainedGenerator::Pgm(m) => m.sample(rng, n),
            TrainedGenerator::DpGm(m) => m.sample(rng, n),
            TrainedGenerator::PrivBayes(m) => m.sample(rng, n),
        }
    }
}

/// Builds the synthetic stand-in for one of the paper's datasets at the
/// given scale.
pub fn make_dataset(rng: &mut StdRng, kind: DatasetKind, scale: Scale) -> Dataset {
    match kind {
        DatasetKind::KaggleCredit => tabular::kaggle_credit_like(rng, scale.n_credit()),
        DatasetKind::Adult => tabular::adult_like(rng, scale.n_tabular()),
        DatasetKind::Isolet => {
            tabular::isolet_like_with_dims(rng, scale.n_tabular(), scale.isolet_dims())
        }
        DatasetKind::Esr => tabular::esr_like_with_dims(rng, scale.n_tabular(), scale.esr_dims()),
        DatasetKind::Mnist => images::mnist_like(rng, scale.n_images(), scale.image_size()),
        DatasetKind::FashionMnist => {
            images::fashion_mnist_like(rng, scale.n_images(), scale.image_size())
        }
    }
}

/// Stratified train/test split: every class is split separately so that the
/// heavily imbalanced datasets (0.2% positives) keep positives on both
/// sides.
pub fn stratified_split(rng: &mut StdRng, dataset: &Dataset, test_fraction: f64) -> TrainTestSplit {
    let mut train_parts: Vec<Dataset> = Vec::new();
    let mut test_parts: Vec<Dataset> = Vec::new();
    for class in 0..dataset.n_classes {
        let class_data = dataset.filter_by_label(class);
        if class_data.n_samples() == 0 {
            continue;
        }
        if class_data.n_samples() == 1 {
            train_parts.push(class_data);
            continue;
        }
        let split = class_data.train_test_split(rng, test_fraction);
        train_parts.push(split.train);
        test_parts.push(split.test);
    }
    TrainTestSplit {
        train: concat_datasets(&train_parts, dataset),
        test: concat_datasets(&test_parts, dataset),
    }
}

fn concat_datasets(parts: &[Dataset], template: &Dataset) -> Dataset {
    let mut features: Option<Matrix> = None;
    let mut labels: Vec<usize> = Vec::new();
    for p in parts {
        if p.n_samples() == 0 {
            continue;
        }
        features = Some(match features {
            None => p.features.clone(),
            Some(acc) => acc.vstack(&p.features).expect("parts share a width"),
        });
        labels.extend_from_slice(&p.labels);
    }
    let features = features.unwrap_or_else(|| {
        // Degenerate fallback: a single row from the template keeps the
        // downstream metric code well-defined.
        labels.push(template.labels[0]);
        template
            .features
            .select_rows(&[0])
            .expect("template has at least one row")
    });
    Dataset::new(features, labels, template.n_classes, &template.name)
}

/// Builds the P3GM configuration for a target total ε on `n` rows of `d`
/// features, calibrating σ_e and σ_s with the RDP accountant. Non-private
/// kinds get the same architecture without noise.
pub fn pgm_config_for(
    scale: Scale,
    kind: GenerativeKind,
    target_eps: f64,
    n: usize,
    d: usize,
) -> PgmConfig {
    let latent = scale.latent_dim().min(d.saturating_sub(1).max(1));
    let mut cfg = PgmConfig {
        latent_dim: latent.max(1),
        hidden_dim: scale.hidden_dim(),
        mog_components: scale.mog_components(),
        epochs: scale.epochs(),
        batch_size: scale.batch_size().min(n.max(2)),
        learning_rate: 1e-3,
        clip_norm: 1.0,
        private: matches!(kind, GenerativeKind::P3gm | GenerativeKind::P3gmAe),
        eps_p: (0.1 * target_eps).clamp(1e-3, 0.1),
        sigma_e: 100.0,
        em_iterations: 10,
        sigma_s: 1.5,
        delta: DELTA,
        variance_mode: p3gm_core::config::VarianceMode::Learned,
    };
    if matches!(kind, GenerativeKind::P3gmAe) {
        cfg = cfg.autoencoder_variant();
    }
    if cfg.private {
        // Give DP-EM ~25% of the budget (after PCA), DP-SGD the rest.
        let em_budget = (0.25 * (target_eps - cfg.eps_p)).max(1e-3);
        cfg.sigma_e = calibrate_dpem_sigma(em_budget, DELTA, cfg.em_iterations, cfg.mog_components)
            .unwrap_or(200.0);
        let t_s = cfg.sgd_steps(n);
        let q = cfg.sampling_probability(n);
        cfg.sigma_s = calibrate_dpsgd_sigma(
            target_eps,
            DELTA,
            cfg.eps_p,
            cfg.em_iterations,
            cfg.sigma_e,
            cfg.mog_components,
            t_s,
            q,
        )
        .unwrap_or(5.0);
    }
    cfg
}

/// Builds the (DP-)VAE configuration; for DP-VAE the noise multiplier is
/// calibrated so that DP-SGD alone consumes `target_eps`.
pub fn vae_config_for(
    scale: Scale,
    private: bool,
    target_eps: f64,
    n: usize,
    d: usize,
) -> VaeConfig {
    let mut cfg = VaeConfig {
        latent_dim: scale.latent_dim().min(d.saturating_sub(1).max(1)).max(1),
        hidden_dim: scale.hidden_dim(),
        epochs: scale.epochs(),
        batch_size: scale.batch_size().min(n.max(2)),
        learning_rate: 1e-3,
        clip_norm: 1.0,
        sigma_s: 0.0,
        delta: DELTA,
    };
    if private {
        let t_s = cfg.sgd_steps(n);
        let q = cfg.sampling_probability(n);
        cfg.sigma_s =
            calibrate_dpsgd_sigma(target_eps, DELTA, 0.0, 0, 1.0, 1, t_s, q).unwrap_or(5.0);
    }
    cfg
}

/// Trains a generative model of the requested kind on prepared rows
/// (feature-weighted `[0,1]`-scaled features + one-hot labels, see
/// `LabelledSynthesizer::prepare`) under a total budget of
/// `target_eps` (ignored by the non-private kinds).
pub fn train_generator(
    rng: &mut StdRng,
    kind: GenerativeKind,
    prepared: &Matrix,
    scale: Scale,
    target_eps: f64,
) -> TrainedGenerator {
    let n = prepared.rows();
    let d = prepared.cols();
    match kind {
        GenerativeKind::Vae => {
            let cfg = vae_config_for(scale, false, target_eps, n, d);
            let (model, _) = Vae::fit(rng, prepared, cfg).expect("VAE training failed");
            TrainedGenerator::Vae(model)
        }
        GenerativeKind::DpVae => {
            let cfg = vae_config_for(scale, true, target_eps, n, d);
            let (model, _) = Vae::fit(rng, prepared, cfg).expect("DP-VAE training failed");
            TrainedGenerator::Vae(model)
        }
        GenerativeKind::Pgm | GenerativeKind::P3gm | GenerativeKind::P3gmAe => {
            let cfg = pgm_config_for(scale, kind, target_eps, n, d);
            let (model, _) =
                PhasedGenerativeModel::fit(rng, prepared, cfg).expect("PGM training failed");
            TrainedGenerator::Pgm(model)
        }
        GenerativeKind::DpGm => {
            let n_clusters = 4;
            let per_cluster = (n / n_clusters).max(8);
            let mut vae_cfg = vae_config_for(scale, true, 0.75 * target_eps, per_cluster, d);
            vae_cfg.latent_dim = vae_cfg.latent_dim.min(4);
            vae_cfg.hidden_dim = vae_cfg.hidden_dim.min(32);
            let cfg = DpGmConfig {
                n_clusters,
                kmeans_epsilon: 0.2 * target_eps,
                count_epsilon: 0.05 * target_eps,
                kmeans_iterations: 3,
                vae: vae_cfg,
                delta: DELTA,
            };
            let model = DpGm::fit(rng, prepared, cfg).expect("DP-GM training failed");
            TrainedGenerator::DpGm(model)
        }
        GenerativeKind::PrivBayes => {
            // Discretization granularity follows the (public) record count:
            // fine bins starve the noisy conditional tables below a few
            // thousand rows, destroying the very correlations PrivBayes is
            // supposed to preserve, so small runs use coarse binary bins.
            let (n_bins, degree) = if n < 2_000 { (2, 1) } else { (8, 2) };
            let cfg = PrivBayesConfig {
                n_bins,
                degree,
                epsilon: target_eps,
                max_candidates: 128,
            };
            let model = PrivBayes::fit(rng, prepared, cfg).expect("PrivBayes training failed");
            TrainedGenerator::PrivBayes(model)
        }
        GenerativeKind::Original => {
            unreachable!("GenerativeKind::Original does not train a generative model")
        }
    }
}

/// The full Table V/VI protocol for one (dataset, model) cell: train the
/// generator on the real training split, synthesize data with the real
/// label ratio, train the four classifiers on the synthetic data, and score
/// them on the real test split. For [`GenerativeKind::Original`] the
/// classifiers are trained directly on the real training data.
pub fn evaluate_tabular(
    rng: &mut StdRng,
    kind: GenerativeKind,
    train: &Dataset,
    test: &Dataset,
    scale: Scale,
    target_eps: f64,
) -> SuiteReport {
    if matches!(kind, GenerativeKind::Original) {
        return evaluate_binary_suite(&train.features, &train.labels, &test.features, &test.labels);
    }
    let (synth_x, synth_y) = synthesize_for(rng, kind, train, scale, target_eps);
    evaluate_binary_suite(&synth_x, &synth_y, &test.features, &test.labels)
}

/// The Table VII protocol for one (image dataset, model) cell: synthesize
/// labelled images and report the accuracy of an MLP classifier trained on
/// them and evaluated on real test images.
pub fn evaluate_images(
    rng: &mut StdRng,
    kind: GenerativeKind,
    train: &Dataset,
    test: &Dataset,
    scale: Scale,
    target_eps: f64,
) -> f64 {
    let (train_x, train_y) = if matches!(kind, GenerativeKind::Original) {
        (train.features.clone(), train.labels.clone())
    } else {
        synthesize_for(rng, kind, train, scale, target_eps)
    };
    let mut clf = MlpClassifier::new(
        rng,
        train_x.cols(),
        scale.hidden_dim().max(32),
        train.n_classes,
    );
    clf.epochs = 12;
    clf.fit(rng, &train_x, &train_y);
    clf.score(&test.features, &test.labels)
}

/// Trains the generator and synthesizes a labelled dataset with the real
/// label ratio (paper §VI).
pub fn synthesize_for(
    rng: &mut StdRng,
    kind: GenerativeKind,
    train: &Dataset,
    scale: Scale,
    target_eps: f64,
) -> (Matrix, Vec<usize>) {
    let (synth, prepared) =
        LabelledSynthesizer::prepare(&train.features, &train.labels, train.n_classes)
            .expect("prepare labelled data");
    let generator = train_generator(rng, kind, &prepared, scale, target_eps);
    let counts = train.matched_label_counts(scale.n_synthetic());
    synthesize_labelled(&generator, &synth, rng, &counts).expect("synthesis failed")
}

/// Deterministic RNG for the experiments (one fixed seed per experiment id
/// keeps the regenerated tables stable across runs).
pub fn experiment_rng(experiment_id: u64) -> StdRng {
    use rand::SeedableRng;
    StdRng::seed_from_u64(0x5050_3347_4d00 ^ experiment_id)
}

/// Convenience used by a few experiments: mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Helper for experiments that need a quick non-degenerate subsample for
/// smoke tests.
pub fn subsample_rows(rng: &mut StdRng, m: &Matrix, n: usize) -> Matrix {
    let n = n.min(m.rows());
    let mut idx: Vec<usize> = (0..m.rows()).collect();
    use rand::seq::SliceRandom;
    idx.shuffle(rng);
    idx.truncate(n);
    m.select_rows(&idx).expect("indices in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_privacy_flags() {
        assert_eq!(GenerativeKind::P3gm.name(), "P3GM");
        assert_eq!(GenerativeKind::Original.name(), "original");
        assert!(GenerativeKind::P3gm.is_private());
        assert!(GenerativeKind::DpGm.is_private());
        assert!(!GenerativeKind::Vae.is_private());
        assert!(!GenerativeKind::Original.is_private());
    }

    #[test]
    fn make_dataset_shapes() {
        let mut rng = experiment_rng(1);
        let credit = make_dataset(&mut rng, DatasetKind::KaggleCredit, Scale::Smoke);
        assert_eq!(credit.n_features(), 29);
        let mnist = make_dataset(&mut rng, DatasetKind::Mnist, Scale::Smoke);
        assert_eq!(mnist.n_features(), Scale::Smoke.image_size().pow(2));
        assert_eq!(mnist.n_classes, 10);
        let isolet = make_dataset(&mut rng, DatasetKind::Isolet, Scale::Smoke);
        assert_eq!(isolet.n_features(), Scale::Smoke.isolet_dims());
    }

    #[test]
    fn stratified_split_keeps_minority_class_on_both_sides() {
        let mut rng = experiment_rng(2);
        let credit = make_dataset(&mut rng, DatasetKind::KaggleCredit, Scale::Smoke);
        let split = stratified_split(&mut rng, &credit, 0.25);
        assert!(split.train.positive_fraction() > 0.0);
        assert!(split.test.labels.contains(&1));
        assert_eq!(
            split.train.n_samples() + split.test.n_samples(),
            credit.n_samples()
        );
    }

    #[test]
    fn calibrated_p3gm_config_respects_the_budget() {
        let cfg = pgm_config_for(Scale::Smoke, GenerativeKind::P3gm, 1.0, 500, 30);
        assert!(cfg.private);
        let spec = p3gm_privacy::rdp::RdpAccountant::p3gm_total(
            cfg.eps_p,
            cfg.em_iterations,
            cfg.sigma_e,
            cfg.mog_components,
            cfg.sgd_steps(500),
            cfg.sampling_probability(500),
            cfg.sigma_s,
            DELTA,
        )
        .unwrap();
        assert!(spec.epsilon <= 1.0 + 1e-6, "epsilon {}", spec.epsilon);
        assert!(
            spec.epsilon > 0.5,
            "calibration too loose: {}",
            spec.epsilon
        );
    }

    #[test]
    fn non_private_configs_have_no_noise() {
        let cfg = pgm_config_for(Scale::Smoke, GenerativeKind::Pgm, 1.0, 500, 30);
        assert!(!cfg.private);
        let vae = vae_config_for(Scale::Smoke, false, 1.0, 500, 30);
        assert_eq!(vae.sigma_s, 0.0);
        let dp_vae = vae_config_for(Scale::Smoke, true, 1.0, 500, 30);
        assert!(dp_vae.sigma_s > 0.0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn end_to_end_tabular_evaluation_smoke() {
        // One cheap end-to-end pass through the protocol with the fastest
        // private model (PrivBayes) and the original baseline.
        let mut rng = experiment_rng(3);
        let adult = make_dataset(&mut rng, DatasetKind::Adult, Scale::Smoke);
        let split = stratified_split(&mut rng, &adult, 0.25);
        let original = evaluate_tabular(
            &mut rng,
            GenerativeKind::Original,
            &split.train,
            &split.test,
            Scale::Smoke,
            1.0,
        );
        assert!(original.mean_auroc() > 0.6, "{}", original.mean_auroc());
        let privbayes = evaluate_tabular(
            &mut rng,
            GenerativeKind::PrivBayes,
            &split.train,
            &split.test,
            Scale::Smoke,
            1.0,
        );
        // PrivBayes on a low-dimensional dataset should be clearly better
        // than chance but no better than training on the real data.
        assert!(privbayes.mean_auroc() <= original.mean_auroc() + 0.1);
        assert!(
            privbayes.mean_auroc() > 0.35,
            "privbayes auroc {}",
            privbayes.mean_auroc()
        );
    }
}
