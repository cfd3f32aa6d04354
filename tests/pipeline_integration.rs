//! Cross-crate integration tests: the full P3GM pipeline from raw dataset
//! to privately synthesized data and downstream evaluation.

use p3gm::classifiers::suite::evaluate_binary_suite;
use p3gm::core::config::{PgmConfig, VaeConfig};
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::synthesis::{synthesize_labelled, LabelledSynthesizer};
use p3gm::core::vae::Vae;
use p3gm::core::GenerativeModel;
use p3gm::datasets::tabular::{adult_like, kaggle_credit_like};
use p3gm::datasets::DatasetKind;
use p3gm::eval::common::{evaluate_tabular, make_dataset, stratified_split, GenerativeKind};
use p3gm::eval::Scale;
use p3gm::privacy::rdp::RdpAccountant;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_pgm_config(private: bool) -> PgmConfig {
    PgmConfig {
        latent_dim: 6,
        hidden_dim: 24,
        mog_components: 3,
        epochs: 4,
        batch_size: 32,
        em_iterations: 5,
        private,
        ..PgmConfig::default()
    }
}

#[test]
fn p3gm_end_to_end_produces_useful_private_synthetic_data() {
    let mut rng = StdRng::seed_from_u64(2024);
    let dataset = adult_like(&mut rng, 900);
    let split = dataset.train_test_split(&mut rng, 0.25);

    let (synth, prepared) = LabelledSynthesizer::prepare(
        &split.train.features,
        &split.train.labels,
        split.train.n_classes,
    )
    .unwrap();

    let (model, history) =
        PhasedGenerativeModel::fit(&mut rng, &prepared, small_pgm_config(true)).unwrap();
    assert_eq!(history.len(), 4);

    // The training run has a finite, positive privacy guarantee.
    let spec = model.training_privacy_spec().expect("P3GM is private");
    assert!(spec.epsilon > 0.0 && spec.epsilon.is_finite());

    // Synthesize with the real label ratio and evaluate on real test data.
    let counts = split.train.matched_label_counts(400);
    let (synth_x, synth_y) = synthesize_labelled(&model, &synth, &mut rng, &counts).unwrap();
    assert_eq!(synth_x.rows(), 400);
    assert_eq!(synth_x.cols(), split.train.n_features());

    let report =
        evaluate_binary_suite(&synth_x, &synth_y, &split.test.features, &split.test.labels);
    // Even a small noisy model should comfortably beat coin flipping on the
    // Adult-like data, where the classes are well separated.
    assert!(
        report.mean_auroc() > 0.55,
        "mean AUROC {} too close to chance",
        report.mean_auroc()
    );
}

#[test]
fn non_private_pgm_tracks_vae_quality() {
    // Table V's qualitative claim: PGM has similar expressive power to VAE.
    let mut rng = StdRng::seed_from_u64(77);
    let dataset = adult_like(&mut rng, 900);
    let split = dataset.train_test_split(&mut rng, 0.25);
    let (synth, prepared) = LabelledSynthesizer::prepare(
        &split.train.features,
        &split.train.labels,
        split.train.n_classes,
    )
    .unwrap();

    let (pgm, _) =
        PhasedGenerativeModel::fit(&mut rng, &prepared, small_pgm_config(false)).unwrap();
    let vae_cfg = VaeConfig {
        latent_dim: 6,
        hidden_dim: 24,
        epochs: 4,
        batch_size: 32,
        ..VaeConfig::default()
    };
    let (vae, _) = Vae::fit(&mut rng, &prepared, vae_cfg).unwrap();

    let counts = split.train.matched_label_counts(400);
    let evaluate = |model: &dyn GenerativeModel, rng: &mut StdRng| {
        let (x, y) = synthesize_labelled(model, &synth, rng, &counts).unwrap();
        evaluate_binary_suite(&x, &y, &split.test.features, &split.test.labels).mean_auroc()
    };
    let pgm_auroc = evaluate(&pgm, &mut rng);
    let vae_auroc = evaluate(&vae, &mut rng);
    // The two should be in the same ballpark (paper: "PGM has similar
    // expression power as VAE"); allow generous slack for the small scale.
    assert!(
        (pgm_auroc - vae_auroc).abs() < 0.3,
        "PGM {pgm_auroc} vs VAE {vae_auroc}"
    );
}

#[test]
fn imbalanced_credit_pipeline_preserves_label_ratio() {
    let mut rng = StdRng::seed_from_u64(5150);
    let dataset = kaggle_credit_like(&mut rng, 1500);
    assert!(dataset.positive_fraction() < 0.02);
    let (synth, prepared) =
        LabelledSynthesizer::prepare(&dataset.features, &dataset.labels, dataset.n_classes)
            .unwrap();
    let (model, _) =
        PhasedGenerativeModel::fit(&mut rng, &prepared, small_pgm_config(true)).unwrap();
    let counts = dataset.matched_label_counts(500);
    let (_, labels) = synthesize_labelled(&model, &synth, &mut rng, &counts).unwrap();
    let positives = labels.iter().filter(|&&l| l == 1).count();
    // The synthesis protocol enforces the requested (rare-positive) ratio.
    assert_eq!(positives, counts[1]);
    assert!(positives >= 1);
    assert!(positives < 25, "positives {positives} should stay rare");
}

#[test]
fn harness_private_models_agree_with_direct_pipeline() {
    // The eval harness wraps the same components; a quick consistency check
    // that its P3GM cell produces scores in a sane range on Adult.
    let mut rng = StdRng::seed_from_u64(31);
    let adult = make_dataset(&mut rng, DatasetKind::Adult, Scale::Smoke);
    let split = stratified_split(&mut rng, &adult, 0.25);
    let report = evaluate_tabular(
        &mut rng,
        GenerativeKind::P3gm,
        &split.train,
        &split.test,
        Scale::Smoke,
        1.0,
    );
    // At smoke scale the private model is noisy, so only basic sanity of the
    // harness output is asserted here; the paper-scale numbers come from the
    // `paper_tables` bench, which writes them to `target/paper_reports/`.
    assert!(report.mean_auroc().is_finite() && (0.0..=1.0).contains(&report.mean_auroc()));
    assert!(report.mean_auprc().is_finite() && (0.0..=1.0).contains(&report.mean_auprc()));
}

#[test]
fn theorem4_accounting_matches_model_report() {
    // The epsilon the model reports must equal the accountant evaluated on
    // the same schedule — no hidden budget.
    let mut rng = StdRng::seed_from_u64(99);
    let dataset = adult_like(&mut rng, 600);
    let (_, prepared) =
        LabelledSynthesizer::prepare(&dataset.features, &dataset.labels, dataset.n_classes)
            .unwrap();
    let cfg = small_pgm_config(true);
    let n = prepared.rows();
    let (model, _) = PhasedGenerativeModel::fit(&mut rng, &prepared, cfg.clone()).unwrap();
    let reported = model.privacy_spec(n).unwrap();
    let direct = RdpAccountant::p3gm_total(
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
    assert!((reported.epsilon - direct.epsilon).abs() < 1e-12);
    assert_eq!(reported.optimal_order, direct.optimal_order);
}
