//! Figure 5: effect of the number of PCA components `d_p` on P3GM's
//! downstream accuracy (MNIST-like data), plus an ablation over the number
//! of MoG components `d_m` that DESIGN.md calls out.
//!
//! The paper's shape: accuracy is poor for very small `d_p` (not enough
//! expressive power), peaks in an intermediate range (≈10–100 on real
//! MNIST), and degrades again when `d_p` is so large that the DP-EM prior
//! suffers from the curse of dimensionality.

use crate::common::{
    experiment_rng, make_dataset, pgm_config_for, stratified_split, GenerativeKind,
};
use crate::report::{fmt_metric, TextTable};
use crate::scale::Scale;
use p3gm_classifiers::mlp_classifier::MlpClassifier;
use p3gm_core::pgm::PhasedGenerativeModel;
use p3gm_core::synthesis::{synthesize_labelled, LabelledSynthesizer};
use p3gm_datasets::DatasetKind;

/// One point of the d_p sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Point {
    /// Number of PCA components.
    pub dp: usize,
    /// Downstream classification accuracy.
    pub accuracy: f64,
}

/// One point of the MoG-components ablation.
#[derive(Debug, Clone, Copy)]
pub struct MogAblationPoint {
    /// Number of mixture components `d_m`.
    pub dm: usize,
    /// Downstream classification accuracy.
    pub accuracy: f64,
}

/// The regenerated Figure 5 plus the d_m ablation.
#[derive(Debug, Clone)]
pub struct Fig5Report {
    /// Accuracy as a function of the number of PCA components.
    pub dp_sweep: Vec<Fig5Point>,
    /// Accuracy as a function of the number of MoG components (at the best
    /// d_p of the sweep).
    pub dm_ablation: Vec<MogAblationPoint>,
}

/// Runs the Figure 5 experiment with the default sweeps for the scale.
pub fn run(scale: Scale) -> Fig5Report {
    let (dps, dms): (Vec<usize>, Vec<usize>) = match scale {
        Scale::Smoke => (vec![2, 8], vec![2, 4]),
        Scale::Paper => (vec![2, 4, 8, 16, 32], vec![1, 3, 5]),
    };
    run_sweeps(scale, &dps, &dms)
}

/// Runs the sweeps with explicit `d_p` and `d_m` grids.
pub fn run_sweeps(scale: Scale, dps: &[usize], dms: &[usize]) -> Fig5Report {
    let mut rng = experiment_rng(55);
    let dataset = make_dataset(&mut rng, DatasetKind::Mnist, scale);
    let split = stratified_split(&mut rng, &dataset, scale.test_fraction());
    let train = &split.train;
    let test = &split.test;
    let epsilon = 1.0;
    let d = train.n_features();

    let evaluate_with =
        |latent_dim: usize, mog_components: usize, rng: &mut rand::rngs::StdRng| -> f64 {
            let (synth, prepared) =
                LabelledSynthesizer::prepare(&train.features, &train.labels, train.n_classes)
                    .expect("prepare labelled data");
            let mut cfg = pgm_config_for(
                scale,
                GenerativeKind::P3gm,
                epsilon,
                prepared.rows(),
                prepared.cols(),
            );
            cfg.latent_dim = latent_dim.min(prepared.cols() - 1).max(1);
            cfg.mog_components = mog_components.max(1);
            let (model, _) =
                PhasedGenerativeModel::fit(rng, &prepared, cfg).expect("P3GM training");
            let counts = train.matched_label_counts(scale.n_synthetic());
            let (synth_x, synth_y) =
                synthesize_labelled(&model, &synth, rng, &counts).expect("synthesis");
            let mut clf = MlpClassifier::new(
                rng,
                synth_x.cols(),
                scale.hidden_dim().max(32),
                train.n_classes,
            );
            clf.epochs = 12;
            clf.fit(rng, &synth_x, &synth_y);
            clf.score(&test.features, &test.labels)
        };

    let dp_sweep: Vec<Fig5Point> = dps
        .iter()
        .map(|&dp| Fig5Point {
            dp,
            accuracy: evaluate_with(dp.min(d), scale.mog_components(), &mut rng),
        })
        .collect();

    // Run the MoG ablation at the best d_p found in the sweep.
    let best_dp = dp_sweep
        .iter()
        .max_by(|a, b| a.accuracy.partial_cmp(&b.accuracy).unwrap())
        .map(|p| p.dp)
        .unwrap_or(scale.latent_dim());
    let dm_ablation: Vec<MogAblationPoint> = dms
        .iter()
        .map(|&dm| MogAblationPoint {
            dm,
            accuracy: evaluate_with(best_dp.min(d), dm, &mut rng),
        })
        .collect();

    Fig5Report {
        dp_sweep,
        dm_ablation,
    }
}

impl Fig5Report {
    /// Renders both sweeps as text tables.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "Figure 5: P3GM accuracy vs number of PCA components d_p (MNIST-like, (1, 1e-5)-DP)\n\n",
        );
        let mut table = TextTable::new(&["d_p", "accuracy"]);
        for p in &self.dp_sweep {
            table.add_row(vec![p.dp.to_string(), fmt_metric(p.accuracy)]);
        }
        out.push_str(&table.render());
        out.push('\n');
        out.push_str("Ablation: accuracy vs number of MoG components d_m\n");
        let mut table = TextTable::new(&["d_m", "accuracy"]);
        for p in &self.dm_ablation {
            table.add_row(vec![p.dm.to_string(), fmt_metric(p.accuracy)]);
        }
        out.push_str(&table.render());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tiny_sweep() {
        let report = run_sweeps(Scale::Smoke, &[4], &[2]);
        assert_eq!(report.dp_sweep.len(), 1);
        assert_eq!(report.dm_ablation.len(), 1);
        for p in &report.dp_sweep {
            assert!(p.accuracy.is_finite() && (0.0..=1.0).contains(&p.accuracy));
        }
        let text = report.to_text();
        assert!(text.contains("d_p"));
        assert!(text.contains("d_m"));
    }
}
