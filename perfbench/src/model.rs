//! Training inputs and trained snapshots, all derived from the workload
//! seed.

use p3gm_core::report::TrainReport;
use p3gm_core::snapshot::SynthesisSnapshot;
use p3gm_core::synthesis::LabelledSynthesizer;
use p3gm_core::{PgmConfig, PhasedGenerativeModel};
use p3gm_eval::scale::Scale;
use p3gm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Rows of each adult-like training set (the served tabular model).
const ADULT_ROWS: usize = 400;
/// Seeds the training data. Data and served models stay fixed across
/// workload seeds: a model's weights set how long its sampled values
/// print, so a served model that followed the workload seed would change
/// the work per request.
const DATA_SEED: u64 = 0xDA7A_5EED;

/// Which dataset a model is trained on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Adult-like tabular rows (17 prepared columns), the served model of
    /// the serve workloads.
    Adult,
    /// The MNIST-like image set at `Scale::Paper`: 14×14 pixels plus a
    /// one-hot label, 206 prepared columns.
    Mnist,
}

/// One generated training set and the configuration it is trained with.
pub struct TrainSet {
    pub prepared: Matrix,
    pub synthesizer: LabelledSynthesizer,
    pub config: PgmConfig,
}

impl TrainSet {
    /// The `index`-th training set of `kind`.
    pub fn generate(kind: Kind, index: u64) -> Result<TrainSet, String> {
        let mut rng = StdRng::seed_from_u64(DATA_SEED ^ index);
        let (dataset, config) = match kind {
            Kind::Adult => (
                p3gm_datasets::tabular::adult_like(&mut rng, ADULT_ROWS),
                PgmConfig {
                    latent_dim: 6,
                    hidden_dim: 24,
                    epochs: 2,
                    batch_size: 64,
                    ..PgmConfig::default()
                },
            ),
            Kind::Mnist => {
                let scale = Scale::Paper;
                (
                    p3gm_datasets::images::mnist_like(
                        &mut rng,
                        scale.n_images(),
                        scale.image_size(),
                    ),
                    PgmConfig {
                        latent_dim: scale.latent_dim(),
                        hidden_dim: scale.hidden_dim(),
                        epochs: scale.epochs(),
                        batch_size: scale.batch_size(),
                        ..PgmConfig::default()
                    },
                )
            }
        };
        let (synthesizer, prepared) =
            LabelledSynthesizer::prepare(&dataset.features, &dataset.labels, dataset.n_classes)
                .map_err(|e| format!("prepare: {e}"))?;
        Ok(TrainSet {
            prepared,
            synthesizer,
            config,
        })
    }
}

/// A trained, serializable model and what its training reported.
pub struct Trained {
    pub snapshot: SynthesisSnapshot,
    pub bytes: Vec<u8>,
    pub report: TrainReport,
    /// Wall time of the full `fit`.
    pub fit_s: f64,
}

/// One full `PhasedGenerativeModel::fit` (timed) from `fit_seed`,
/// captured as a snapshot.
pub fn train(set: &TrainSet, fit_seed: u64) -> Result<Trained, String> {
    let mut rng = StdRng::seed_from_u64(fit_seed);
    let start = Instant::now();
    let (model, _history, report) =
        PhasedGenerativeModel::fit_with_report(&mut rng, &set.prepared, set.config.clone(), None)
            .map_err(|e| format!("fit: {e}"))?;
    let fit_s = start.elapsed().as_secs_f64();
    let snapshot = SynthesisSnapshot::capture(model).with_synthesizer(set.synthesizer.clone());
    let bytes = snapshot.to_bytes();
    Ok(Trained {
        snapshot,
        bytes,
        report,
        fit_s,
    })
}

/// The stamp gate: the snapshot's ε stamp must be exactly the accountant's
/// answer for the configuration on this many rows.
pub fn check_stamp(set: &TrainSet, trained: &Trained) -> Result<(), String> {
    let expected = set.config.privacy_spec(set.prepared.rows());
    let stamped = trained.snapshot.privacy_stamp().copied();
    match (expected, stamped) {
        (Some(e), Some(s)) if e == s => Ok(()),
        _ => Err(format!(
            "privacy stamp {stamped:?} differs from PgmConfig::privacy_spec {expected:?}"
        )),
    }
}
