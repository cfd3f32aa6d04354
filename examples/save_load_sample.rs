//! Persist & serve: train P3GM once, save the model to a versioned
//! snapshot file, load it in a (conceptually different) serving process,
//! and serve seedable synthesis requests — sampling is post-processing,
//! so serving costs no additional privacy budget.
//!
//! Run with:
//! ```text
//! cargo run --release --example save_load_sample
//! ```

use p3gm::core::config::PgmConfig;
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::SynthesisSnapshot;
use p3gm::core::synthesis::LabelledSynthesizer;
use p3gm::datasets::tabular::adult_like;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 1. Train P3GM once — this is the only step that consumes privacy
    //    budget.
    let dataset = adult_like(&mut rng, 1500);
    let (synthesizer, prepared) =
        LabelledSynthesizer::prepare(&dataset.features, &dataset.labels, dataset.n_classes)
            .expect("prepare training data");
    let config = PgmConfig {
        latent_dim: 8,
        hidden_dim: 48,
        epochs: 4,
        batch_size: 64,
        ..PgmConfig::default()
    };
    let (model, _history) =
        PhasedGenerativeModel::fit(&mut rng, &prepared, config).expect("train P3GM");

    // 2. Capture the trained model (plus the feature/label transform and
    //    the certified privacy stamp) into one snapshot buffer and write it
    //    to disk. The snapshot file is the unit a serving fleet shards,
    //    caches and replicates.
    let snapshot = SynthesisSnapshot::capture(model.clone()).with_synthesizer(synthesizer);
    let bytes = snapshot.to_bytes();
    let path = std::env::temp_dir().join("p3gm_model.snapshot");
    std::fs::write(&path, &bytes).expect("write snapshot");
    println!("saved {} byte snapshot to {}", bytes.len(), path.display());

    // 3. A serving process loads the snapshot once...
    let loaded = SynthesisSnapshot::from_bytes(&std::fs::read(&path).expect("read snapshot"))
        .expect("decode snapshot");
    if let Some(stamp) = loaded.privacy_stamp() {
        println!(
            "snapshot certifies ({:.3}, {:.0e})-DP (optimal RDP order {})",
            stamp.epsilon, stamp.delta, stamp.optimal_order
        );
    }

    // 4. ...and serves seedable requests. Each request's rows are fully
    //    determined by its seed, so any replica answers any request
    //    identically.
    for seed in 100..104 {
        let rows = loaded.sample(seed, 250);
        println!("request seed {seed:>3} -> {} synthetic rows", rows.rows());
    }

    // 5. The round-trip guarantee: sampling the loaded snapshot with a
    //    fixed seed is bit-identical to the canonical stream of the
    //    snapshot that never left memory — whole, or window by window as
    //    a server streams it.
    let direct = snapshot.sample(42, 100);
    let served = loaded.sample(42, 100);
    assert_eq!(direct.as_slice(), served.as_slice());
    let windowed: Vec<f64> = (0..100)
        .step_by(24)
        .flat_map(|start| {
            let rows = 24.min(100 - start);
            loaded.sample_rows(42, start, rows).as_slice().to_vec()
        })
        .collect();
    assert_eq!(direct.as_slice(), windowed.as_slice());
    println!("round trip verified: save -> load -> sample is bit-identical");

    // 6. Labelled serving: original-unit features with the requested label
    //    mix, straight from the snapshot.
    let (features, labels) = loaded
        .synthesize_labelled(9, &[120, 40])
        .expect("labelled synthesis");
    println!(
        "labelled release: {} rows, {} positive",
        features.rows(),
        labels.iter().filter(|&&l| l == 1).count()
    );

    let _ = std::fs::remove_file(&path);
}
