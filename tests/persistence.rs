//! Property-based and integration tests for the `p3gm-store` persistence
//! layer: arbitrary-shape round trips must be bitwise-identical, malformed
//! buffers must fail with typed errors (never panic), and a persisted
//! P3GM model must reproduce the in-memory model's samples bit-for-bit.

use p3gm::core::config::PgmConfig;
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::SynthesisSnapshot;
use p3gm::core::synthesis::LabelledSynthesizer;
use p3gm::core::VarianceMode;
use p3gm::linalg::Matrix;
use p3gm::mixture::Gmm;
use p3gm::nn::activation::Activation;
use p3gm::nn::mlp::Mlp;
use p3gm::parallel::with_threads;
use p3gm::preprocess::scaler::MinMaxScaler;
use p3gm::store::{crc32, StoreError, CHECKSUM_LEN, FORMAT_VERSION};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rebuilds the version field of a framed buffer and re-stamps a valid
/// checksum, so the decoder error is specifically the version check.
fn with_patched_version(bytes: &[u8], version: u32) -> Vec<u8> {
    let mut patched = bytes.to_vec();
    patched[4..8].copy_from_slice(&version.to_le_bytes());
    let body_len = patched.len() - CHECKSUM_LEN;
    let crc = crc32(&patched[..body_len]);
    let crc_bytes = crc.to_le_bytes();
    patched[body_len..].copy_from_slice(&crc_bytes);
    patched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matrix_round_trip_is_bitwise_identical(
        rows in 0usize..9,
        cols in 0usize..9,
        pool in proptest::collection::vec(-1e9..1e9f64, 64)
    ) {
        let n = rows * cols;
        let m = Matrix::from_vec(rows, cols, pool.iter().cycle().take(n).copied().collect())
            .unwrap();
        let back = Matrix::from_bytes(&m.to_bytes()).unwrap();
        prop_assert_eq!(back.shape(), m.shape());
        prop_assert_eq!(back.as_slice(), m.as_slice());
    }

    #[test]
    fn matrix_truncation_and_bit_flips_are_typed_errors(
        rows in 1usize..7,
        cols in 1usize..7,
        cut in 0.0..1.0f64,
        flip in 0.0..1.0f64,
        bit in 0usize..8
    ) {
        let m = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i as f64 * 0.7).sin()).collect(),
        )
        .unwrap();
        let bytes = m.to_bytes();
        // Every proper prefix fails.
        let cut_at = ((bytes.len() as f64) * cut) as usize;
        prop_assert!(Matrix::from_bytes(&bytes[..cut_at.min(bytes.len() - 1)]).is_err());
        // Every single-bit flip is caught (CRC-32 detects all 1-bit errors).
        let mut corrupted = bytes.clone();
        let pos = ((bytes.len() as f64) * flip) as usize % bytes.len();
        corrupted[pos] ^= 1 << bit;
        prop_assert!(Matrix::from_bytes(&corrupted).is_err());
    }

    #[test]
    fn mlp_round_trip_reproduces_forward_bitwise(
        seed in 0u64..1_000_000,
        input in 1usize..5,
        hidden in 1usize..7,
        output in 1usize..4
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            &mut rng,
            &[input, hidden, output],
            Activation::Relu,
            Activation::Identity,
        );
        let back = Mlp::from_bytes(&mlp.to_bytes()).unwrap();
        prop_assert_eq!(back.params(), mlp.params());
        let x: Vec<f64> = (0..input).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = mlp.forward(&x);
        let b = back.forward(&x);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn gmm_round_trip_samples_bitwise(
        seed in 0u64..1_000_000,
        k in 1usize..4,
        dim in 1usize..4
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Random weights and means; SPD covariances as B·Bᵀ + I/2.
        let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..1.0)).collect();
        let means = Matrix::from_vec(
            k,
            dim,
            (0..k * dim).map(|_| rng.gen_range(-3.0..3.0)).collect(),
        )
        .unwrap();
        let covs: Vec<Matrix> = (0..k)
            .map(|_| {
                let b = Matrix::from_vec(
                    dim,
                    dim,
                    (0..dim * dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                )
                .unwrap();
                let mut c = b.matmul(&b.transpose()).unwrap();
                c.add_diagonal(0.5);
                c
            })
            .collect();
        let gmm = Gmm::new(weights, means, covs).unwrap();
        let back = Gmm::from_bytes(&gmm.to_bytes()).unwrap();
        prop_assert_eq!(back.weights(), gmm.weights());
        let mut r1 = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut r2 = StdRng::seed_from_u64(seed ^ 0xABCD);
        let (mut a, mut b) = (vec![0.0; dim], vec![0.0; dim]);
        for _ in 0..10 {
            gmm.sample(&mut r1, &mut a);
            back.sample(&mut r2, &mut b);
            prop_assert_eq!(&a, &b);
        }
        // Truncations never panic.
        let bytes = gmm.to_bytes();
        prop_assert!(Gmm::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn scaler_round_trips_are_bitwise(
        rows in 2usize..8,
        cols in 1usize..5,
        seed in 0u64..1_000_000
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-50.0..50.0)).collect(),
        )
        .unwrap();
        let minmax = MinMaxScaler::fit(&data).unwrap();
        let mm_back = MinMaxScaler::from_bytes(&minmax.to_bytes()).unwrap();
        prop_assert_eq!(mm_back.mins(), minmax.mins());
        prop_assert_eq!(mm_back.maxs(), minmax.maxs());
        prop_assert_eq!(
            mm_back.transform(&data).unwrap().as_slice(),
            minmax.transform(&data).unwrap().as_slice()
        );
    }
}

fn tiny_config(d: usize) -> PgmConfig {
    PgmConfig {
        latent_dim: 4.min(d),
        hidden_dim: 16,
        mog_components: 2,
        epochs: 3,
        batch_size: 16,
        learning_rate: 5e-3,
        clip_norm: 1.0,
        private: true,
        eps_p: 0.5,
        sigma_e: 50.0,
        em_iterations: 3,
        sigma_s: 1.0,
        delta: 1e-5,
        variance_mode: VarianceMode::Learned,
    }
}

fn trained_snapshot() -> (SynthesisSnapshot, PhasedGenerativeModel) {
    let mut rng = StdRng::seed_from_u64(33);
    let rows: Vec<Vec<f64>> = (0..90)
        .map(|i| {
            let hot = i % 2 == 0;
            (0..6)
                .map(|j| if (j < 3) == hot { 0.9 } else { 0.1 })
                .collect()
        })
        .collect();
    let features = Matrix::from_rows(&rows).unwrap();
    let labels: Vec<usize> = (0..90).map(|i| i % 2).collect();
    let (synth, prepared) = LabelledSynthesizer::prepare(&features, &labels, 2).unwrap();
    let (model, _) =
        PhasedGenerativeModel::fit(&mut rng, &prepared, tiny_config(prepared.cols())).unwrap();
    let snapshot = SynthesisSnapshot::capture(model.clone()).with_synthesizer(synth);
    (snapshot, model)
}

#[test]
fn saved_model_reproduces_in_memory_samples_bit_for_bit() {
    let (snapshot, model) = trained_snapshot();
    let loaded = SynthesisSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
    for seed in [0u64, 1, 42, u64::MAX] {
        // The never-persisted snapshot's canonical stream is the
        // reference; the loaded snapshot must reproduce it bit for bit —
        // whole, and as the `sample_rows` windows a server streams, at
        // every thread count.
        let direct = snapshot.sample(seed, 25);
        for threads in [1, 2, 4] {
            let served = with_threads(threads, || loaded.sample(seed, 25));
            assert_eq!(direct.as_slice(), served.as_slice(), "seed {seed}");
            let windows: Vec<f64> = with_threads(threads, || {
                (0..25)
                    .step_by(7)
                    .flat_map(|start| {
                        let rows = 7.min(25 - start);
                        loaded.sample_rows(seed, start, rows).as_slice().to_vec()
                    })
                    .collect()
            });
            assert_eq!(direct.as_slice(), windows.as_slice(), "seed {seed}");
        }
    }
    // The privacy stamp and synthesizer survive the round trip.
    assert_eq!(
        loaded.privacy_stamp().copied(),
        model.training_privacy_spec()
    );
    assert!(loaded.synthesizer().is_some());
}

#[test]
fn snapshot_truncations_and_corruptions_never_panic() {
    let (snapshot, _) = trained_snapshot();
    let bytes = snapshot.to_bytes();
    for cut in (0..bytes.len()).step_by(97) {
        assert!(
            SynthesisSnapshot::from_bytes(&bytes[..cut]).is_err(),
            "prefix {cut} accepted"
        );
    }
    for pos in (0..bytes.len()).step_by(131) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x55;
        assert!(
            SynthesisSnapshot::from_bytes(&corrupted).is_err(),
            "corruption at {pos} accepted"
        );
    }
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let (snapshot, _) = trained_snapshot();
    let bytes = snapshot.to_bytes();
    let future = with_patched_version(&bytes, FORMAT_VERSION + 3);
    assert_eq!(
        SynthesisSnapshot::from_bytes(&future).unwrap_err(),
        StoreError::UnsupportedVersion {
            found: FORMAT_VERSION + 3,
            supported: FORMAT_VERSION,
        }
    );
    // Wrong tag is equally typed: a snapshot buffer is not a matrix.
    assert!(matches!(
        Matrix::from_bytes(&bytes),
        Err(StoreError::WrongTag { .. })
    ));
}
