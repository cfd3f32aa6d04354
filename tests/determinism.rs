//! Property-based determinism tests for the `p3gm-parallel` execution
//! layer: every parallel kernel must produce **bit-identical** output
//! regardless of the worker-thread count (the serial `P3GM_THREADS=1` run
//! is the reference). Exercised on arbitrary inputs for the kernel
//! families the pipeline spends its time in — matmul and its transposed
//! variant, gram, the (DP-)EM batched log-densities and responsibilities
//! E-step, the batched MLP forward, and the DP-SGD clipped gradient sum
//! and per-example gradient batch — plus
//! the snapshot sampling pipeline, whose canonical stream must be
//! invariant to delivery chunking, request size and thread count alike,
//! and whole training runs of every PGM and VAE variant.

use p3gm::core::config::{PgmConfig, VaeConfig};
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::SynthesisSnapshot;
use p3gm::core::{GenerativeModel, TrainingHistory, Vae};
use p3gm::linalg::Matrix;
use p3gm::mixture::Gmm;
use p3gm::nn::activation::Activation;
use p3gm::nn::mlp::Mlp;
use p3gm::parallel::with_threads;
use p3gm::privacy::mechanisms::clip_and_sum_gradients;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A tiny trained snapshot, fitted once (the sampling-path fixture).
fn snapshot_fixture() -> &'static SynthesisSnapshot {
    static SNAPSHOT: OnceLock<SynthesisSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let data = Matrix::from_fn(48, 5, |i, j| {
            0.5 + 0.4 * (((i * 5 + j) as f64) * 0.37).sin()
        });
        let config = PgmConfig {
            latent_dim: 2,
            hidden_dim: 8,
            mog_components: 2,
            epochs: 1,
            batch_size: 16,
            em_iterations: 2,
            ..PgmConfig::default()
        };
        let (model, _) = PhasedGenerativeModel::fit(&mut rng, &data, config).unwrap();
        SynthesisSnapshot::capture(model)
    })
}

/// Training variants: PGM and P3GM with learned or fixed variance
/// (`0..4`), then VAE and DP-VAE (`4..6`).
const TRAINING_VARIANTS: usize = 6;

/// The bytes a fit of `variant` from `seed` produces: the PGM snapshot,
/// or for the VAE (which has no snapshot) its encoder outputs on every
/// training row and a seeded sample, followed by the epoch losses. Lots of
/// 40 rows split into three chunks, so 2–4 threads really share a lot.
fn trained_bytes(variant: usize, seed: u64) -> Vec<u8> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data = Matrix::from_fn(48, 5, |i, j| {
        0.5 + 0.4 * (((i * 5 + j) as f64) * 0.37).sin()
    });
    let bits = |values: &[f64]| -> Vec<u8> {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect()
    };
    let losses = |history: &TrainingHistory| -> Vec<f64> {
        [history.reconstruction_curve(), history.kl_curve()].concat()
    };
    if variant < 4 {
        let mut config = PgmConfig {
            latent_dim: 2,
            hidden_dim: 8,
            mog_components: 2,
            epochs: 2,
            batch_size: 40,
            em_iterations: 2,
            private: variant & 1 != 0,
            ..PgmConfig::default()
        };
        if variant & 2 != 0 {
            config = config.autoencoder_variant();
        }
        let (model, history) = PhasedGenerativeModel::fit(&mut rng, &data, config).unwrap();
        [model.to_bytes(), bits(&losses(&history))].concat()
    } else {
        let config = VaeConfig {
            latent_dim: 2,
            hidden_dim: 8,
            epochs: 2,
            batch_size: 40,
            sigma_s: if variant & 1 != 0 { 1.0 } else { 0.0 },
            ..VaeConfig::default()
        };
        let (vae, history) = Vae::fit(&mut rng, &data, config).unwrap();
        let mut out = bits(&losses(&history));
        for row in data.row_iter() {
            let (mu, logvar) = vae.encode(row);
            out.extend(bits(&mu));
            out.extend(bits(&logvar));
        }
        out.extend(bits(vae.sample(&mut rng, 8).as_slice()));
        out
    }
}

/// Strategy: a data matrix with values in a bounded range.
fn data_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |values| Matrix::from_vec(rows, cols, values).unwrap())
}

/// Asserts that every f64 of two equally-shaped matrices matches bitwise.
fn assert_bits_equal(a: &Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn matmul_is_bit_identical_across_thread_counts(
        a in data_matrix(37, 19),
        b in data_matrix(19, 23),
    ) {
        let reference = with_threads(1, || a.matmul(&b).unwrap());
        for threads in [2, 3, 4, 8] {
            let out = with_threads(threads, || a.matmul(&b).unwrap());
            assert_bits_equal(&out, &reference);
        }
    }

    #[test]
    fn matmul_transposed_is_bit_identical_across_thread_counts(
        a in data_matrix(41, 17),
        b in data_matrix(29, 17),
    ) {
        let reference = with_threads(1, || a.matmul_transposed(&b).unwrap());
        for threads in [2, 3, 4, 8] {
            let out = with_threads(threads, || a.matmul_transposed(&b).unwrap());
            assert_bits_equal(&out, &reference);
        }
    }

    #[test]
    fn gram_is_bit_identical_across_thread_counts(
        a in data_matrix(83, 13),
    ) {
        let reference = with_threads(1, || a.gram());
        for threads in [2, 3, 4, 8] {
            let out = with_threads(threads, || a.gram());
            assert_bits_equal(&out, &reference);
        }
    }

    #[test]
    fn em_log_densities_are_bit_identical_across_thread_counts(
        data in data_matrix(110, 3),
        w in 0.1..0.9f64,
    ) {
        let means = Matrix::from_rows(&[
            vec![-1.0, 0.0, 0.5],
            vec![1.5, 0.5, -0.5],
        ]).unwrap();
        let gmm = Gmm::isotropic(vec![w, 1.0 - w], means, 0.7).unwrap();
        let reference = with_threads(1, || gmm.log_densities_batch(&data));
        for threads in [2, 4] {
            let out = with_threads(threads, || gmm.log_densities_batch(&data));
            assert_bits_equal(&out, &reference);
        }
    }

    #[test]
    fn forward_batch_is_bit_identical_across_thread_counts(
        x in data_matrix(45, 6),
        seed in 0u64..1_000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&mut rng, &[6, 10, 4], Activation::Relu, Activation::Identity);
        let reference = with_threads(1, || mlp.forward_batch(&x));
        for threads in [2, 4] {
            let out = with_threads(threads, || mlp.forward_batch(&x));
            assert_bits_equal(&out, &reference);
        }
    }

    #[test]
    fn em_responsibilities_are_bit_identical_across_thread_counts(
        data in data_matrix(120, 3),
        w in 0.1..0.9f64,
    ) {
        let means = Matrix::from_rows(&[
            vec![-1.0, 0.0, 0.5],
            vec![1.5, 0.5, -0.5],
        ]).unwrap();
        let gmm = Gmm::isotropic(vec![w, 1.0 - w], means, 0.7).unwrap();
        let reference = with_threads(1, || gmm.responsibilities_batch(&data));
        for threads in [2, 4] {
            let resp = with_threads(threads, || gmm.responsibilities_batch(&data));
            assert_bits_equal(&resp, &reference);
        }
        // The mean log-likelihood reduction is deterministic too.
        let ll = with_threads(1, || gmm.mean_log_likelihood(&data));
        for threads in [2, 4] {
            let ll_t = with_threads(threads, || gmm.mean_log_likelihood(&data));
            prop_assert_eq!(ll.to_bits(), ll_t.to_bits());
        }
    }

    #[test]
    fn clipped_gradient_sums_are_bit_identical_across_thread_counts(
        grads in data_matrix(90, 31),
        clip in 0.2..5.0f64,
    ) {
        let reference = with_threads(1, || clip_and_sum_gradients(&grads, clip));
        for threads in [2, 3, 4] {
            let sum = with_threads(threads, || clip_and_sum_gradients(&grads, clip));
            prop_assert_eq!(sum.len(), reference.len());
            for (x, y) in sum.iter().zip(reference.iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn per_example_gradient_batches_are_bit_identical_across_thread_counts(
        x in data_matrix(40, 6),
        seed in 0u64..1_000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&mut rng, &[6, 10, 4], Activation::Relu, Activation::Identity);
        let gouts = Matrix::from_fn(40, 4, |i, j| ((i * 4 + j) as f64 * 0.1).sin());
        let reference = with_threads(1, || mlp.per_example_gradients(&x, &gouts));
        for threads in [2, 4] {
            let batch = with_threads(threads, || mlp.per_example_gradients(&x, &gouts));
            assert_bits_equal(&batch, &reference);
        }
    }

    /// The snapshot's canonical sample stream: for any (seed, n, window
    /// size), the concatenated `sample_rows` windows — the path the
    /// server streams — are bit-identical to `sample(seed, n)` at every
    /// thread count, and a shorter request is a row-prefix of a longer
    /// one.
    #[test]
    fn snapshot_sampling_is_chunk_and_thread_invariant(
        seed in 0u64..1_000_000,
        n in 1usize..220,
        chunk_rows in 1usize..140,
    ) {
        let snapshot = snapshot_fixture();
        let reference = with_threads(1, || snapshot.sample(seed, n));
        for threads in [1, 2, 4] {
            let windows = with_threads(threads, || {
                let mut rows: Vec<f64> = Vec::with_capacity(reference.as_slice().len());
                for start in (0..n).step_by(chunk_rows) {
                    let window = snapshot.sample_rows(seed, start, chunk_rows.min(n - start));
                    rows.extend_from_slice(window.as_slice());
                }
                rows
            });
            prop_assert_eq!(windows.len(), reference.as_slice().len());
            for (x, y) in windows.iter().zip(reference.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            let whole = with_threads(threads, || snapshot.sample(seed, n));
            assert_bits_equal(&whole, &reference);
        }
        // Prefix stability: the stream does not depend on n.
        let shorter = snapshot.sample(seed, n / 2);
        let d = reference.cols();
        for (x, y) in shorter
            .as_slice()
            .iter()
            .zip(&reference.as_slice()[..(n / 2) * d])
        {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Whole fits are slow in debug builds, so they run fewer cases (the
/// `proptest!` macro allows one configuration per module).
mod fits {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Whole fits of every training variant: the trained bytes are
        /// identical at 1, 2, 3 and 4 threads.
        #[test]
        fn trained_models_are_bit_identical_across_thread_counts(seed in 0u64..1_000_000) {
            for variant in 0..TRAINING_VARIANTS {
                let reference = with_threads(1, || trained_bytes(variant, seed));
                for threads in [2, 3, 4] {
                    let bytes = with_threads(threads, || trained_bytes(variant, seed));
                    prop_assert!(bytes == reference, "variant {} diverged at {} threads", variant, threads);
                }
            }
        }
    }
}
