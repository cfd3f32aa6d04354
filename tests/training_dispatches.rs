//! How many parallel dispatches training and sampling make, counted with
//! the pool's global dispatch counter. The counter is process-wide, so
//! these tests live in a test binary of their own, and each holds
//! [`SERIAL`] for its whole body: set-up work, such as an Encoding Phase,
//! dispatches too.
//!
//! * A DP-SGD step (PGM or VAE, private or not) is one dispatch: the
//!   calling thread draws the step's noise while the helpers map the lot.
//! * A (DP-)EM iteration is two dispatches (pass A and pass B), plus one
//!   pass A on the initial model, after the k-means initialization.
//! * A sampled window is none: it is decoded on the calling thread.

use p3gm::core::config::{PgmConfig, VaeConfig};
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::SynthesisSnapshot;
use p3gm::core::{GenerativeModel, Vae};
use p3gm::linalg::Matrix;
use p3gm::mixture::dpem::{self, DpEmConfig};
use p3gm::mixture::em::{self, EmConfig};
use p3gm::mixture::kmeans::{self, KMeansConfig};
use p3gm::parallel::{pool_stats, with_threads};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// Holds off the other tests of this binary until dropped.
fn exclusive() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Dispatches made by `f` at two threads. The caller holds
/// [`exclusive`].
fn dispatches<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = pool_stats().dispatches_total;
    let out = with_threads(2, f);
    (out, pool_stats().dispatches_total - before)
}

/// 256 rows in [0, 1]^6 around two patterns.
fn data() -> Matrix {
    Matrix::from_fn(256, 6, |i, j| {
        0.5 + 0.4 * (((i * 6 + j) as f64) * 0.37).sin() * if i % 2 == 0 { 1.0 } else { -1.0 }
    })
}

/// Lots of 64 rows: four chunks of 16, so every lot is a real dispatch.
const LOT: usize = 64;

#[test]
fn a_dp_sgd_step_is_one_dispatch() {
    let _turn = exclusive();
    let data = data();
    let steps = (data.rows() / LOT) as u64;
    for private in [true, false] {
        let config = PgmConfig {
            latent_dim: 3,
            hidden_dim: 16,
            mog_components: 2,
            batch_size: LOT,
            em_iterations: 2,
            private,
            ..PgmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = PhasedGenerativeModel::encode_phase(&mut rng, &data, config).unwrap();
        let (stats, count) = dispatches(|| model.train_epoch(&mut rng, &data).unwrap());
        assert_eq!(stats.steps as u64, steps);
        assert_eq!(count, steps, "PGM, private = {private}");
    }
    let mut rng = StdRng::seed_from_u64(4);
    let config = VaeConfig {
        latent_dim: 2,
        hidden_dim: 16,
        batch_size: LOT,
        ..VaeConfig::default()
    };
    let mut vae = Vae::new(&mut rng, data.cols(), config).unwrap();
    let (stats, count) = dispatches(|| vae.train_epoch(&mut rng, &data).unwrap());
    assert_eq!(stats.steps as u64, steps);
    assert_eq!(count, steps, "VAE");
}

/// The dispatches of the k-means initialization that `fit` runs on `data`
/// with a generator seeded `seed`.
fn kmeans_dispatches(data: &Matrix, k: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = KMeansConfig {
        k,
        max_iters: 20,
        tolerance: 1e-4,
    };
    dispatches(|| kmeans::kmeans(&mut rng, data, &config).unwrap()).1
}

#[test]
fn a_dp_em_iteration_is_two_dispatches() {
    let _turn = exclusive();
    let data = data();
    let k = 3;
    let init = kmeans_dispatches(&dpem::clip_rows(&data, 1.0), k, 9);
    assert!(init > 0, "the k-means initialization runs in parallel too");
    for iterations in [1, 2, 5] {
        let config = DpEmConfig {
            n_components: k,
            iterations,
            ..DpEmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let (fit, count) = dispatches(|| dpem::fit(&mut rng, &data, &config).unwrap());
        assert_eq!(fit.iterations, iterations);
        assert_eq!(
            count,
            init + 2 * iterations as u64 + 1,
            "{iterations} iterations"
        );
    }
}

#[test]
fn an_em_iteration_is_two_dispatches() {
    let _turn = exclusive();
    let data = data();
    let k = 3;
    let init = kmeans_dispatches(&data, k, 10);
    for max_iters in [1, 2, 5] {
        let config = EmConfig {
            n_components: k,
            max_iters,
            // Never converges early: every iteration runs.
            tolerance: -1.0,
            ..EmConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(10);
        let (fit, count) = dispatches(|| em::fit(&mut rng, &data, &config).unwrap());
        assert_eq!(fit.iterations, max_iters);
        assert_eq!(
            count,
            init + 2 * max_iters as u64 + 1,
            "{max_iters} iterations"
        );
    }
}

#[test]
fn a_sampled_window_is_no_dispatch() {
    let _turn = exclusive();
    let data = data();
    let config = PgmConfig {
        latent_dim: 3,
        hidden_dim: 16,
        mog_components: 2,
        em_iterations: 2,
        ..PgmConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let model = PhasedGenerativeModel::encode_phase(&mut rng, &data, config).unwrap();
    let snapshot = SynthesisSnapshot::capture(model.clone());
    // 512 rows: the server's largest window, from an unaligned start.
    let (window, count) = dispatches(|| snapshot.sample_rows(7, 3, 512));
    assert_eq!(window.rows(), 512);
    assert_eq!(count, 0, "sample_rows");
    let (rows, count) = dispatches(|| model.sample(&mut rng, 512));
    assert_eq!(rows.rows(), 512);
    assert_eq!(count, 0, "GenerativeModel::sample");
}
