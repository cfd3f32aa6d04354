//! Microbenchmarks for the numeric kernels the P3GM pipeline spends its
//! time in — register-tiled matmul and gram, per-example DP-SGD gradients
//! (batched forward + backward), the fused clip-and-sum pass, the
//! batched (DP-)EM E-step (with its n×k log-density sub-kernel measured
//! separately), and a served window's prior draws plus batched decode
//! (`SynthesisSnapshot::sample_rows`) — each swept over 1/2/4 worker
//! threads via `p3gm_parallel::with_threads`.
//!
//! Before timing, every kernel's output at 2 and 4 threads is asserted to
//! be **bit-identical** to the single-threaded run (the determinism
//! guarantee of `p3gm-parallel`). The recorded baseline lives in
//! `BENCH_kernels.json` at the repository root together with the host's
//! core count — thread sweeps only show wall-clock speedups when the
//! machine actually has that many cores.
//!
//! ```text
//! cargo bench -p p3gm-bench --bench kernels
//! cargo bench -p p3gm-bench --bench kernels -- dpsgd   # one kernel
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use p3gm_core::config::PgmConfig;
use p3gm_core::pgm::PhasedGenerativeModel;
use p3gm_core::snapshot::SynthesisSnapshot;
use p3gm_core::synthesis::LabelledSynthesizer;
use p3gm_datasets::Dataset;
use p3gm_eval::scale::Scale;
use p3gm_linalg::Matrix;
use p3gm_mixture::Gmm;
use p3gm_nn::activation::Activation;
use p3gm_nn::mlp::Mlp;
use p3gm_parallel::with_threads;
use p3gm_privacy::mechanisms::clip_and_sum_gradients;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const THREADS: [usize; 3] = [1, 2, 4];

fn bench_matmul(c: &mut Criterion) {
    let a = Matrix::from_fn(192, 192, |i, j| {
        ((i * 31 + j * 17) % 29) as f64 * 0.07 - 1.0
    });
    let b = Matrix::from_fn(192, 192, |i, j| ((i * 13 + j * 7) % 23) as f64 * 0.09 - 1.0);
    let reference = with_threads(1, || a.matmul(&b).unwrap());
    for t in THREADS {
        let out = with_threads(t, || a.matmul(&b).unwrap());
        assert_eq!(
            out.as_slice(),
            reference.as_slice(),
            "matmul must be bit-identical at {t} threads"
        );
        c.bench_function(&format!("kernels/matmul_192x192/threads={t}"), |bench| {
            bench.iter(|| with_threads(t, || black_box(a.matmul(&b).unwrap().get(0, 0))))
        });
    }
}

fn bench_gram(c: &mut Criterion) {
    let a = Matrix::from_fn(1024, 64, |i, j| ((i * 64 + j) as f64 * 0.013).sin());
    let reference = with_threads(1, || a.gram());
    for t in THREADS {
        let out = with_threads(t, || a.gram());
        assert_eq!(
            out.as_slice(),
            reference.as_slice(),
            "gram must be bit-identical at {t} threads"
        );
        c.bench_function(&format!("kernels/gram_1024x64/threads={t}"), |bench| {
            bench.iter(|| with_threads(t, || black_box(a.gram().get(0, 0))))
        });
    }
}

fn bench_clip_and_sum(c: &mut Criterion) {
    let grads = Matrix::from_fn(512, 2048, |i, j| ((i * 2048 + j) as f64 * 0.0007).sin());
    let reference = with_threads(1, || clip_and_sum_gradients(&grads, 1.0));
    for t in THREADS {
        let sum = with_threads(t, || clip_and_sum_gradients(&grads, 1.0));
        assert_eq!(
            sum, reference,
            "clip-and-sum must be bit-identical at {t} threads"
        );
        c.bench_function(
            &format!("kernels/clip_and_sum_512x2048/threads={t}"),
            |bench| {
                bench.iter(|| with_threads(t, || black_box(clip_and_sum_gradients(&grads, 1.0)[0])))
            },
        );
    }
}

fn bench_dpsgd_gradients(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4242);
    let mlp = Mlp::new(
        &mut rng,
        &[64, 128, 16],
        Activation::Relu,
        Activation::Identity,
    );
    let batch = 96;
    let x = Matrix::from_fn(batch, 64, |i, j| ((i * 64 + j) as f64 * 0.011).sin());
    let gouts = Matrix::from_fn(batch, 16, |i, j| ((i * 16 + j) as f64 * 0.017).cos());
    let kernel = |mlp: &Mlp, x: &Matrix, gouts: &Matrix| {
        let grads = mlp.per_example_gradients(x, gouts);
        clip_and_sum_gradients(&grads, 1.0)
    };
    let reference = with_threads(1, || kernel(&mlp, &x, &gouts));
    for t in THREADS {
        let sum = with_threads(t, || kernel(&mlp, &x, &gouts));
        assert_eq!(
            sum, reference,
            "per-example DP-SGD gradients must be bit-identical at {t} threads"
        );
        c.bench_function(&format!("kernels/dpsgd_grads_b96/threads={t}"), |bench| {
            bench.iter(|| with_threads(t, || black_box(kernel(&mlp, &x, &gouts)[0])))
        });
    }
}

fn bench_em_estep(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(777);
    let k = 5;
    let d = 16;
    let means = Matrix::from_fn(k, d, |i, j| ((i * d + j) as f64 * 0.37).sin());
    let model = Gmm::isotropic(vec![1.0; k], means, 0.5).unwrap();
    let data = model.sample_n(&mut rng, 4_000);
    let reference = with_threads(1, || model.responsibilities_batch(&data));
    for t in THREADS {
        let resp = with_threads(t, || model.responsibilities_batch(&data));
        assert_eq!(
            resp.as_slice(),
            reference.as_slice(),
            "EM E-step must be bit-identical at {t} threads"
        );
        c.bench_function(&format!("kernels/em_estep_n4000/threads={t}"), |bench| {
            bench.iter(|| {
                with_threads(t, || {
                    black_box(model.responsibilities_batch(&data).get(0, 0))
                })
            })
        });
    }
}

fn bench_em_log_densities(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(777);
    let k = 5;
    let d = 16;
    let means = Matrix::from_fn(k, d, |i, j| ((i * d + j) as f64 * 0.37).sin());
    let model = Gmm::isotropic(vec![1.0; k], means, 0.5).unwrap();
    let data = model.sample_n(&mut rng, 4_000);
    let reference = with_threads(1, || model.log_densities_batch(&data));
    for t in THREADS {
        let logs = with_threads(t, || model.log_densities_batch(&data));
        assert_eq!(
            logs.as_slice(),
            reference.as_slice(),
            "EM log densities must be bit-identical at {t} threads"
        );
        c.bench_function(&format!("kernels/em_logdens_n4000/threads={t}"), |bench| {
            bench.iter(|| with_threads(t, || black_box(model.log_densities_batch(&data).get(0, 0))))
        });
    }
}

/// A snapshot fitted to `data`'s prepared rows (scaled features and a
/// one-hot label) under `config`. Sampling cost depends on the trained
/// decoder, whose logits mostly saturate the sigmoid, so the served shapes
/// are fitted rather than freshly initialized.
fn fitted(data: &Dataset, config: PgmConfig) -> SynthesisSnapshot {
    let (_, prepared) =
        LabelledSynthesizer::prepare(&data.features, &data.labels, data.n_classes).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let (model, _) = PhasedGenerativeModel::fit(&mut rng, &prepared, config).unwrap();
    SynthesisSnapshot::capture(model)
}

fn bench_sample_rows(c: &mut Criterion) {
    // The two served shapes: a 512-row window (the server's stream chunk)
    // of an adult-like model, and an n = 64 request to the 206-column
    // MNIST-like model at `Scale::Paper`.
    let mut rng = StdRng::seed_from_u64(0xDA7A_5EED);
    let adult = p3gm_datasets::tabular::adult_like(&mut rng, 400);
    let adult = fitted(
        &adult,
        PgmConfig {
            latent_dim: 6,
            hidden_dim: 24,
            epochs: 2,
            batch_size: 64,
            ..PgmConfig::default()
        },
    );
    let scale = Scale::Paper;
    let mnist = p3gm_datasets::images::mnist_like(&mut rng, scale.n_images(), scale.image_size());
    let mnist = fitted(
        &mnist,
        PgmConfig {
            latent_dim: scale.latent_dim(),
            hidden_dim: scale.hidden_dim(),
            epochs: scale.epochs(),
            batch_size: scale.batch_size(),
            ..PgmConfig::default()
        },
    );
    for (shape, snapshot, rows) in [("adult_w512", &adult, 512), ("mnist_n64", &mnist, 64)] {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let reference = with_threads(1, || bits(&snapshot.sample_rows(7, 0, rows)));
        for t in THREADS {
            let out = with_threads(t, || bits(&snapshot.sample_rows(7, 0, rows)));
            assert_eq!(
                out, reference,
                "sample_rows must be bit-identical at {t} threads"
            );
            c.bench_function(
                &format!("kernels/sample_rows_{shape}/threads={t}"),
                |bench| {
                    bench.iter(|| {
                        with_threads(t, || black_box(snapshot.sample_rows(7, 0, rows).get(0, 0)))
                    })
                },
            );
        }
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_matmul, bench_gram, bench_clip_and_sum, bench_dpsgd_gradients,
        bench_em_estep, bench_em_log_densities, bench_sample_rows
}
criterion_main!(kernels);
