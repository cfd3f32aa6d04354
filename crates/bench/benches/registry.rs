//! Startup-time and resident-footprint benchmarks for the lazy model
//! registry over a directory of 1000 small tenant snapshots:
//!
//! * **lazy open** — the production path: every file's header is peeked
//!   (leading frames only: geometry + recomputed privacy stamp), zero
//!   weight payloads decoded;
//! * **eager open** — the pre-lazy baseline, reconstructed by opening
//!   and then forcing every model's full checksummed decode through
//!   `get`, the work the old registry did inside `open`;
//! * **budgeted serving** — with `max_resident_bytes` sized to hold ~10
//!   models, draws samples across many tenants and reports the
//!   eviction-churned residency.
//!
//! Before timing, the bench asserts the acceptance property: under a
//! ~10-model budget the sampled bytes for any tenant are bit-identical
//! to eager-load serving, and a 1k directory lists all 1000 models
//! having decoded nothing. Results are recorded in
//! `BENCH_registry.json` at the repository root.
//!
//! ```text
//! cargo bench -p p3gm-bench --bench registry
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use p3gm_core::config::PgmConfig;
use p3gm_core::pgm::PhasedGenerativeModel;
use p3gm_core::snapshot::{SnapshotHeader, SynthesisSnapshot};
use p3gm_core::synthesis::LabelledSynthesizer;
use p3gm_linalg::Matrix;
use p3gm_server::registry::{Registry, RegistryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const TENANTS: usize = 1000;

/// Trains one small model and replicates its snapshot under `TENANTS`
/// tenant names — the "thousands of tenants per node" directory shape.
fn prepare_tenant_dir() -> (PathBuf, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(77);
    let rows: Vec<Vec<f64>> = (0..60)
        .map(|_| (0..6).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
    let features = Matrix::from_rows(&rows).expect("features");
    let (synth, prepared) = LabelledSynthesizer::prepare(&features, &labels, 2).expect("prepare");
    let config = PgmConfig {
        latent_dim: 4,
        hidden_dim: 16,
        epochs: 2,
        batch_size: 16,
        ..PgmConfig::default()
    };
    let (model, _) = PhasedGenerativeModel::fit(&mut rng, &prepared, config).expect("train");
    let snapshot = SynthesisSnapshot::capture(model).with_synthesizer(synth);
    let bytes = snapshot.to_bytes();

    let dir = std::env::temp_dir().join(format!("p3gm_bench_registry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    for i in 0..TENANTS {
        std::fs::write(dir.join(format!("tenant-{i:04}.snapshot")), &bytes)
            .expect("write snapshot");
    }
    (dir, bytes)
}

fn lazy_open(dir: &PathBuf, budget: Option<u64>) -> Registry {
    let (registry, report) = Registry::open_with(
        dir,
        RegistryConfig {
            max_resident_bytes: budget,
            load_wait: Duration::from_secs(30),
        },
    )
    .expect("open registry");
    assert_eq!(report.loaded.len(), TENANTS, "{:?}", report.failed);
    registry
}

/// The pre-lazy baseline: registering every tenant AND decoding every
/// weight payload, the work the eager registry did inside `open`.
fn eager_open(dir: &PathBuf) -> Registry {
    let registry = lazy_open(dir, None);
    for header in registry.list_headers() {
        let _ = registry.get(header.name()).expect("eager decode");
    }
    registry
}

fn bench_registry(c: &mut Criterion) {
    let (dir, bytes) = prepare_tenant_dir();
    let per_model = SnapshotHeader::peek(&bytes)
        .expect("peek")
        .approx_resident_bytes();

    // Acceptance gates, asserted before timing.
    //
    // 1. A 1k-tenant directory starts up decoding zero weight payloads
    //    and lists all 1000 models from headers alone.
    let t0 = Instant::now();
    let lazy = lazy_open(&dir, Some(10 * per_model));
    let lazy_startup = t0.elapsed();
    let stats = lazy.stats();
    assert_eq!(stats.models, TENANTS as u64);
    assert_eq!(lazy.list_headers().len(), TENANTS);
    assert_eq!(
        (stats.loads, stats.resident_bytes),
        (0, 0),
        "lazy startup must decode nothing"
    );

    // 2. Under the ~10-model budget, sampled bytes stay bit-identical
    //    to eager-load serving, across enough tenants to churn through
    //    several evictions.
    let t0 = Instant::now();
    let eager = eager_open(&dir);
    let eager_startup = t0.elapsed();
    let eager_stats = eager.stats();
    assert_eq!(eager_stats.loads, TENANTS as u64);
    for i in (0..TENANTS).step_by(40) {
        let name = format!("tenant-{i:04}");
        let budgeted = lazy.get(&name).expect("budgeted get");
        let full = eager.get(&name).expect("eager get");
        let (a, b) = (budgeted.sample_rows(9, 0, 32), full.sample_rows(9, 0, 32));
        assert_eq!(a.as_slice(), b.as_slice(), "bytes must match for {name}");
    }
    let stats = lazy.stats();
    assert!(stats.evictions > 0, "25 tenants through a 10-model budget");
    assert!(
        stats.resident_bytes <= 10 * per_model,
        "residency within budget: {stats:?}"
    );
    println!(
        "registry/startup_1k: lazy {:.1} ms ({} bytes resident) vs eager {:.1} ms ({} bytes resident); \
         per-model cost {per_model} bytes; budgeted serving made {} loads / {} evictions",
        lazy_startup.as_secs_f64() * 1000.0,
        0,
        eager_startup.as_secs_f64() * 1000.0,
        eager_stats.resident_bytes,
        stats.loads,
        stats.evictions,
    );
    drop(lazy);
    drop(eager);

    c.bench_function("registry/lazy_open_1k", |bench| {
        bench.iter(|| black_box(lazy_open(&dir, None).len()))
    });
    c.bench_function("registry/eager_open_1k", |bench| {
        bench.iter(|| black_box(eager_open(&dir).len()))
    });

    let _ = std::fs::remove_dir_all(&dir);
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

criterion_group! {
    name = registry;
    config = config();
    targets = bench_registry
}
criterion_main!(registry);
