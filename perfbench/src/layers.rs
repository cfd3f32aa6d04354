//! Per-layer timings for the traced run: each layer's public function is
//! called from outside on exactly the inputs its workload generated.

use crate::model::TrainSet;
use crate::serve::{rows_json, sample_body, Deployment, LoopStats, Op, Plan, ServeSpec};
use crate::stats::{median, ratio};
use p3gm_core::PhasedGenerativeModel;
use p3gm_linalg::stats::{column_means, covariance_matrix};
use p3gm_linalg::SymmetricEigen;
use p3gm_mixture::dpem::{self, DpEmConfig};
use p3gm_nn::{Activation, Adam, DpSgdConfig, Mlp};
use p3gm_preprocess::DpPca;
use p3gm_privacy::mechanisms::clip_and_sum_gradients;
use p3gm_server::http::{Limits, RequestReader, Response};
use p3gm_server::json;
use p3gm_server::ledger::BudgetLedger;
use p3gm_server::registry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest timed samples behind any layer median.
const MIN_SAMPLES: usize = 3;
/// Calls batched into one sample for fast layers, so timer reads stay a
/// negligible share of what is measured.
const SAMPLE_TARGET: Duration = Duration::from_micros(200);
/// Tenants pre-charged into the durable-ledger probe file.
const LEDGER_ENTRIES: usize = 64;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Median of timed samples, taken until `budget` is spent (at least
/// [`MIN_SAMPLES`]). `once` times one sample itself, so per-sample set-up
/// stays outside the measurement.
fn sample(
    budget: Duration,
    mut once: impl FnMut() -> Result<Duration, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed() < budget {
        samples.push(once()?.as_secs_f64());
    }
    median(&samples).ok_or_else(|| "no samples".to_string())
}

/// Median seconds per call of `f`, batching fast calls.
fn per_call(budget: Duration, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let probe = Instant::now();
    f()?;
    let one = probe.elapsed().as_nanos().max(1);
    let batch = (SAMPLE_TARGET.as_nanos() / one).clamp(1, 10_000) as u32;
    sample(budget, || {
        let t = Instant::now();
        for _ in 0..batch {
            f()?;
        }
        Ok(t.elapsed() / batch)
    })
}

/// Prefixes an error with what failed.
fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<Duration, String> {
    let t = Instant::now();
    black_box(f()?);
    Ok(t.elapsed())
}

/// The request-path layers of a serve workload, plus the ratios from the
/// traced loop and the latency those layers leave unexplained.
pub fn serve_layers(
    spec: &ServeSpec,
    dep: &Deployment,
    plan: &Plan,
    traced: &LoopStats,
    budget: Duration,
) -> Result<Vec<Metric>, String> {
    let us = |seconds: f64| seconds * 1e6;
    let (index, tenant, seed) = plan
        .ops
        .iter()
        .enumerate()
        .find_map(|(i, op)| match *op {
            Op::Sample { tenant, seed } => Some((i, tenant, seed)),
            Op::List => None,
        })
        .ok_or("the plan has no sample request")?;
    let name = dep.tenants[tenant].as_str();
    let request = &plan.requests[index];
    let body = sample_body(spec, seed);
    let snapshot = &dep.model_of(tenant).snapshot;
    let limits = Limits::default();

    let parse = us(per_call(budget, || {
        black_box(
            RequestReader::new(&request[..])
                .next_request(&limits)
                .map_err(ctx("parse"))?,
        );
        Ok(())
    })?);
    let json_parse = us(per_call(budget, || {
        black_box(json::parse(&body).map_err(ctx("json"))?);
        Ok(())
    })?);

    let rows64 = snapshot.sample_rows(seed, 0, 64);
    let document = rows_json(name, seed, &rows64);
    let serialize = us(per_call(budget, || {
        black_box(document.to_string());
        Ok(())
    })?);
    let stamp = snapshot
        .privacy_stamp()
        .map_or("non-private".to_string(), ToString::to_string);
    let mut response = Response::json(200, &document)
        .with_header("x-p3gm-privacy", stamp)
        .with_header("x-p3gm-epsilon-spent", "1")
        .with_header("x-p3gm-epsilon-remaining", "unlimited");
    let mut wire = Vec::new();
    let write = us(per_call(budget, || {
        wire.clear();
        response.write_to(&mut wire, true).map_err(ctx("write"))
    })?);

    let (registry, _) = Registry::open(&dep.model_dir).map_err(ctx("registry"))?;
    registry.get(name).map_err(ctx("registry get"))?;
    let get_hit = us(per_call(budget, || {
        black_box(registry.get(name).map_err(ctx("registry get"))?);
        Ok(())
    })?);
    let mut next = 0;
    let get_miss = us(sample(budget, || {
        // A fresh registry holds headers only: the get pays the full
        // checksummed decode.
        let (cold, _) = Registry::open(&dep.model_dir).map_err(ctx("registry"))?;
        let tenant = &dep.tenants[next % dep.tenants.len()];
        next += 1;
        timed(|| cold.get(tenant).map_err(ctx("registry get")))
    })?);

    let (epsilon, delta) = snapshot
        .privacy_stamp()
        .map_or((0.0, 0.0), |s| (s.epsilon, s.delta));
    let mut memory = BudgetLedger::in_memory(None);
    let charge_mem = us(per_call(budget, || {
        black_box(memory.charge(name, epsilon, delta).map_err(ctx("charge"))?);
        Ok(())
    })?);
    let probe = dep.ledger_dir.join("probe.p3gm");
    let mut durable = BudgetLedger::open(&probe, None).map_err(ctx("ledger"))?;
    for t in 0..LEDGER_ENTRIES {
        durable
            .charge(&format!("tenant-{t:02}"), epsilon, delta)
            .map_err(ctx("charge"))?;
    }
    let charge_durable = us(sample(budget, || {
        timed(|| durable.charge(name, epsilon, delta).map_err(ctx("charge")))
    })?);

    let sample_n64 = us(per_call(budget, || {
        black_box(snapshot.sample_rows(seed, 0, 64));
        Ok(())
    })?);
    let sample_n4096 = us(per_call(budget, || {
        black_box(snapshot.sample_rows(seed, 0, 4096));
        Ok(())
    })?);

    // The layers one sample request of this workload passes through.
    let server = traced.server;
    let miss_ratio = ratio(
        server.misses,
        server.hits + server.misses,
        "registry lookups",
    )?;
    let mut path = parse
        + json_parse
        + (1.0 - miss_ratio) * get_hit
        + miss_ratio * get_miss
        + charge_mem
        + if spec.rows == 64 {
            sample_n64
        } else {
            sample_n4096
        };
    if !spec.csv && spec.rows == 64 {
        path += serialize + write;
    }
    let traced_p50 = median(&traced.latencies_us).ok_or("traced loop completed no request")?;

    Ok(vec![
        ("http.parse_us", parse, "us"),
        ("json.parse_us", json_parse, "us"),
        ("json.serialize_n64_us", serialize, "us"),
        ("http.write_us", write, "us"),
        ("registry.get_hit_us", get_hit, "us"),
        ("registry.get_miss_us", get_miss, "us"),
        ("registry.miss_ratio", miss_ratio, "ratio"),
        (
            "registry.evictions_per_req",
            ratio(server.evictions, traced.attempted as f64, "requests")?,
            "1/req",
        ),
        ("ledger.charge_mem_us", charge_mem, "us"),
        ("ledger.charge_durable_us", charge_durable, "us"),
        ("snapshot.sample_rows_n64_us", sample_n64, "us"),
        ("snapshot.sample_rows_n4096_us", sample_n4096, "us"),
        (
            "reactor.wakeups_per_req",
            ratio(server.wakeups, server.requests, "requests")?,
            "1/req",
        ),
        ("serve.unattributed_us", traced_p50 - path, "us"),
    ])
}

/// The training layers, on the workload's own training set.
pub fn train_layers(set: &TrainSet, seed: u64, budget: Duration) -> Result<Vec<Metric>, String> {
    let cfg = &set.config;
    let data = &set.prepared;
    let (n, d) = (data.rows(), data.cols());
    let mut rng = StdRng::seed_from_u64(seed);

    // The Encoding Phase's input: rows scaled into the unit ball.
    let scaled = data.scale(1.0 / (d as f64).sqrt());
    let dp_pca = sample(budget, || {
        timed(|| DpPca::fit(&mut rng, &scaled, cfg.latent_dim, cfg.eps_p).map_err(ctx("dp-pca")))
    })?;
    let means = column_means(&scaled).map_err(ctx("means"))?;
    let covariance = covariance_matrix(&scaled, Some(&means)).map_err(ctx("cov"))?;
    let eigen = per_call(budget, || {
        black_box(SymmetricEigen::new(&covariance).map_err(ctx("eigen"))?);
        Ok(())
    })?;
    let projection =
        DpPca::fit(&mut rng, &scaled, cfg.latent_dim, cfg.eps_p).map_err(ctx("dp-pca"))?;
    let projected = projection.transform(&scaled).map_err(ctx("project"))?;
    let em_config = DpEmConfig {
        n_components: cfg.mog_components,
        iterations: cfg.em_iterations,
        sigma_e: cfg.sigma_e,
        covariance_regularization: 1e-4,
        clip_norm: 1.0,
    };
    let dp_em = sample(budget, || {
        timed(|| dpem::fit(&mut rng, &projected, &em_config).map_err(ctx("dp-em")))
    })?;
    let encode = sample(budget, || {
        timed(|| {
            PhasedGenerativeModel::encode_phase(&mut rng, data, cfg.clone()).map_err(ctx("encode"))
        })
    })?;
    let mut model =
        PhasedGenerativeModel::encode_phase(&mut rng, data, cfg.clone()).map_err(ctx("encode"))?;
    let epoch = sample(budget, || {
        timed(|| model.train_epoch(&mut rng, data).map_err(ctx("epoch")))
    })?;

    // One lot of per-example gradients at the model's shapes: the
    // encoder-variance network and the decoder, `batch` rows each.
    let batch = cfg.batch_size.min(n);
    let lot: Vec<usize> = (0..batch).collect();
    let x = data.select_rows(&lot).map_err(ctx("lot"))?;
    let z = projected.select_rows(&lot).map_err(ctx("lot"))?;
    let decoder = Mlp::new(
        &mut rng,
        &[cfg.latent_dim, cfg.hidden_dim, d],
        Activation::Relu,
        Activation::Identity,
    );
    let encoder = Mlp::new(
        &mut rng,
        &[d, cfg.hidden_dim, cfg.latent_dim],
        Activation::Relu,
        Activation::Identity,
    );
    // Bernoulli-loss gradient at zero logits.
    let grad_out = x.map(|v| 0.5 - v);
    let grads_ms = per_call(budget, || {
        black_box(decoder.per_example_gradients(&z, &grad_out));
        Ok(())
    })?;
    let grads = encoder
        .per_example_gradients(&x, &z)
        .hstack(&decoder.per_example_gradients(&z, &grad_out))
        .map_err(ctx("gradients"))?;
    let clip = per_call(budget, || {
        black_box(clip_and_sum_gradients(&grads, cfg.clip_norm));
        Ok(())
    })?;
    let dp_sgd = DpSgdConfig {
        clip_norm: cfg.clip_norm,
        noise_multiplier: cfg.sigma_s,
        batch_size: batch,
    };
    let mut params = [encoder.params(), decoder.params()].concat();
    let mut adam = Adam::new(cfg.learning_rate);
    let step = per_call(budget, || {
        black_box(
            dp_sgd
                .step(&mut rng, &grads, &mut params, &mut adam)
                .map_err(ctx("dp-sgd step"))?,
        );
        Ok(())
    })?;

    Ok(vec![
        ("preprocess.dp_pca_s", dp_pca, "s"),
        ("linalg.eigen_ms", eigen * 1e3, "ms"),
        ("mixture.dp_em_s", dp_em, "s"),
        ("core.encode_phase_s", encode, "s"),
        ("core.train_epoch_s", epoch, "s"),
        ("nn.per_example_grads_ms", grads_ms * 1e3, "ms"),
        ("privacy.clip_and_sum_ms", clip * 1e3, "ms"),
        ("nn.dpsgd_step_ms", step * 1e3, "ms"),
    ])
}
