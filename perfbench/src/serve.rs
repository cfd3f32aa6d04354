//! Serve workloads: deploying trained snapshots behind a server, the
//! correctness gate, and the closed request loop.

use crate::client::{get_request, one_shot, sample_request, scrape, Client};
use crate::model::{check_stamp, train, Kind, TrainSet, Trained};
use crate::stats::{counter_delta, counter_sum};
use p3gm_core::snapshot::SnapshotHeader;
use p3gm_server::json::{self, Json};
use p3gm_server::{start, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests sent on one connection while a deployment warms up.
const WARM_UP_REQUESTS: usize = 16;
/// Latency samples one connection can record in one loop.
const MAX_SAMPLES: usize = 1 << 21;

/// The traffic a serve workload sends and the deployment it sends it to.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub kind: Kind,
    /// Model names served from the model directory.
    pub tenants: usize,
    /// Distinct trained models; tenant `t` serves model `t % distinct_models`.
    pub distinct_models: usize,
    /// Rows per sample request.
    pub rows: usize,
    pub csv: bool,
    /// Concurrent keep-alive client connections.
    pub connections: usize,
    /// Share of operations that are `GET /models` instead of a sample.
    pub list_share: f64,
    /// Resident-model budget, in models of the served size.
    pub resident_models: Option<u64>,
    /// Length of each connection's seeded operation cycle.
    pub ops_per_connection: usize,
}

/// A running server over freshly trained snapshots.
pub struct Deployment {
    pub server: ServerHandle,
    pub model_dir: PathBuf,
    pub ledger_dir: PathBuf,
    pub sets: Vec<TrainSet>,
    pub models: Vec<Trained>,
    pub tenants: Vec<String>,
    /// Wall time from data generation to a warmed-up server.
    pub setup_s: f64,
}

impl Deployment {
    pub fn model_of(&self, tenant: usize) -> &Trained {
        &self.models[tenant % self.models.len()]
    }
}

/// One operation of a connection's cycle.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Sample { tenant: usize, seed: u64 },
    List,
}

/// A connection's cycle with its request bytes and expected responses.
pub struct Plan {
    pub ops: Vec<Op>,
    pub requests: Vec<Vec<u8>>,
    /// The exact body each sample must return; `None` for listings.
    pub expected: Vec<Option<Arc<Vec<u8>>>>,
}

/// The JSON body of a sample request.
pub fn sample_body(spec: &ServeSpec, seed: u64) -> String {
    if spec.csv {
        format!(r#"{{"seed": {seed}, "n": {}, "format": "csv"}}"#, spec.rows)
    } else {
        format!(r#"{{"seed": {seed}, "n": {}}}"#, spec.rows)
    }
}

/// The seeded operation cycle of connection `conn`. Tenant popularity is
/// Zipf(s = 1) by rank, apportioned exactly (largest remainder) over the
/// cycle's samples, and listings make up exactly `list_share` of it; the
/// workload seed picks the order and every request seed, so every seed
/// sends the same mix.
pub fn schedule(spec: &ServeSpec, seed: u64, conn: usize) -> Vec<Op> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let lists = (spec.ops_per_connection as f64 * spec.list_share).round() as usize;
    let samples = spec.ops_per_connection - lists;
    let harmonic: f64 = (1..=spec.tenants).map(|rank| 1.0 / rank as f64).sum();
    let quotas: Vec<f64> = (1..=spec.tenants)
        .map(|rank| samples as f64 / (rank as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..spec.tenants).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = samples - counts.iter().sum::<usize>();
    for &tenant in &by_remainder[..short] {
        counts[tenant] += 1;
    }
    let mut ops: Vec<Op> = counts
        .iter()
        .enumerate()
        .flat_map(|(tenant, &count)| std::iter::repeat_n(Op::Sample { tenant, seed: 0 }, count))
        .chain(std::iter::repeat_n(Op::List, lists))
        .collect();
    ops.shuffle(&mut rng);
    for op in &mut ops {
        if let Op::Sample { seed, .. } = op {
            *seed = rng.gen_range(0..1u64 << 32);
        }
    }
    ops
}

fn request_for(spec: &ServeSpec, tenants: &[String], op: Op) -> Vec<u8> {
    match op {
        Op::Sample { tenant, seed } => sample_request(&tenants[tenant], &sample_body(spec, seed)),
        Op::List => get_request("/models"),
    }
}

/// The body the server must send for `seed`, built in-process from
/// `sample_rows` and the `Json` serializer (or std float formatting for
/// CSV).
pub fn reference_body(trained: &Trained, name: &str, seed: u64, rows: usize, csv: bool) -> Vec<u8> {
    let sample = trained.snapshot.sample_rows(seed, 0, rows);
    if csv {
        let mut out = String::new();
        for row in sample.row_iter() {
            let line: Vec<String> = row.iter().map(f64::to_string).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out.into_bytes()
    } else {
        rows_json(name, seed, &sample).to_string().into_bytes()
    }
}

/// The response document for sampled rows, as the server builds it.
pub fn rows_json(name: &str, seed: u64, sample: &p3gm_linalg::Matrix) -> Json {
    let rows = sample
        .row_iter()
        .map(|row| Json::Arr(row.iter().map(|&v| Json::Num(v)).collect()))
        .collect();
    Json::Obj(vec![
        ("model".to_string(), Json::str(name)),
        ("seed".to_string(), Json::Num(seed as f64)),
        ("n".to_string(), Json::Num(sample.rows() as f64)),
        ("rows".to_string(), Json::Arr(rows)),
    ])
}

/// Generates the training data, trains every distinct model, writes the
/// model directory, starts the server and warms it up.
pub fn deploy(spec: &ServeSpec, seed: u64, dir: &Path) -> Result<Deployment, String> {
    let start_time = Instant::now();
    let model_dir = dir.join("models");
    let ledger_dir = dir.join("ledger");
    for d in [&model_dir, &ledger_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let mut sets = Vec::with_capacity(spec.distinct_models);
    let mut models = Vec::with_capacity(spec.distinct_models);
    for m in 0..spec.distinct_models as u64 {
        let set = TrainSet::generate(spec.kind, m)?;
        models.push(train(&set, m)?);
        sets.push(set);
    }
    let tenants: Vec<String> = match (spec.tenants, spec.kind) {
        (1, Kind::Adult) => vec!["adult".to_string()],
        (1, Kind::Mnist) => vec!["mnist".to_string()],
        (n, _) => (0..n).map(|t| format!("tenant-{t:02}")).collect(),
    };
    for (t, name) in tenants.iter().enumerate() {
        let path = model_dir.join(format!("{name}.snapshot"));
        std::fs::write(&path, &models[t % models.len()].bytes)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let model_bytes = SnapshotHeader::peek(&models[0].bytes)
        .map_err(|e| format!("peek: {e}"))?
        .approx_resident_bytes();
    let server = start(
        ServerConfig::builder(&model_dir)
            .threads(2)
            .ledger_path(None)
            .max_resident_bytes(spec.resident_models.map(|k| k * model_bytes))
            .max_requests_per_connection(usize::MAX)
            .keep_alive_timeout(Duration::from_secs(120))
            .build(),
    )
    .map_err(|e| format!("start server: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for op in schedule(spec, seed, 0).into_iter().take(WARM_UP_REQUESTS) {
        let status = client
            .send(&request_for(spec, &tenants, op))
            .map_err(|e| format!("warm-up: {e}"))?
            .response
            .status;
        if status != 200 {
            return Err(format!("warm-up request answered {status}"));
        }
    }
    Ok(Deployment {
        server,
        model_dir,
        ledger_dir,
        sets,
        models,
        tenants,
        setup_s: start_time.elapsed().as_secs_f64(),
    })
}

/// Every connection's cycle, with reference bodies computed in-process.
pub fn plans(spec: &ServeSpec, dep: &Deployment, seed: u64) -> Vec<Plan> {
    let mut references: BTreeMap<(usize, u64), Arc<Vec<u8>>> = BTreeMap::new();
    (0..spec.connections)
        .map(|conn| {
            let ops = schedule(spec, seed, conn);
            let requests = ops
                .iter()
                .map(|&op| request_for(spec, &dep.tenants, op))
                .collect();
            let expected = ops
                .iter()
                .map(|&op| match op {
                    Op::Sample { tenant, seed } => Some(Arc::clone(
                        references.entry((tenant, seed)).or_insert_with(|| {
                            Arc::new(reference_body(
                                dep.model_of(tenant),
                                &dep.tenants[tenant],
                                seed,
                                spec.rows,
                                spec.csv,
                            ))
                        }),
                    )),
                    Op::List => None,
                })
                .collect();
            Plan {
                ops,
                requests,
                expected,
            }
        })
        .collect()
}

/// The correctness gate, run before anything is timed: stamps equal the
/// accountant's, and sample bodies are byte-identical on fresh and
/// keep-alive connections and to the in-process reference.
pub fn gate(dep: &Deployment, plans: &[Plan]) -> Result<(), String> {
    for (set, trained) in dep.sets.iter().zip(&dep.models) {
        check_stamp(set, trained)?;
    }
    let addr = dep.server.addr();
    for plan in plans {
        let mut keep_alive = Client::connect(addr).map_err(|e| format!("gate connect: {e}"))?;
        for (i, request) in plan.requests.iter().enumerate().take(4) {
            let fresh = one_shot(addr, request).map_err(|e| format!("gate request: {e}"))?;
            let reused = keep_alive
                .send(request)
                .map_err(|e| format!("gate request: {e}"))?
                .response;
            for (how, response) in [("fresh", &fresh), ("keep-alive", &reused)] {
                if response.status != 200 {
                    return Err(format!("gate: {how} request answered {}", response.status));
                }
            }
            match &plan.expected[i] {
                Some(expected) => {
                    if fresh.body != **expected || reused.body != **expected {
                        return Err(format!(
                            "gate: {:?} body differs from the in-process reference \
                             (fresh {} bytes, keep-alive {} bytes, reference {} bytes)",
                            plan.ops[i],
                            fresh.body.len(),
                            reused.body.len(),
                            expected.len()
                        ));
                    }
                }
                None => {
                    let listed = std::str::from_utf8(&reused.body)
                        .ok()
                        .and_then(|text| json::parse(text).ok())
                        .and_then(|doc| {
                            doc.get("models")
                                .and_then(|m| m.as_arr())
                                .map(<[Json]>::len)
                        });
                    if listed != Some(dep.tenants.len()) {
                        return Err(format!(
                            "gate: GET /models listed {listed:?} of {} models",
                            dep.tenants.len()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Server counters read from `/metrics` around a timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deltas {
    pub requests: f64,
    pub non_ok: f64,
    pub wakeups: f64,
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
}

impl Deltas {
    fn between(before: &str, after: &str) -> Result<Deltas, String> {
        let delta = |name: &str, filter: &[(&str, &str)]| {
            counter_delta(
                counter_sum(before, name, filter),
                counter_sum(after, name, filter),
            )
            .map_err(|e| format!("{name}: {e}"))
        };
        let requests = delta("p3gm_requests_total", &[])?;
        Ok(Deltas {
            requests,
            non_ok: requests - delta("p3gm_requests_total", &[("status", "200")])?,
            wakeups: delta("p3gm_reactor_wakeups_total", &[])?,
            hits: delta("p3gm_registry_hits_total", &[])?,
            misses: delta("p3gm_registry_misses_total", &[])?,
            evictions: delta("p3gm_registry_evictions_total", &[])?,
        })
    }
}

/// What one closed loop saw from the client side, plus the server's view.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub latencies_us: Vec<f64>,
    pub ttfbs_us: Vec<f64>,
    pub attempted: u64,
    /// Attempts that got no 200 response (status or I/O error).
    pub failed: u64,
    /// Attempts answered with a status other than 200.
    pub non_ok: u64,
    /// 200 responses whose body was not the expected one.
    pub mismatched: u64,
    pub ok: u64,
    /// De-framed body bytes of the 200 responses.
    pub body_bytes: u64,
    pub elapsed_s: f64,
    pub server: Deltas,
}

impl LoopStats {
    /// The client-side counts and samples of several loops together.
    pub fn merged(parts: &[&LoopStats]) -> LoopStats {
        let samples = parts.iter().map(|p| p.latencies_us.len()).sum();
        let mut total = LoopStats {
            latencies_us: Vec::with_capacity(samples),
            ttfbs_us: Vec::with_capacity(samples),
            ..LoopStats::default()
        };
        for part in parts {
            total.latencies_us.extend_from_slice(&part.latencies_us);
            total.ttfbs_us.extend_from_slice(&part.ttfbs_us);
            total.attempted += part.attempted;
            total.failed += part.failed;
            total.non_ok += part.non_ok;
            total.mismatched += part.mismatched;
            total.ok += part.ok;
            total.body_bytes += part.body_bytes;
            total.elapsed_s += part.elapsed_s;
        }
        total
    }

    /// Client and server must agree on what happened: every attempt is
    /// one request in `p3gm_requests_total` (plus the opening scrape,
    /// which the server counts after rendering it), and both sides count
    /// the same non-200 responses.
    pub fn cross_check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.server.requests != self.attempted as f64 + 1.0 {
            problems.push(format!(
                "client attempted {} requests but the server counted {} (minus one scrape)",
                self.attempted,
                self.server.requests - 1.0
            ));
        }
        if self.server.non_ok != self.non_ok as f64 {
            problems.push(format!(
                "client saw {} non-200 responses, the server counted {}",
                self.non_ok, self.server.non_ok
            ));
        }
        if self.mismatched > 0 {
            problems.push(format!(
                "{} response bodies differed from the reference",
                self.mismatched
            ));
        }
        problems
    }
}

/// Runs every plan on its own keep-alive connection, each sending its
/// next request only after the previous response completed, for
/// `duration`.
pub fn closed_loop(
    dep: &Deployment,
    plans: &[Plan],
    duration: Duration,
) -> Result<LoopStats, String> {
    let addr = dep.server.addr();
    let before = scrape(addr).map_err(|e| format!("scrape: {e}"))?;
    let start_time = Instant::now();
    let deadline = start_time + duration;
    let per_connection: Vec<LoopStats> = std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| s.spawn(move || connection_loop(addr, plan, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Result<_, _>>()
    })?;
    let elapsed_s = start_time.elapsed().as_secs_f64();
    let after = scrape(addr).map_err(|e| format!("scrape: {e}"))?;
    Ok(LoopStats {
        elapsed_s,
        server: Deltas::between(&before, &after)?,
        ..LoopStats::merged(&per_connection.iter().collect::<Vec<_>>())
    })
}

fn connection_loop(
    addr: std::net::SocketAddr,
    plan: &Plan,
    deadline: Instant,
) -> Result<LoopStats, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Reserved up front so the sample buffers grow page by page with the
    // request count instead of doubling, which would step peak RSS.
    let mut stats = LoopStats {
        latencies_us: Vec::with_capacity(MAX_SAMPLES),
        ttfbs_us: Vec::with_capacity(MAX_SAMPLES),
        ..LoopStats::default()
    };
    let mut i = 0;
    while Instant::now() < deadline && stats.attempted < MAX_SAMPLES as u64 {
        let k = i % plan.ops.len();
        i += 1;
        stats.attempted += 1;
        let timed = match client.send(&plan.requests[k]) {
            Ok(timed) => timed,
            Err(_) => {
                // The framing of this connection is lost; stop using it.
                stats.failed += 1;
                break;
            }
        };
        if timed.response.status != 200 {
            stats.failed += 1;
            stats.non_ok += 1;
            continue;
        }
        let body_ok = match &plan.expected[k] {
            Some(expected) => timed.response.body == **expected,
            None => timed.response.body.starts_with(b"{\"models\":["),
        };
        if !body_ok {
            stats.mismatched += 1;
        }
        stats.ok += 1;
        stats.body_bytes += timed.response.body.len() as u64;
        stats.latencies_us.push(timed.latency.as_secs_f64() * 1e6);
        stats.ttfbs_us.push(timed.ttfb.as_secs_f64() * 1e6);
    }
    Ok(stats)
}
