//! # p3gm-server
//!
//! A std-only HTTP/1.1 synthesis service over [`std::net::TcpListener`]
//! that serves `SynthesisSnapshot` files: the network-facing layer that
//! turns P3GM's train-once/sample-forever deployment story into a
//! multi-model service, with the (ε, δ) stamp attached to every response
//! the way the paper attaches it to every release.
//!
//! Four pieces:
//!
//! * a **model registry** ([`registry`]) that registers named snapshots
//!   from a directory by peeking their headers (geometry + privacy stamp,
//!   no weight payload), decodes weights lazily on first request through
//!   `p3gm-store` typed errors with single-flight de-duplication, evicts
//!   least-recently-used models under a resident-bytes budget, swaps
//!   entries atomically behind `Arc` handles, and hot-reloads changed
//!   files without dropping in-flight requests;
//! * a **request layer** — a hand-rolled JSON value module ([`json`]) and
//!   a strict HTTP parser ([`http`]) that reject malformed input with 4xx
//!   responses and never panic on untrusted bytes; connections are
//!   persistent (HTTP/1.1 keep-alive with `Connection` header semantics,
//!   a bounded number of requests per connection, an idle timeout between
//!   requests, and an absolute per-request read deadline so a stalled or
//!   byte-trickling client gets a typed 408). One **reactor** thread
//!   multiplexes every socket over `poll(2)` readiness and hands parsed
//!   requests to executor workers that run synthesis; response writes
//!   are resumable, so a slow reader parks its socket rather than a
//!   thread, and concurrent keep-alive connections scale to the fd limit;
//! * a **streaming synthesis executor**: `POST /models/{name}/sample`
//!   generates rows through the core's random-access sampler
//!   (`SynthesisSnapshot::sample_rows`) and streams them as RFC 7230
//!   chunked `Transfer-Encoding`, so first-byte latency and peak memory
//!   are bounded by the chunk size, not `n`. Every sample body, JSON or
//!   CSV, plain or labelled, comes from one chunk writer; labelled and
//!   HTTP/1.0 bodies are that stream drained into a `Content-Length`
//!   body, so the de-chunked bytes per (model, seed, n) never depend on
//!   the framing and match in-process `sample(seed, n)`;
//! * a **privacy budget ledger** ([`ledger`]) tracking cumulative ε per
//!   model, refusing requests with 429 once a configurable budget is
//!   exhausted, persisted through the `p3gm-store` codec so restarts
//!   cannot reset spent budget. Each streamed response is charged exactly
//!   once, before its first chunk — a client aborting mid-stream has
//!   still spent the release's ε (the rows it already received are a
//!   release), never more.
//!
//! ## Endpoints
//!
//! | Method | Path                    | Purpose                                        |
//! |--------|-------------------------|------------------------------------------------|
//! | GET    | `/`                     | Service overview and endpoint list             |
//! | GET    | `/healthz`              | Liveness + model count                         |
//! | GET    | `/models`               | All models: geometry, privacy stamp, budget    |
//! | GET    | `/models/{name}`        | One model's geometry, stamp and budget         |
//! | GET    | `/stats`                | Registry residency and eviction counters       |
//! | GET    | `/metrics`              | Prometheus text exposition (see below)         |
//! | POST   | `/models/{name}/sample` | Draw rows: `{"seed", "n", "labels"?, "format"?}` |
//! | POST   | `/reload`               | Rescan the snapshot directory (hot reload)     |
//!
//! ## Observability
//!
//! With [`ServerConfig::obs`] metrics enabled (the default), the server
//! keeps a `p3gm-obs` [`p3gm_obs::MetricsRegistry`] — request counts and
//! latency by route and status, in-flight gauge, keep-alive reuse,
//! chunked-stream first-byte latency and bytes, the model registry's
//! residency counters, per-model `p3gm_epsilon_spent` /
//! `p3gm_epsilon_remaining` gauges, and the monotone
//! `p3gm_budget_denials_total` 429 counter — and serves it as Prometheus
//! text on `GET /metrics`. An optional structured access log (off by
//! default) writes one line per request. Telemetry is pure
//! post-processing: nothing in it feeds back into sampling or the (ε, δ)
//! accounting, and none of it is persisted.
//!
//! Model listings and details are served from **peeked snapshot
//! headers**; weight payloads decode lazily on a model's first sampling
//! request and are evicted least-recently-used under the configured
//! [`ServerConfig::max_resident_bytes`] ceiling (see [`registry`]).
//!
//! Sampling is deterministic per `(model, seed, n)`: every delivery path
//! consumes the core's canonical per-seed-block sample stream, and the
//! body writer is deterministic — the same request always yields the
//! same de-framed bytes, from any replica, under any concurrency, chunk
//! framing or thread count. The varying budget state travels in
//! `x-p3gm-epsilon-*` response headers, never in the body.
//!
//! The crate is Unix-only: the reactor waits on `poll(2)`. On other
//! targets it compiles to nothing, so the rest of the workspace still
//! builds there.

#![cfg(unix)]
// `deny`, not `forbid`: conform rule D5 sanctions exactly one file-level
// `#![allow(unsafe_code)]` — the `poll(2)` FFI shim in `sys.rs` — and a
// `forbid` here would reject that override. Every other file in this
// crate remains unsafe-free, and conform verifies that token-by-token.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod ledger;
mod metrics;
mod reactor;
pub mod registry;
mod sys;

use http::{Limits, Method, Request, Response};
use json::Json;
use ledger::{BudgetLedger, LedgerError};
use metrics::ServerMetrics;
use p3gm_linalg::Matrix;
use p3gm_obs::{AccessLogger, ObsConfig};
use p3gm_privacy::rdp::PrivacySpec;
use registry::{Registry, RegistryConfig, RegistryError};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Rows per streamed response chunk. A multiple of the core stream's
/// [`p3gm_core::snapshot::SEED_BLOCK_ROWS`], so chunk boundaries align
/// with seed blocks and streaming regenerates nothing; peak memory per
/// in-flight response is one chunk of rows, never the full batch.
const STREAM_CHUNK_ROWS: usize = 512;

/// Configuration of one [`start`]ed server.
///
/// Construct through [`ServerConfig::builder`] — the struct is
/// `#[non_exhaustive]`, so struct-literal construction (including
/// `..Default`-style update syntax) no longer compiles outside this
/// crate, and new knobs can be added without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Executor threads that route requests and write responses; the
    /// reactor adds one I/O thread of its own.
    pub threads: usize,
    /// Directory of `*.snapshot` model files.
    pub model_dir: PathBuf,
    /// Where the budget ledger persists. `None` keeps it in memory
    /// (spent budget then resets on restart — only for ephemeral use).
    pub ledger_path: Option<PathBuf>,
    /// Per-model cumulative ε ceiling; `None` disables enforcement.
    pub budget_epsilon: Option<f64>,
    /// Upper bound on rows per sampling request.
    pub max_rows: usize,
    /// HTTP input limits.
    pub limits: Limits,
    /// How long a blocked response write may wait for the socket to
    /// become writable; past it the response aborts and the connection
    /// closes.
    pub io_timeout: Duration,
    /// Total time a client gets to deliver one complete request once its
    /// first byte has arrived. This is an absolute deadline enforced
    /// across reads, so a client trickling one byte per second cannot
    /// hold its connection open — it gets a typed 408 when the deadline
    /// passes.
    pub request_read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// (and a fresh connection before its first byte) before the server
    /// closes it.
    pub keep_alive_timeout: Duration,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the final response).
    pub max_requests_per_connection: usize,
    /// Soft ceiling on estimated resident model-weight bytes; past it,
    /// least-recently-used models are evicted back to header-only
    /// entries. `None` keeps every loaded model resident.
    pub max_resident_bytes: Option<u64>,
    /// How long a request waits for another request's in-flight decode
    /// of the same model before failing with 503.
    pub load_wait: Duration,
    /// Observability: metrics (on by default; `GET /metrics` serves the
    /// Prometheus exposition) and the per-request access log (off by
    /// default). Telemetry never feeds back into sampling or budget
    /// accounting and is never persisted.
    pub obs: ObsConfig,
}

impl ServerConfig {
    /// Starts building a config serving `model_dir`. The builder's
    /// defaults: ephemeral localhost port, two executors, a durable ledger
    /// at `model_dir/ledger.p3gm`, no budget ceiling, no residency
    /// ceiling.
    pub fn builder(model_dir: impl Into<PathBuf>) -> ServerConfigBuilder {
        let model_dir = model_dir.into();
        ServerConfigBuilder {
            config: ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                threads: 2,
                ledger_path: Some(model_dir.join("ledger.p3gm")),
                model_dir,
                budget_epsilon: None,
                max_rows: 100_000,
                limits: Limits::default(),
                io_timeout: Duration::from_secs(10),
                request_read_timeout: Duration::from_secs(10),
                keep_alive_timeout: Duration::from_secs(5),
                max_requests_per_connection: 100,
                max_resident_bytes: None,
                load_wait: Duration::from_secs(30),
                obs: ObsConfig::enabled(),
            },
        }
    }
}

/// Builder for [`ServerConfig`]; obtained from [`ServerConfig::builder`].
///
/// Every setter takes and returns the builder by value, so a config
/// reads as one chain:
///
/// ```ignore
/// let config = ServerConfig::builder("models/")
///     .threads(4)
///     .budget_epsilon(Some(10.0))
///     .max_resident_bytes(Some(256 << 20))
///     .build();
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Bind address; use port 0 for an ephemeral port.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Executor threads; the reactor adds one I/O thread.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Where the budget ledger persists; `None` keeps it in memory.
    pub fn ledger_path(mut self, path: Option<PathBuf>) -> Self {
        self.config.ledger_path = path;
        self
    }

    /// Per-model cumulative ε ceiling; `None` disables enforcement.
    pub fn budget_epsilon(mut self, budget: Option<f64>) -> Self {
        self.config.budget_epsilon = budget;
        self
    }

    /// Upper bound on rows per sampling request.
    pub fn max_rows(mut self, max_rows: usize) -> Self {
        self.config.max_rows = max_rows;
        self
    }

    /// HTTP input limits.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.config.limits = limits;
        self
    }

    /// How long a blocked response write may wait for the socket to
    /// become writable. `Duration::MAX` disables this deadline.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.config.io_timeout = timeout;
        self
    }

    /// Absolute deadline for reading one complete request.
    /// `Duration::MAX` disables this deadline.
    pub fn request_read_timeout(mut self, timeout: Duration) -> Self {
        self.config.request_read_timeout = timeout;
        self
    }

    /// Idle time allowed between keep-alive requests.
    /// `Duration::MAX` disables this deadline.
    pub fn keep_alive_timeout(mut self, timeout: Duration) -> Self {
        self.config.keep_alive_timeout = timeout;
        self
    }

    /// Requests served per connection before the server closes it.
    pub fn max_requests_per_connection(mut self, max: usize) -> Self {
        self.config.max_requests_per_connection = max;
        self
    }

    /// Soft ceiling on estimated resident model-weight bytes (see
    /// [`registry::RegistryConfig::max_resident_bytes`]).
    pub fn max_resident_bytes(mut self, ceiling: Option<u64>) -> Self {
        self.config.max_resident_bytes = ceiling;
        self
    }

    /// How long a request waits on another request's in-flight decode of
    /// the same model before failing with 503.
    pub fn load_wait(mut self, wait: Duration) -> Self {
        self.config.load_wait = wait;
        self
    }

    /// Observability configuration: metrics on/off and the access-log
    /// target (see [`ObsConfig`]). `ObsConfig::disabled()` removes all
    /// instrumentation from the request path; `GET /metrics` then
    /// answers 404.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.config.obs = obs;
        self
    }

    /// Finishes the chain.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

/// Why a server failed to start (or a ledger operation failed).
#[derive(Debug)]
pub enum ServerError {
    /// Binding, listing the model directory, or another I/O failure.
    Io(std::io::Error),
    /// The persisted ledger failed to open.
    Ledger(LedgerError),
    /// The configuration is unusable.
    InvalidConfig(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o failure: {e}"),
            ServerError::Ledger(e) => write!(f, "budget ledger failure: {e}"),
            ServerError::InvalidConfig(msg) => write!(f, "invalid server config: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<LedgerError> for ServerError {
    fn from(e: LedgerError) -> Self {
        ServerError::Ledger(e)
    }
}

/// Shared state the reactor and its executors serve from.
struct Service {
    registry: Registry,
    ledger: Mutex<BudgetLedger>,
    max_rows: usize,
    /// `Some` when [`ObsConfig::metrics`] is on.
    metrics: Option<ServerMetrics>,
    /// `Some` when the access log has a target.
    access_log: Option<AccessLogger>,
}

impl Service {
    /// The single registry-stats snapshot both `GET /stats` and
    /// `GET /metrics` flow through: reads the counters once (see
    /// [`Registry::stats`] for the tear semantics) and, when metrics are
    /// on, mirrors that same snapshot into the exposition registry — so
    /// the two surfaces can never drift apart.
    fn registry_snapshot(&self) -> registry::RegistryStats {
        let snapshot = self.registry.stats();
        if let Some(m) = &self.metrics {
            m.export_registry_stats(&snapshot);
        }
        snapshot
    }
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the reactor (it keeps serving
/// until the process exits).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    reactor: std::thread::JoinHandle<()>,
    service: Arc<Service>,
    wake: sys::WakeHandle,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Rescans the model directory (the programmatic equivalent of
    /// `POST /reload`).
    pub fn reload(&self) -> std::io::Result<registry::ReloadReport> {
        self.service.registry.reload()
    }

    /// Number of models currently registered (headers; weights load
    /// lazily on first request).
    pub fn model_count(&self) -> usize {
        self.service.registry.len()
    }

    /// The registry's residency counters (the programmatic equivalent of
    /// `GET /stats`; flows through the same snapshot path, so the
    /// exposition registry sees the same numbers).
    pub fn registry_stats(&self) -> registry::RegistryStats {
        self.service.registry_snapshot()
    }

    /// Stops accepting, wakes the reactor, and joins it. In-flight
    /// requests finish first; idle keep-alive connections are retired
    /// from the poll set immediately, so shutdown latency is bounded by
    /// in-flight work, never by idle timeouts.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // One wake is enough: the byte stays in the pipe until the
        // reactor has polled, and it re-reads `stop` at the top of every
        // loop turn.
        self.wake.wake();
        let _ = self.reactor.join();
    }
}

/// Starts a server: opens the registry and ledger, binds the listener,
/// and spawns the reactor (which spawns its executor threads).
pub fn start(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    if config.threads == 0 {
        return Err(ServerError::InvalidConfig(
            "threads must be at least 1".to_string(),
        ));
    }
    if let Some(budget) = config.budget_epsilon {
        if !(budget.is_finite() && budget >= 0.0) {
            return Err(ServerError::InvalidConfig(format!(
                "budget_epsilon must be finite and non-negative, got {budget}"
            )));
        }
    }
    let (registry, _report) = Registry::open_with(
        &config.model_dir,
        RegistryConfig {
            max_resident_bytes: config.max_resident_bytes,
            load_wait: config.load_wait,
        },
    )?;
    let ledger = match &config.ledger_path {
        Some(path) => BudgetLedger::open(path, config.budget_epsilon)?,
        None => BudgetLedger::in_memory(config.budget_epsilon),
    };
    let metrics = config.obs.metrics.then(ServerMetrics::new);
    let access_log = AccessLogger::open(&config.obs.access_log)?;
    let service = Arc::new(Service {
        registry,
        ledger: Mutex::new(ledger),
        max_rows: config.max_rows,
        metrics,
        access_log,
    });

    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let waker = sys::Waker::new()?;
    let wake = waker.handle();
    let reactor_service = Arc::clone(&service);
    let reactor_stop = Arc::clone(&stop);
    let reactor = std::thread::spawn(move || {
        reactor::run(listener, reactor_service, reactor_stop, waker, config);
    });
    Ok(ServerHandle {
        addr,
        stop,
        reactor,
        service,
        wake,
    })
}

fn error_response(status: u16, message: &str) -> Response {
    Response::json(
        status,
        &Json::Obj(vec![("error".to_string(), Json::str(message))]),
    )
}

/// The endpoint table: dispatches one parsed request to its handler and
/// returns the bounded route pattern its metrics are labelled with. Model
/// names collapse to `{name}` so one misbehaving client cannot inflate
/// the label space (series cardinality stays fixed). A known path with
/// the wrong method is 405, an unknown path 404.
fn route(service: &Service, request: &Request) -> (&'static str, Response) {
    let segments: Vec<&str> = request
        .target
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    let get = request.method == Method::Get;
    let post = request.method == Method::Post;
    let (label, response) = match segments.as_slice() {
        [] => ("/", get.then(overview)),
        ["healthz"] => ("/healthz", get.then(|| healthz(service))),
        ["metrics"] => ("/metrics", get.then(|| metrics_endpoint(service))),
        ["models"] => ("/models", get.then(|| list_models(service))),
        ["models", name] => ("/models/{name}", get.then(|| model_detail(service, name))),
        ["models", name, "sample"] => (
            "/models/{name}/sample",
            post.then(|| sample(service, name, &request.body)),
        ),
        ["stats"] => ("/stats", get.then(|| stats(service))),
        ["reload"] => ("/reload", post.then(|| reload(service))),
        _ => return ("other", error_response(404, "no such endpoint")),
    };
    let response =
        response.unwrap_or_else(|| error_response(405, "method not allowed for this path"));
    (label, response)
}

fn healthz(service: &Service) -> Response {
    Response::json(
        200,
        &Json::Obj(vec![
            ("status".to_string(), Json::str("ok")),
            (
                "models".to_string(),
                Json::Num(service.registry.len() as f64),
            ),
        ]),
    )
}

fn overview() -> Response {
    Response::json(
        200,
        &Json::Obj(vec![
            ("service".to_string(), Json::str("p3gm-server")),
            (
                "endpoints".to_string(),
                Json::Arr(
                    [
                        "GET /",
                        "GET /healthz",
                        "GET /models",
                        "GET /models/{name}",
                        "GET /stats",
                        "GET /metrics",
                        "POST /models/{name}/sample",
                        "POST /reload",
                    ]
                    .iter()
                    .map(|e| Json::str(*e))
                    .collect(),
                ),
            ),
        ]),
    )
}

/// The stamp formatted for the constant `x-p3gm-privacy` header.
fn stamp_header(stamp: Option<&PrivacySpec>) -> String {
    match stamp {
        Some(spec) => spec.to_string(),
        None => "non-private".to_string(),
    }
}

fn stamp_json(stamp: Option<&PrivacySpec>) -> Json {
    match stamp {
        Some(spec) => Json::Obj(vec![
            ("epsilon".to_string(), Json::Num(spec.epsilon)),
            ("delta".to_string(), Json::Num(spec.delta)),
            ("optimal_order".to_string(), Json::Num(spec.optimal_order)),
        ]),
        None => Json::Null,
    }
}

/// One model's listing entry, assembled **entirely from its peeked
/// header** — geometry, stamp and budget state require no weight decode,
/// so `GET /models` over a thousand tenants touches no payload bytes.
fn model_json(service: &Service, header: &registry::ModelHeader) -> Json {
    let ledger = service
        .ledger
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let entry = ledger.entry(header.name());
    let budget = Json::Obj(vec![
        ("spent_epsilon".to_string(), Json::Num(entry.spent_epsilon)),
        (
            "budget_epsilon".to_string(),
            ledger.budget_epsilon().map_or(Json::Null, Json::Num),
        ),
        (
            "remaining_epsilon".to_string(),
            ledger
                .remaining(header.name())
                .map_or(Json::Null, Json::Num),
        ),
    ]);
    Json::Obj(vec![
        ("name".to_string(), Json::str(header.name())),
        ("data_dim".to_string(), Json::Num(header.data_dim() as f64)),
        (
            "latent_dim".to_string(),
            Json::Num(header.latent_dim() as f64),
        ),
        (
            "n_classes".to_string(),
            header
                .n_classes()
                .map_or(Json::Null, |n| Json::Num(n as f64)),
        ),
        ("privacy".to_string(), stamp_json(header.stamp())),
        (
            "resident".to_string(),
            Json::Bool(service.registry.is_resident(header.name())),
        ),
        ("budget".to_string(), budget),
    ])
}

fn list_models(service: &Service) -> Response {
    let models = service
        .registry
        .list_headers()
        .iter()
        .map(|header| model_json(service, header))
        .collect();
    Response::json(
        200,
        &Json::Obj(vec![("models".to_string(), Json::Arr(models))]),
    )
}

fn model_detail(service: &Service, name: &str) -> Response {
    match service.registry.header(name) {
        Some(header) => Response::json(200, &model_json(service, &header)),
        None => error_response(404, "no such model"),
    }
}

fn stats(service: &Service) -> Response {
    let s = service.registry_snapshot();
    let num = |v: u64| Json::Num(v as f64);
    Response::json(
        200,
        &Json::Obj(vec![
            ("models".to_string(), num(s.models)),
            ("resident_models".to_string(), num(s.resident_models)),
            ("resident_bytes".to_string(), num(s.resident_bytes)),
            ("max_resident_bytes".to_string(), num(s.max_resident_bytes)),
            ("loads".to_string(), num(s.loads)),
            ("load_nanos".to_string(), num(s.load_nanos)),
            ("evictions".to_string(), num(s.evictions)),
            ("hits".to_string(), num(s.hits)),
            ("misses".to_string(), num(s.misses)),
            ("load_failures".to_string(), num(s.load_failures)),
            ("header_peeks".to_string(), num(s.header_peeks)),
        ]),
    )
}

/// `GET /metrics`: refreshes the scrape-time snapshots (registry
/// residency, per-model budget gauges, thread-pool counters, dropped
/// access-log lines) and renders the whole registry as Prometheus text
/// exposition v0.0.4. Answers 404 when metrics are disabled so scrapers
/// fail loudly instead of reading an empty page.
fn metrics_endpoint(service: &Service) -> Response {
    let Some(m) = &service.metrics else {
        return error_response(404, "metrics are disabled on this server");
    };
    // The shared snapshot path also mirrors registry stats into `m`.
    let _ = service.registry_snapshot();
    m.export_pool_stats();
    if let Some(log) = &service.access_log {
        m.export_access_log_errors(log.error_count());
    }
    {
        let ledger = service
            .ledger
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for header in service.registry.list_headers() {
            let name = header.name();
            m.export_ledger(
                name,
                ledger.entry(name).spent_epsilon,
                ledger.remaining(name),
            );
        }
    }
    m.render()
}

fn reload(service: &Service) -> Response {
    match service.registry.reload() {
        Ok(report) => {
            let names = |items: &[String]| Json::Arr(items.iter().map(Json::str).collect());
            Response::json(
                200,
                &Json::Obj(vec![
                    ("loaded".to_string(), names(&report.loaded)),
                    ("unchanged".to_string(), names(&report.unchanged)),
                    ("removed".to_string(), names(&report.removed)),
                    (
                        "failed".to_string(),
                        Json::Arr(
                            report
                                .failed
                                .iter()
                                .map(|(name, reason)| {
                                    Json::Obj(vec![
                                        ("name".to_string(), Json::str(name)),
                                        ("reason".to_string(), Json::str(reason)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            )
        }
        Err(e) => error_response(500, &format!("reload failed: {e}")),
    }
}

/// The parsed, validated body of one sampling request.
#[derive(Debug)]
struct SampleSpec {
    seed: u64,
    n: usize,
    labels: Option<Vec<usize>>,
    csv: bool,
}

/// Validates the JSON body of `POST /models/{name}/sample`. Strict:
/// unknown fields are rejected so a typo'd request fails loudly instead
/// of silently sampling defaults.
fn parse_sample_spec(body: &[u8], max_rows: usize) -> Result<SampleSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Err("a JSON body is required: {\"seed\": <int>, \"n\": <int>}".to_string());
    }
    let value = json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
    let members = value.as_obj().ok_or("body must be a JSON object")?;
    for (key, _) in members {
        if !matches!(key.as_str(), "seed" | "n" | "labels" | "format") {
            return Err(format!("unknown field {key:?}"));
        }
    }

    let seed = value
        .get("seed")
        .ok_or("missing required field \"seed\"")?
        .as_u64()
        .ok_or("\"seed\" must be an integer in [0, 2^53]")?;

    // Per-class counts are attacker-controlled: accumulate with checked
    // arithmetic against the row cap, so a crafted array can neither
    // overflow the sum nor smuggle huge counts past the limit.
    let labels: Option<(Vec<usize>, usize)> = match value.get("labels") {
        None => None,
        Some(Json::Arr(items)) => {
            let mut counts = Vec::with_capacity(items.len());
            let mut total: usize = 0;
            for item in items {
                let c = item
                    .as_u64()
                    .ok_or("\"labels\" entries must be non-negative integers")?;
                let c = usize::try_from(c)
                    .map_err(|_| "\"labels\" entry does not fit in usize".to_string())?;
                total = total
                    .checked_add(c)
                    .filter(|&t| t <= max_rows)
                    .ok_or_else(|| {
                        format!("\"labels\" counts sum past the per-request limit ({max_rows})")
                    })?;
                counts.push(c);
            }
            if total == 0 {
                return Err("\"labels\" must request at least one row".to_string());
            }
            Some((counts, total))
        }
        Some(_) => return Err("\"labels\" must be an array of per-class counts".to_string()),
    };

    let n = match (value.get("n"), &labels) {
        (Some(v), _) => {
            let n = v.as_u64().ok_or("\"n\" must be an integer in [0, 2^53]")?;
            usize::try_from(n).map_err(|_| "\"n\" does not fit in usize".to_string())?
        }
        (None, Some((_, total))) => *total,
        (None, None) => return Err("missing required field \"n\"".to_string()),
    };
    if let Some((_, total)) = &labels {
        if *total != n {
            return Err(format!(
                "\"n\" ({n}) must equal the sum of \"labels\" ({total})"
            ));
        }
    }
    if n > max_rows {
        return Err(format!(
            "n ({n}) exceeds the per-request limit ({max_rows})"
        ));
    }

    let csv = match value.get("format") {
        None => false,
        Some(v) => match v.as_str() {
            Some("json") => false,
            Some("csv") => true,
            _ => return Err("\"format\" must be \"json\" or \"csv\"".to_string()),
        },
    };

    Ok(SampleSpec {
        seed,
        n,
        labels: labels.map(|(counts, _)| counts),
        csv,
    })
}

/// The synthesis executor: charges the ledger exactly once, then writes
/// the rows through [`rows_body`]. Plain sampling streams it as chunked
/// `Transfer-Encoding` (the rows are generated chunk by chunk as the
/// socket drains, so first-byte latency and peak memory are bounded by
/// the chunk size, not `n`); labelled synthesis drains it into a buffered
/// body.
fn sample(service: &Service, name: &str, body: &[u8]) -> Response {
    // First touch of a cold model decodes it here (single-flight with
    // any concurrent request); the typed failure surface maps to HTTP:
    // unknown name → 404, corrupt snapshot or decode-wait timeout → 503
    // (the file may be repaired and reloaded; the request can be
    // retried).
    let snapshot = match service.registry.get(name) {
        Ok(snapshot) => snapshot,
        Err(RegistryError::NotFound) => return error_response(404, "no such model"),
        Err(e @ (RegistryError::DecodeFailed(_) | RegistryError::LoadTimeout)) => {
            return error_response(503, &e.to_string())
        }
    };
    let spec = match parse_sample_spec(body, service.max_rows) {
        Ok(spec) => spec,
        Err(msg) => return error_response(400, &msg),
    };
    let stamp = snapshot.privacy_stamp().copied();

    // Validate everything a 400 can reject BEFORE charging: a request
    // that cannot possibly be served must never burn budget.
    if let Some(counts) = &spec.labels {
        match snapshot.synthesizer() {
            None => {
                return error_response(400, "model has no labelled synthesizer attached");
            }
            Some(s) if counts.len() != s.n_classes() => {
                return error_response(
                    400,
                    &format!(
                        "expected {} class counts in \"labels\", got {}",
                        s.n_classes(),
                        counts.len()
                    ),
                );
            }
            Some(_) => {}
        }
    }

    // Charge the budget before any synthesis work: a refused request
    // must not cost compute, and a served request must be durably
    // recorded first (crash-safety favors over-counting). The remaining
    // budget is read in the same critical section, so the two headers
    // describe one ledger state whatever other requests charge meanwhile.
    let (epsilon, delta) = stamp.map_or((0.0, 0.0), |s| (s.epsilon, s.delta));
    let charged = {
        let mut ledger = service
            .ledger
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ledger
            .charge(name, epsilon, delta)
            .map(|entry| (entry, ledger.remaining(name)))
    };
    let (entry, remaining) = match charged {
        Ok(charged) => charged,
        Err(LedgerError::Exhausted {
            spent,
            budget,
            remaining,
        }) => {
            if let Some(m) = &service.metrics {
                m.budget_denial(name);
            }
            return Response::json(
                429,
                &Json::Obj(vec![
                    (
                        "error".to_string(),
                        Json::str("privacy budget exhausted for this model"),
                    ),
                    ("model".to_string(), Json::str(name)),
                    ("spent_epsilon".to_string(), Json::Num(spent)),
                    ("budget_epsilon".to_string(), Json::Num(budget)),
                    ("remaining_epsilon".to_string(), Json::Num(remaining)),
                ]),
            );
        }
        Err(e) => return error_response(500, &format!("budget ledger failure: {e}")),
    };

    let response = match &spec.labels {
        None => {
            let seed = spec.seed;
            rows_body(name, &spec, None, move |start, rows| {
                snapshot.sample_rows(seed, start, rows)
            })
        }
        Some(counts) => match snapshot.synthesize_labelled(spec.seed, counts) {
            Ok((rows, labels)) => {
                rows_body(name, &spec, Some(labels), finished_rows(rows)).into_buffered()
            }
            // Client-rejectable conditions were all checked before the
            // charge; anything left is an internal failure.
            Err(e) => return error_response(500, &format!("labelled synthesis failed: {e}")),
        },
    };

    response
        .with_header("x-p3gm-privacy", stamp_header(stamp.as_ref()))
        .with_header("x-p3gm-epsilon-spent", entry.spent_epsilon.to_string())
        .with_header(
            "x-p3gm-epsilon-remaining",
            remaining.map_or("unlimited".to_string(), |r| r.to_string()),
        )
}

/// The one writer of every sample body, plain or labelled, JSON or CSV:
/// a chunk source that yields the JSON head (up to the opening `[` of the
/// rows array; CSV has none), then blocks of up to [`STREAM_CHUNK_ROWS`]
/// rows `[start, start + len)` taken from `window(start, len)` only when
/// the previous block has been handed on, then the JSON tail with any
/// `labels`. Plain sampling streams it with `window` =
/// `SynthesisSnapshot::sample_rows` (the window's `Arc` keeps the model
/// alive for the stream's whole lifetime, so a hot reload mid-stream never
/// yanks the snapshot out from under the response); labelled synthesis
/// and HTTP/1.0 clients get the same blocks drained into one buffered
/// body, so the bytes never depend on how the body is framed.
fn rows_body(
    name: &str,
    spec: &SampleSpec,
    labels: Option<Vec<usize>>,
    mut window: impl FnMut(usize, usize) -> Matrix + Send + 'static,
) -> Response {
    let (n, csv) = (spec.n, spec.csv);
    let mut head = (!csv).then(|| {
        format!(
            "{{\"model\":{},\"seed\":{},\"n\":{},\"rows\":[",
            Json::str(name),
            Json::Num(spec.seed as f64),
            Json::Num(n as f64),
        )
    });
    let mut tail = !csv;
    let mut next_row = 0;
    let source = move || {
        if let Some(head) = head.take() {
            return Some(head.into_bytes());
        }
        let mut out = Vec::new();
        if next_row < n {
            let len = STREAM_CHUNK_ROWS.min(n - next_row);
            for (i, row) in window(next_row, len).row_iter().enumerate() {
                write_row(&mut out, row, next_row + i, labels.as_deref(), csv);
            }
            next_row += len;
        } else if std::mem::take(&mut tail) {
            out.push(b']');
            if let Some(labels) = &labels {
                out.extend_from_slice(b",\"labels\":[");
                for (i, &label) in labels.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    json::write_number(&mut out, label as f64);
                }
                out.push(b']');
            }
            out.push(b'}');
        } else {
            return None;
        }
        Some(out)
    };
    let content_type = if csv { "text/csv" } else { "application/json" };
    Response::chunked(content_type, Box::new(source))
}

/// Writes row `index` of a sample body into `out`: a CSV line whose last
/// column is the row's label, if any, or a JSON array, comma-led after the
/// first row (JSON carries its labels in the tail). Each value goes
/// straight into the chunk through the crate's Ryū writer: CSV prints
/// `f64`'s `Display` bytes ([`json::write_f64`]), JSON what `Json::Num`
/// prints ([`json::write_number`]).
fn write_row(out: &mut Vec<u8>, row: &[f64], index: usize, labels: Option<&[usize]>, csv: bool) {
    if csv {
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            json::write_f64(out, v);
        }
        if let Some(labels) = labels {
            if !row.is_empty() {
                out.push(b',');
            }
            let _ = write!(out, "{}", labels.get(index).copied().unwrap_or(0));
        }
        out.push(b'\n');
    } else {
        if index > 0 {
            out.push(b',');
        }
        out.push(b'[');
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            json::write_number(out, v);
        }
        out.push(b']');
    }
}

/// The [`rows_body`] window over rows that are already synthesized.
fn finished_rows(rows: Matrix) -> impl FnMut(usize, usize) -> Matrix + Send + 'static {
    move |start, len| Matrix::from_fn(len, rows.cols(), |i, j| rows.get(start + i, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The body of `response` after the one production drain,
    /// [`Response::into_buffered`].
    fn buffered_bytes(response: Response) -> Vec<u8> {
        match response.into_buffered().body {
            http::ResponseBody::Buffered(bytes) => bytes,
            http::ResponseBody::Chunked(_) => unreachable!("into_buffered drains every source"),
        }
    }

    /// `rows` written the way labelled synthesis writes them: through
    /// [`rows_body`] over its finished rows, drained into one buffer.
    fn render_rows(
        name: &str,
        spec: &SampleSpec,
        rows: &Matrix,
        labels: Option<&[usize]>,
    ) -> Vec<u8> {
        let labels = labels.map(<[usize]>::to_vec);
        buffered_bytes(rows_body(name, spec, labels, finished_rows(rows.clone())))
    }

    #[test]
    fn sample_spec_validation() {
        let ok = parse_sample_spec(br#"{"seed": 7, "n": 10}"#, 100).unwrap();
        assert_eq!((ok.seed, ok.n, ok.csv), (7, 10, false));
        assert!(ok.labels.is_none());

        let labelled = parse_sample_spec(br#"{"seed": 1, "labels": [6, 4]}"#, 100).unwrap();
        assert_eq!(labelled.n, 10);
        assert_eq!(labelled.labels, Some(vec![6, 4]));

        let csv = parse_sample_spec(br#"{"seed": 1, "n": 2, "format": "csv"}"#, 100).unwrap();
        assert!(csv.csv);

        for bad in [
            &br#""#[..],
            br#"not json"#,
            br#"[1]"#,
            br#"{"n": 10}"#,
            br#"{"seed": -1, "n": 10}"#,
            br#"{"seed": 1.5, "n": 10}"#,
            br#"{"seed": 1}"#,
            br#"{"seed": 1, "n": 101}"#,
            br#"{"seed": 1, "n": 9, "labels": [6, 4]}"#,
            br#"{"seed": 1, "labels": "six"}"#,
            br#"{"seed": 1, "labels": [1.5]}"#,
            br#"{"seed": 1, "labels": [0, 0]}"#,
            br#"{"seed": 1, "labels": [90, 90]}"#,
            br#"{"seed": 1, "n": 2, "format": "xml"}"#,
            br#"{"seed": 1, "n": 2, "typo": true}"#,
        ] {
            assert!(parse_sample_spec(bad, 100).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn seed_at_the_exact_f64_integer_limit_is_accepted() {
        let spec = parse_sample_spec(br#"{"seed": 9007199254740992, "n": 1}"#, 10).unwrap();
        assert_eq!(spec.seed, 1 << 53);
    }

    #[test]
    fn label_counts_cannot_overflow_the_row_cap() {
        // Many maximal counts: the checked accumulation must reject at the
        // cap instead of overflowing usize (a panic in debug builds, a
        // wrapped sum bypassing max_rows in release).
        let mut body = String::from(r#"{"seed": 1, "labels": ["#);
        for i in 0..64 {
            if i > 0 {
                body.push(',');
            }
            body.push_str("9007199254740992");
        }
        body.push_str("]}");
        let err = parse_sample_spec(body.as_bytes(), 100).unwrap_err();
        assert!(err.contains("per-request limit"), "{err}");
    }

    #[test]
    fn csv_rendering_is_deterministic() {
        let rows = Matrix::from_rows(&[vec![0.5, 1.0 / 3.0], vec![-1.25, 2.0]]).unwrap();
        let spec = SampleSpec {
            seed: 1,
            n: 2,
            labels: None,
            csv: true,
        };
        let a = render_rows("m", &spec, &rows, None);
        let b = render_rows("m", &spec, &rows, None);
        assert_eq!(a, b);
        let text = String::from_utf8(a).unwrap();
        assert_eq!(text, format!("0.5,{}\n-1.25,2\n", 1.0 / 3.0));
        // With labels appended as the last column.
        let labelled = render_rows("m", &spec, &rows, Some(&[1, 0]));
        let text = String::from_utf8(labelled).unwrap();
        assert!(text.ends_with(",0\n"));
        assert!(text.contains("0.5,"));
    }

    #[test]
    fn json_rendering_round_trips_row_values_bit_exactly() {
        let rows = Matrix::from_rows(&[vec![0.1, 1.0 / 3.0, -2.5e-7]]).unwrap();
        let spec = SampleSpec {
            seed: 9,
            n: 1,
            labels: None,
            csv: false,
        };
        let body = String::from_utf8(render_rows("m", &spec, &rows, None)).unwrap();
        let parsed = json::parse(&body).unwrap();
        let row = parsed.get("rows").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap();
        for (got, want) in row.iter().zip(rows.row(0)) {
            assert_eq!(got.as_f64().unwrap().to_bits(), want.to_bits());
        }
        assert_eq!(parsed.get("seed").unwrap().as_u64(), Some(9));
    }

    #[test]
    fn hand_rolled_json_body_matches_the_json_serializer() {
        // The streamed/buffered sample body is assembled by hand (so it
        // can stream); it must stay byte-identical to serializing the
        // equivalent Json value tree.
        let rows = Matrix::from_rows(&[vec![0.1, -2.5e-7], vec![1.0 / 3.0, 4.0]]).unwrap();
        let spec = SampleSpec {
            seed: 42,
            n: 2,
            labels: None,
            csv: false,
        };
        let body = render_rows("na\"me", &spec, &rows, Some(&[1, 0]));
        let tree = Json::Obj(vec![
            ("model".to_string(), Json::str("na\"me")),
            ("seed".to_string(), Json::Num(42.0)),
            ("n".to_string(), Json::Num(2.0)),
            (
                "rows".to_string(),
                Json::Arr(
                    rows.row_iter()
                        .map(|row| Json::Arr(row.iter().map(|&v| Json::Num(v)).collect()))
                        .collect(),
                ),
            ),
            (
                "labels".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(0.0)]),
            ),
        ]);
        assert_eq!(String::from_utf8(body).unwrap(), tree.to_string());
    }

    /// SplitMix64: expands one generated seed into every bit pattern a
    /// case needs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An arbitrary finite `f64`: one in eight is an edge value (±0, the
    /// smallest and largest subnormals, ±2^53, and the exact `1.0` and tiny
    /// magnitudes that dominate served bodies), the rest are raw bit
    /// patterns with infinities and NaNs folded back to finite exponents.
    fn finite_value(bits: u64) -> f64 {
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            9_007_199_254_740_992.0,
            -9_007_199_254_740_992.0,
            1.0,
            1e-300,
        ];
        if bits.is_multiple_of(8) {
            return edges[(bits >> 3) as usize % edges.len()];
        }
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            f64::from_bits(bits ^ (1 << 62))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one writer against std: over arbitrary finite values, 1–40
        /// columns and bodies that cross the 512- and 1024-row chunk
        /// boundaries, the JSON body is the document with every number
        /// printed by std's `Display`, the CSV body is every value's
        /// `Display` joined by commas with the label last, and the body
        /// streamed through the reactor's writer de-chunks to the drained
        /// bytes.
        #[test]
        fn sample_bodies_match_the_std_oracle(
            seed in any::<u64>(),
            cols in 1usize..41,
            n in 0usize..1100,
            labelled in any::<bool>(),
            csv in any::<bool>(),
        ) {
            let mut state = seed;
            let rows = Matrix::from_fn(n, cols, |_, _| finite_value(splitmix(&mut state)));
            let labels: Option<Vec<usize>> =
                labelled.then(|| (0..n).map(|_| (splitmix(&mut state) % 7) as usize).collect());
            let spec = SampleSpec { seed, n, labels: None, csv };
            let body = || rows_body("m\"x", &spec, labels.clone(), finished_rows(rows.clone()));

            let mut wire = Vec::new();
            let progress = http::ResponseWriter::new(body(), true).write_some(&mut wire).unwrap();
            prop_assert_eq!(progress, http::WriteProgress::Complete);
            let streamed = http::ResponseReader::new(wire.as_slice()).next_response().unwrap();
            prop_assert!(streamed.chunked);
            let buffered = buffered_bytes(body());
            prop_assert_eq!(&streamed.body, &buffered);

            let want = if csv {
                let mut want = String::new();
                for (i, row) in rows.row_iter().enumerate() {
                    let mut fields: Vec<String> = row.iter().map(f64::to_string).collect();
                    if let Some(labels) = &labels {
                        fields.push(labels[i].to_string());
                    }
                    want.push_str(&fields.join(","));
                    want.push('\n');
                }
                want
            } else {
                // Numbers through std, not through `Json`, whose serializer
                // shares the writer under test.
                let num_arr = |values: &[f64]| {
                    let values: Vec<String> = values.iter().map(f64::to_string).collect();
                    format!("[{}]", values.join(","))
                };
                let rows: Vec<String> = rows.row_iter().map(num_arr).collect();
                let mut want = format!(
                    r#"{{"model":"m\"x","seed":{},"n":{},"rows":[{}]"#,
                    seed as f64,
                    n as f64,
                    rows.join(",")
                );
                if let Some(labels) = &labels {
                    let labels: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
                    want.push_str(&format!(",\"labels\":{}", num_arr(&labels)));
                }
                want.push('}');
                want
            };
            prop_assert_eq!(String::from_utf8(buffered).unwrap(), want);
        }
    }
}
