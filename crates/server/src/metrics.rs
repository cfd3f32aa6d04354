//! Server-side observability: pre-registered handles over a
//! [`p3gm_obs::MetricsRegistry`], per-request instrumentation helpers, and
//! the scrape-time re-export of registry / ledger / thread-pool state that
//! `GET /metrics` serves as Prometheus text.
//!
//! Everything here is post-processing of values the server already
//! computed and released: metrics never feed back into sampling or budget
//! decisions, and nothing recorded here is persisted — the (ε, δ)
//! accounting state lives exclusively in the [`crate::ledger`].

use crate::http::{Response, ResponseBody};
use p3gm_obs::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BOUNDS_SECONDS};
use std::time::Instant;

/// First-byte latency bounds for chunked streams: the interesting region
/// is sub-millisecond (the whole point of streaming), so the buckets lean
/// low.
const FIRST_BYTE_BOUNDS: &[f64] = &[
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.05, 0.25, 1.0,
];

/// The server's metrics state: one registry plus cached handles for the
/// hot-path series (per-request lookups happen only for label values that
/// genuinely vary, like route and status).
pub(crate) struct ServerMetrics {
    pub(crate) registry: MetricsRegistry,
    in_flight: Gauge,
    keepalive_reuse: Counter,
    stream_first_byte: Histogram,
    stream_bytes: Counter,
    connections_open: Gauge,
    reactor_wakeups: Counter,
}

impl ServerMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        let in_flight = registry.gauge(
            "p3gm_requests_in_flight",
            "Requests currently being served.",
            &[],
        );
        let keepalive_reuse = registry.counter(
            "p3gm_keepalive_reuse_total",
            "Requests served on an already-used keep-alive connection.",
            &[],
        );
        let stream_first_byte = registry.histogram(
            "p3gm_stream_first_byte_seconds",
            "Time from request parse to the first chunk of a streamed body.",
            FIRST_BYTE_BOUNDS,
            &[],
        );
        let stream_bytes = registry.counter(
            "p3gm_stream_bytes_total",
            "Body bytes produced by chunked streaming responses.",
            &[],
        );
        let connections_open = registry.gauge(
            "p3gm_connections_open",
            "Client connections currently open (accepted and not yet closed).",
            &[],
        );
        let reactor_wakeups = registry.counter(
            "p3gm_reactor_wakeups_total",
            "Reactor event-loop wakeups (poll returns); reactor core only.",
            &[],
        );
        ServerMetrics {
            registry,
            in_flight,
            keepalive_reuse,
            stream_first_byte,
            stream_bytes,
            connections_open,
            reactor_wakeups,
        }
    }

    /// Mark a request in flight; the guard decrements on drop (panic-safe).
    /// The guard owns its gauge handle, so it can travel with the request
    /// across executor threads.
    pub(crate) fn begin_request(&self, reused_connection: bool) -> InFlightGuard {
        self.in_flight.add(1.0);
        if reused_connection {
            self.keepalive_reuse.inc();
        }
        InFlightGuard {
            gauge: self.in_flight.clone(),
        }
    }

    /// Mark a connection accepted.
    pub(crate) fn connection_opened(&self) {
        self.connections_open.add(1.0);
    }

    /// Mark a connection closed.
    pub(crate) fn connection_closed(&self) {
        self.connections_open.add(-1.0);
    }

    /// Count one reactor event-loop wakeup.
    pub(crate) fn reactor_wakeup(&self) {
        self.reactor_wakeups.inc();
    }

    /// Record one completed request.
    pub(crate) fn observe_request(&self, route: &str, status: u16, seconds: f64) {
        self.registry
            .counter(
                "p3gm_requests_total",
                "HTTP requests served, by route pattern and status.",
                &[("route", route), ("status", &status.to_string())],
            )
            .inc();
        self.registry
            .histogram(
                "p3gm_request_duration_seconds",
                "Request service time from parse to response ready, by route pattern \
                 (streamed bodies generate during the write; see the stream series).",
                LATENCY_BOUNDS_SECONDS,
                &[("route", route)],
            )
            .observe(seconds);
    }

    /// The monotone ledger-exhaustion counter (satellite fix: 429s are now
    /// observable over time, and — deliberately — never persisted).
    pub(crate) fn budget_denial(&self, model: &str) {
        self.registry
            .counter(
                "p3gm_budget_denials_total",
                "Sampling requests refused with 429 because the model's privacy budget is exhausted.",
                &[("model", model)],
            )
            .inc();
    }

    /// Wrap a chunked response body so the stream reports its first-byte
    /// latency (from `parsed_at`, the instant the request was parsed — the
    /// same origin as the request-duration histogram) and its produced
    /// bytes. The first byte is the first non-empty block, the first one
    /// [`crate::http::ResponseWriter`] puts on the wire. Buffered bodies
    /// pass through untouched.
    pub(crate) fn instrument_stream(&self, response: &mut Response, parsed_at: Instant) {
        let body = std::mem::replace(&mut response.body, ResponseBody::Buffered(Vec::new()));
        match body {
            ResponseBody::Buffered(bytes) => response.body = ResponseBody::Buffered(bytes),
            ResponseBody::Chunked(mut source) => {
                let first_byte = self.stream_first_byte.clone();
                let bytes_total = self.stream_bytes.clone();
                let mut first = true;
                response.body = ResponseBody::Chunked(Box::new(move || {
                    let block = source();
                    if let Some(block) = &block {
                        if first && !block.is_empty() {
                            first = false;
                            first_byte.observe(parsed_at.elapsed().as_secs_f64());
                        }
                        bytes_total.add(block.len() as u64);
                    }
                    block
                }));
            }
        }
    }

    /// Re-export a registry-stats snapshot (the same snapshot `GET /stats`
    /// serializes — both surfaces flow through
    /// `Service::registry_snapshot`, so they cannot drift).
    pub(crate) fn export_registry_stats(&self, s: &crate::registry::RegistryStats) {
        let gauge = |name: &str, help: &str, v: u64| {
            self.registry.gauge(name, help, &[]).set(v as f64);
        };
        let counter = |name: &str, help: &str, v: u64| {
            // `store`, not `add`: the registry's atomics are the source of
            // truth; these series mirror them at snapshot time.
            self.registry.counter(name, help, &[]).store(v);
        };
        gauge(
            "p3gm_registry_models",
            "Models registered (headers; weights load lazily).",
            s.models,
        );
        gauge(
            "p3gm_registry_resident_models",
            "Models with decoded weights currently resident.",
            s.resident_models,
        );
        gauge(
            "p3gm_registry_resident_bytes",
            "Estimated resident model-weight bytes.",
            s.resident_bytes,
        );
        gauge(
            "p3gm_registry_max_resident_bytes",
            "Configured resident-bytes ceiling (0 = unlimited).",
            s.max_resident_bytes,
        );
        counter(
            "p3gm_registry_loads_total",
            "Weight decodes (cold loads).",
            s.loads,
        );
        counter(
            "p3gm_registry_load_nanoseconds_total",
            "Time spent in cold loads (file read and checksummed decode, failed loads included); \
             over loads plus load failures it is the mean cost of a miss.",
            s.load_nanos,
        );
        counter(
            "p3gm_registry_evictions_total",
            "LRU evictions back to header-only entries.",
            s.evictions,
        );
        counter(
            "p3gm_registry_hits_total",
            "Lookups served by an already-resident model.",
            s.hits,
        );
        counter(
            "p3gm_registry_misses_total",
            "Lookups that had to decode (or wait for) weights.",
            s.misses,
        );
        counter(
            "p3gm_registry_load_failures_total",
            "Weight decodes that failed.",
            s.load_failures,
        );
        counter(
            "p3gm_registry_header_peeks_total",
            "Snapshot header reads (registration and reload validation).",
            s.header_peeks,
        );
    }

    /// Re-export the process-wide thread-pool counters from
    /// `p3gm-parallel` (scrape-time snapshot).
    pub(crate) fn export_pool_stats(&self) {
        let pool = p3gm_parallel::pool_stats();
        self.registry
            .gauge(
                "p3gm_pool_chunks_in_flight",
                "Parallel work chunks executing right now (queue depth).",
                &[],
            )
            .set(pool.chunks_in_flight as f64);
        self.registry
            .counter(
                "p3gm_pool_chunks_total",
                "Parallel work chunks dispatched since process start.",
                &[],
            )
            .store(pool.chunks_total);
        self.registry
            .counter(
                "p3gm_pool_dispatches_total",
                "Parallel kernel calls that spawned helper threads since process start.",
                &[],
            )
            .store(pool.dispatches_total);
    }

    /// Mirror the access log's count of lines its sink failed to take
    /// (scrape-time snapshot).
    pub(crate) fn export_access_log_errors(&self, errors: u64) {
        self.registry
            .counter(
                "p3gm_access_log_errors_total",
                "Access-log lines dropped because the log sink failed to take them.",
                &[],
            )
            .store(errors);
    }

    /// Set the per-model ledger gauges from one ledger lock (spent is
    /// always exported; remaining only when a budget ceiling is set).
    pub(crate) fn export_ledger(&self, model: &str, spent: f64, remaining: Option<f64>) {
        self.registry
            .gauge(
                "p3gm_epsilon_spent",
                "Cumulative privacy budget (epsilon) spent per model.",
                &[("model", model)],
            )
            .set(spent);
        if let Some(remaining) = remaining {
            self.registry
                .gauge(
                    "p3gm_epsilon_remaining",
                    "Remaining privacy budget (epsilon) per model under the configured ceiling.",
                    &[("model", model)],
                )
                .set(remaining);
        }
    }

    /// Render the exposition body.
    pub(crate) fn render(&self) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            extra_headers: Vec::new(),
            body: ResponseBody::Buffered(self.registry.render().into_bytes()),
        }
    }
}

/// RAII in-flight marker from [`ServerMetrics::begin_request`]. Owns its
/// gauge handle so it is `Send` and can outlive the borrow of
/// `ServerMetrics` (the reactor core moves it between threads with the
/// in-flight response).
pub(crate) struct InFlightGuard {
    gauge: Gauge,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.gauge.add(-1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{ResponseWriter, WriteProgress};

    #[test]
    fn request_observation_renders_expected_series() {
        let m = ServerMetrics::new();
        {
            let _guard = m.begin_request(false);
            m.observe_request("/healthz", 200, 0.0003);
        }
        let _g2 = m.begin_request(true);
        m.budget_denial("mnist");
        let text = m.registry.render();
        assert!(text.contains("p3gm_requests_total{route=\"/healthz\",status=\"200\"} 1"));
        assert!(text.contains("p3gm_budget_denials_total{model=\"mnist\"} 1"));
        assert!(text.contains("p3gm_keepalive_reuse_total 1"));
        // One request finished (guard dropped), one still in flight.
        assert!(text.contains("p3gm_requests_in_flight 1"));
    }

    #[test]
    fn stream_instrumentation_counts_bytes_and_first_byte() {
        let m = ServerMetrics::new();
        let mut remaining = vec![b"world".to_vec(), b"hello ".to_vec()];
        let source: crate::http::ChunkSource = Box::new(move || remaining.pop());
        let mut response = Response::chunked("text/plain", source);
        m.instrument_stream(&mut response, Instant::now());
        let ResponseBody::Buffered(body) = response.into_buffered().body else {
            unreachable!("into_buffered drains every source");
        };
        assert_eq!(body, b"hello world");
        assert_eq!(m.stream_bytes.get(), 11);
        assert_eq!(m.stream_first_byte.count(), 1);
    }

    #[test]
    fn stream_first_byte_waits_for_the_first_non_empty_block() {
        let m = ServerMetrics::new();
        let mut calls = 0;
        let source: crate::http::ChunkSource = Box::new(move || {
            calls += 1;
            match calls {
                1 => Some(Vec::new()),
                2 => {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Some(b"0.5,1\n".to_vec())
                }
                _ => None,
            }
        });
        let mut response = Response::chunked("text/csv", source);
        m.instrument_stream(&mut response, Instant::now());
        let mut wire = Vec::new();
        let progress = ResponseWriter::new(response, true)
            .write_some(&mut wire)
            .unwrap();
        assert_eq!(progress, WriteProgress::Complete);
        assert_eq!(m.stream_first_byte.count(), 1);
        let sum = m.stream_first_byte.sum();
        assert!(sum >= 0.03, "first byte observed {sum} s after parse");
    }

    #[test]
    fn connection_and_reactor_series_render() {
        let m = ServerMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.reactor_wakeup();
        m.reactor_wakeup();
        m.reactor_wakeup();
        let text = m.registry.render();
        assert!(text.contains("p3gm_connections_open 1"), "{text}");
        assert!(text.contains("p3gm_reactor_wakeups_total 3"), "{text}");
    }

    #[test]
    fn in_flight_guard_is_owned_and_sendable() {
        let m = ServerMetrics::new();
        let guard = m.begin_request(false);
        // The reactor hands guards across threads with the request.
        std::thread::spawn(move || drop(guard)).join().unwrap();
        assert!(m.registry.render().contains("p3gm_requests_in_flight 0"));
    }

    #[test]
    fn export_ledger_sets_gauges() {
        let m = ServerMetrics::new();
        m.export_ledger("adult", 2.5, Some(7.5));
        m.export_ledger("mnist", 1.0, None);
        let text = m.registry.render();
        assert!(text.contains("p3gm_epsilon_spent{model=\"adult\"} 2.5"));
        assert!(text.contains("p3gm_epsilon_remaining{model=\"adult\"} 7.5"));
        assert!(text.contains("p3gm_epsilon_spent{model=\"mnist\"} 1"));
        assert!(!text.contains("p3gm_epsilon_remaining{model=\"mnist\"}"));
    }

    #[test]
    fn export_pool_stats_renders() {
        p3gm_parallel::with_threads(2, || p3gm_parallel::par_map_chunks(4, |i| i));
        let m = ServerMetrics::new();
        m.export_pool_stats();
        let text = m.registry.render();
        assert!(text.contains("p3gm_pool_chunks_total"));
        assert!(text.contains("p3gm_pool_chunks_in_flight"));
        // The parallel call above was a dispatch, so the counter is at
        // least 1 whatever else ran in this process.
        let dispatches = text
            .lines()
            .find_map(|line| line.strip_prefix("p3gm_pool_dispatches_total "))
            .expect("p3gm_pool_dispatches_total is exported");
        assert!(dispatches.parse::<u64>().unwrap() >= 1, "{text}");
    }
}
