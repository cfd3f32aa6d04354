//! Throughput and latency benchmarks for the `p3gm-server` HTTP
//! synthesis service at 1/2/4 server worker threads, in three client
//! modes:
//!
//! * **connect-per-request** — one TCP connect + request + framed
//!   response per iteration (the pre-keep-alive baseline);
//! * **keep-alive** — one persistent connection reused for every
//!   iteration (measures the request path without connect/teardown);
//! * **multi-connection keep-alive** — 4 concurrent client threads, each
//!   on its own persistent connection, hammering a large-`n` streamed
//!   CSV download; reported as aggregate requests/sec (printed, and
//!   recorded in `BENCH_serve.json`).
//!
//! A separate pass measures **first-byte latency** for the large-`n`
//! streamed response — the number chunked Transfer-Encoding exists to
//! shrink: the server flushes the head and first rows while the rest of
//! the batch is still being generated.
//!
//! The **concurrent-connections** pass holds N idle keep-alive
//! connections open (64/512/4096, and a stretch tier sized to the fd
//! limit, ~10k) while an active subset of 8 connections keeps sampling;
//! the reactor holds every tier on a fixed thread count, asserted
//! in-bench.
//!
//! Setup trains one small P3GM model, writes its snapshot into a
//! temporary model directory, and starts a fresh server per thread
//! count. Before timing, the de-chunked response body at every thread
//! count is asserted **byte-identical** to the 1-thread body — the
//! determinism guarantee the serving layer inherits from the core
//! canonical sample stream.
//!
//! The ledger runs in memory here (no per-request fsync), so the numbers
//! measure the HTTP + synthesis path. The recorded baseline lives in
//! `BENCH_serve.json` at the repository root together with the host's
//! core count — thread sweeps only show wall-clock scaling on machines
//! that actually have the cores.
//!
//! ```text
//! cargo bench -p p3gm-bench --bench serve
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use p3gm_core::config::PgmConfig;
use p3gm_core::pgm::PhasedGenerativeModel;
use p3gm_core::snapshot::SynthesisSnapshot;
use p3gm_core::synthesis::LabelledSynthesizer;
use p3gm_datasets::tabular::adult_like;
use p3gm_obs::ObsConfig;
use p3gm_server::http::{ClientResponse, ResponseReader};
use p3gm_server::{start, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const THREADS: [usize; 3] = [1, 2, 4];
const SAMPLE_BODY: &str = r#"{"seed": 42, "n": 64}"#;
const LARGE_BODY: &str = r#"{"seed": 42, "n": 4096, "format": "csv"}"#;
const CLIENT_CONNECTIONS: usize = 4;
/// Active keep-alive connections issuing requests while the idle herd
/// is held open in the concurrent-connections pass.
const ACTIVE_SUBSET: usize = 8;

/// One-write request send (a multi-write `write!` would interact with
/// Nagle + delayed ACK on reused connections, stalling ~40 ms).
fn send_sample(stream: &mut TcpStream, body: &str) {
    let request = format!(
        "POST /models/bench/sample HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
}

/// One request on a fresh connection, framed read, connection dropped.
fn one_shot(addr: SocketAddr, body: &str) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    send_sample(&mut stream, body);
    let response = ResponseReader::new(stream)
        .next_response()
        .expect("read response");
    assert_eq!(response.status, 200, "bench request must succeed");
    response
}

/// A persistent keep-alive connection issuing framed requests.
struct KeepAliveClient {
    stream: TcpStream,
    reader: ResponseReader<TcpStream>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> KeepAliveClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream.set_nodelay(true).expect("nodelay");
        let reader = ResponseReader::new(stream.try_clone().expect("clone stream"));
        KeepAliveClient { stream, reader }
    }

    fn request(&mut self, body: &str) -> ClientResponse {
        send_sample(&mut self.stream, body);
        let response = self.reader.next_response().expect("read response");
        assert_eq!(response.status, 200, "bench request must succeed");
        response
    }
}

fn prepare_model_dir() -> PathBuf {
    let mut rng = StdRng::seed_from_u64(4242);
    let dataset = adult_like(&mut rng, 400);
    let (synth, prepared) =
        LabelledSynthesizer::prepare(&dataset.features, &dataset.labels, dataset.n_classes)
            .expect("prepare");
    let config = PgmConfig {
        latent_dim: 6,
        hidden_dim: 24,
        epochs: 2,
        batch_size: 64,
        ..PgmConfig::default()
    };
    let (model, _) = PhasedGenerativeModel::fit(&mut rng, &prepared, config).expect("train");
    let snapshot = SynthesisSnapshot::capture(model).with_synthesizer(synth);
    let dir = std::env::temp_dir().join(format!("p3gm_bench_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create model dir");
    std::fs::write(dir.join("bench.snapshot"), snapshot.to_bytes()).expect("write snapshot");
    dir
}

fn start_server(dir: &PathBuf, threads: usize) -> ServerHandle {
    start(
        ServerConfig::builder(dir)
            .threads(threads)
            .ledger_path(None)
            // The bench hammers one connection far past the production
            // default; the cap is a DoS bound, not a correctness one.
            .max_requests_per_connection(usize::MAX)
            .build(),
    )
    .expect("start server")
}

/// Aggregate requests/sec over `CLIENT_CONNECTIONS` concurrent
/// keep-alive connections each issuing `per_conn` requests.
fn multi_connection_rps(addr: SocketAddr, body: &str, per_conn: usize) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENT_CONNECTIONS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = KeepAliveClient::connect(addr);
                    for _ in 0..per_conn {
                        black_box(client.request(body).body.len());
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });
    (CLIENT_CONNECTIONS * per_conn) as f64 / t0.elapsed().as_secs_f64()
}

/// Mean milliseconds from request written to first response byte read,
/// over `iters` fresh connections (Connection: close, raw reads).
fn first_byte_latency_ms(addr: SocketAddr, body: &str, iters: usize) -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let request = format!(
            "POST /models/bench/sample HTTP/1.1\r\nHost: b\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("send request");
        let t0 = Instant::now();
        let mut probe = [0u8; 1];
        let got = stream.read(&mut probe).expect("first byte");
        assert_eq!(got, 1);
        total += t0.elapsed();
        // Drain the rest so the server finishes cleanly.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    }
    total.as_secs_f64() * 1000.0 / iters as f64
}

/// The live OS thread count of this process (server threads included —
/// the bench runs the server in-process).
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|entries| entries.count())
        .unwrap_or(0)
}

/// This process's open-files rlimit, from `/proc/self/limits`.
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("Max open files"))?
                .split_whitespace()
                .nth(3)?
                .parse()
                .ok()
        })
        .unwrap_or(1024)
}

/// Opens `n` keep-alive connections and completes one health round-trip
/// on each (all requests written before any response is read, so every
/// connection is simultaneously open), leaving all of them idle.
fn hold_idle_connections(addr: SocketAddr, n: usize) -> Vec<KeepAliveClient> {
    let mut conns: Vec<KeepAliveClient> = (0..n).map(|_| KeepAliveClient::connect(addr)).collect();
    for conn in conns.iter_mut() {
        conn.stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: b\r\nContent-Length: 0\r\n\r\n")
            .expect("idle probe send");
    }
    for conn in conns.iter_mut() {
        let resp = conn.reader.next_response().expect("idle probe response");
        assert_eq!(resp.status, 200, "every held connection must be served");
    }
    conns
}

/// The server's `p3gm_connections_open` gauge, scraped over one fresh
/// `Connection: close` request.
fn scrape_connections_open(addr: SocketAddr) -> f64 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream
        .write_all(
            b"GET /metrics HTTP/1.1\r\nHost: b\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
        )
        .expect("send scrape");
    let response = ResponseReader::new(stream)
        .next_response()
        .expect("read metrics");
    assert_eq!(response.status, 200, "metrics scrape must succeed");
    String::from_utf8(response.body)
        .expect("utf-8 exposition")
        .lines()
        .find(|line| line.starts_with("p3gm_connections_open"))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
        .expect("connection gauge value")
}

/// Holds N idle keep-alive connections while an active subset samples,
/// on a fixed thread budget. The stretch tier is sized to the fd limit —
/// two fds per in-process connection — and asserts the headline claim:
/// >= 1k connections held open with a bounded thread count.
fn bench_concurrent_conns(c: &mut Criterion, dir: &PathBuf, reference: &[u8]) {
    const EXECUTORS: usize = 2;
    let start_held_server = || -> ServerHandle {
        start(
            ServerConfig::builder(dir)
                .threads(EXECUTORS)
                .ledger_path(None)
                .max_requests_per_connection(usize::MAX)
                .keep_alive_timeout(Duration::from_secs(600))
                .build(),
        )
        .expect("start server")
    };

    for n in [64, 512, 4096] {
        let threads_baseline = os_thread_count();
        let server = start_held_server();
        let addr = server.addr();
        let idle = hold_idle_connections(addr, n);
        let threads_held = os_thread_count();
        println!(
            "serve/concurrent_conns_idle{n}/core=reactor: {n} connections \
             held by {} OS threads",
            threads_held - threads_baseline
        );
        assert!(
            threads_held - threads_baseline <= EXECUTORS + 2,
            "reactor must hold {n} connections without per-connection \
             threads: {threads_baseline} -> {threads_held}"
        );

        let mut active: Vec<KeepAliveClient> = (0..ACTIVE_SUBSET)
            .map(|_| KeepAliveClient::connect(addr))
            .collect();
        assert_eq!(
            active[0].request(SAMPLE_BODY).body,
            reference,
            "the reactor must serve byte-identical bodies under load"
        );
        let mut turn = 0usize;
        c.bench_function(
            &format!("serve/concurrent_conns_idle{n}/core=reactor"),
            |b| {
                b.iter(|| {
                    turn = turn.wrapping_add(1);
                    black_box(active[turn % ACTIVE_SUBSET].request(SAMPLE_BODY).body.len())
                })
            },
        );

        drop(active);
        drop(idle);
        server.shutdown();
    }

    // Stretch tier: as many connections as the fd limit allows, capped
    // at 10k. Each held in-process connection costs two fds (client +
    // server end), and the scrape/active clients need headroom, so the
    // herd is raw uncloned sockets verified through the server's own
    // `p3gm_connections_open` gauge rather than per-connection probes.
    let stretch = (fd_limit().saturating_sub(500) / 2).min(10_000);
    let threads_baseline = os_thread_count();
    let server = start_held_server();
    let addr = server.addr();
    let idle: Vec<TcpStream> = (0..stretch)
        .map(|_| TcpStream::connect(addr).expect("stretch connect"))
        .collect();
    // The reactor accepts the tail of the herd asynchronously; wait for
    // its connection gauge to account for every held socket.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = scrape_connections_open(addr);
        if open >= stretch as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reactor accepted only {open} of {stretch} stretch connections"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let threads_held = os_thread_count();
    assert!(
        stretch >= 1_000,
        "stretch tier must exercise >= 1k connections, fd limit {} allows \
         only {stretch}",
        fd_limit()
    );
    assert!(
        threads_held - threads_baseline <= 4,
        "reactor must hold {stretch} connections on a bounded thread count: \
         {threads_baseline} -> {threads_held}"
    );
    let mut active: Vec<KeepAliveClient> = (0..ACTIVE_SUBSET)
        .map(|_| KeepAliveClient::connect(addr))
        .collect();
    const STRETCH_REQS: usize = 400;
    let t0 = Instant::now();
    for i in 0..STRETCH_REQS {
        black_box(active[i % ACTIVE_SUBSET].request(SAMPLE_BODY).body.len());
    }
    let rps = STRETCH_REQS as f64 / t0.elapsed().as_secs_f64();
    println!(
        "serve/concurrent_conns_idle{stretch}/core=reactor (stretch, fd-limit \
         {}): {stretch} connections held by {} OS threads, active subset of \
         {ACTIVE_SUBSET} sustained {rps:.0} req/s",
        fd_limit(),
        threads_held - threads_baseline
    );
    drop(active);
    drop(idle);
    server.shutdown();
}

fn bench_serve(c: &mut Criterion) {
    let dir = prepare_model_dir();

    // Determinism gate: the same (model, seed, n) must serve identical
    // de-chunked bytes at every server thread count, from fresh and
    // reused connections alike.
    let reference = {
        let server = start_server(&dir, 1);
        let body = one_shot(server.addr(), SAMPLE_BODY).body;
        server.shutdown();
        body
    };
    for t in THREADS {
        let server = start_server(&dir, t);
        let addr = server.addr();
        assert_eq!(
            one_shot(addr, SAMPLE_BODY).body,
            reference,
            "response bodies must be byte-identical at {t} server threads"
        );
        let mut gate = KeepAliveClient::connect(addr);
        assert_eq!(
            gate.request(SAMPLE_BODY).body,
            reference,
            "keep-alive responses must equal fresh-connection responses"
        );
        drop(gate);

        c.bench_function(
            &format!("serve/connect_per_request_n64/threads={t}"),
            |bench| bench.iter(|| black_box(one_shot(addr, SAMPLE_BODY).body.len())),
        );
        let mut client = KeepAliveClient::connect(addr);
        c.bench_function(&format!("serve/keepalive_n64/threads={t}"), |bench| {
            bench.iter(|| black_box(client.request(SAMPLE_BODY).body.len()))
        });
        drop(client);

        let rps = multi_connection_rps(addr, LARGE_BODY, 24);
        let fbl = first_byte_latency_ms(addr, LARGE_BODY, 20);
        println!(
            "serve/multiconn_stream_n4096/threads={t}: {rps:.0} req/s aggregate \
             over {CLIENT_CONNECTIONS} keep-alive connections; \
             first-byte latency {fbl:.3} ms (chunked CSV, 4096 rows)"
        );

        server.shutdown();
    }

    // Metrics overhead on the keep-alive hot path: the same workload
    // with the default instrumentation (a handful of atomic increments
    // and one pre-registered histogram observe per request) versus
    // `ObsConfig::disabled()`. The assert is a regression tripwire with
    // a generous noise margin, not a micro-measurement: the overhead
    // must stay unobservable next to ~hundreds of microseconds of
    // synthesis + HTTP per request.
    let mut means_us = [0.0f64; 2];
    for (slot, (label, obs)) in [
        ("enabled", ObsConfig::enabled()),
        ("disabled", ObsConfig::disabled()),
    ]
    .into_iter()
    .enumerate()
    {
        let server = start(
            ServerConfig::builder(&dir)
                .threads(2)
                .ledger_path(None)
                .max_requests_per_connection(usize::MAX)
                .obs(obs)
                .build(),
        )
        .expect("start server");
        let addr = server.addr();
        let mut client = KeepAliveClient::connect(addr);
        c.bench_function(&format!("serve/metrics_overhead/obs={label}"), |bench| {
            bench.iter(|| black_box(client.request(SAMPLE_BODY).body.len()))
        });
        // Manual mean for the cross-config comparison below.
        const ITERS: usize = 200;
        for _ in 0..20 {
            black_box(client.request(SAMPLE_BODY).body.len());
        }
        let t0 = Instant::now();
        for _ in 0..ITERS {
            black_box(client.request(SAMPLE_BODY).body.len());
        }
        means_us[slot] = t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
        drop(client);
        server.shutdown();
    }
    let (enabled_us, disabled_us) = (means_us[0], means_us[1]);
    println!(
        "serve/metrics_overhead: obs=enabled {enabled_us:.1} us/req, \
         obs=disabled {disabled_us:.1} us/req ({:+.1}%)",
        (enabled_us / disabled_us - 1.0) * 100.0
    );
    assert!(
        enabled_us < disabled_us * 2.0,
        "metrics instrumentation must be unobservable on the keep-alive \
         path: enabled {enabled_us:.1} us vs disabled {disabled_us:.1} us"
    );

    bench_concurrent_conns(c, &dir, &reference);

    let _ = std::fs::remove_dir_all(&dir);
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

criterion_group! {
    name = serve;
    config = config();
    targets = bench_serve
}
criterion_main!(serve);
