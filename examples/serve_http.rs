//! Serve over HTTP: train P3GM once, write 100 tenant snapshots to a
//! model directory, start `p3gm-server` on an ephemeral port with a
//! residency budget holding ~3 decoded models, and drive it with a
//! plain `std::net::TcpStream` client — list all 100 models from
//! headers alone (zero weight payloads decoded), reuse one keep-alive
//! connection for two sampling requests (byte-identical to the same
//! requests on separate connections), download a large batch as a
//! chunked CSV stream, exhaust the privacy budget (HTTP 429), watch
//! LRU eviction in `GET /stats`, then shut down gracefully.
//!
//! Run with:
//! ```text
//! cargo run --release --example serve_http
//! ```
//!
//! The example is self-terminating (CI runs it).

use p3gm::core::config::PgmConfig;
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::{SnapshotHeader, SynthesisSnapshot};
use p3gm::core::synthesis::LabelledSynthesizer;
use p3gm::datasets::tabular::adult_like;
use p3gm::server::http::ResponseReader;
use p3gm::server::{json, start, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Writes one HTTP/1.1 request onto an (open, possibly reused) stream
/// in a single `write_all` (multiple small writes on a reused connection
/// would stall on Nagle + delayed ACK).
fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
}

/// One request on a fresh connection; returns `(status, body)`. The
/// framed reader de-chunks streamed bodies and stops at the response's
/// end — the whole client fits in a dozen lines of std + `p3gm::server::http`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    send(&mut stream, method, path, body);
    let response = ResponseReader::new(stream)
        .next_response()
        .expect("read response");
    (
        response.status,
        String::from_utf8(response.body).expect("utf-8 body"),
    )
}

fn main() {
    // 1. Train once — the only step that costs privacy budget.
    let mut rng = StdRng::seed_from_u64(11);
    let dataset = adult_like(&mut rng, 600);
    let (synthesizer, prepared) =
        LabelledSynthesizer::prepare(&dataset.features, &dataset.labels, dataset.n_classes)
            .expect("prepare training data");
    let config = PgmConfig {
        latent_dim: 6,
        hidden_dim: 32,
        epochs: 2,
        batch_size: 64,
        ..PgmConfig::default()
    };
    let (model, _, report) =
        PhasedGenerativeModel::fit_with_report(&mut rng, &prepared, config, None)
            .expect("train P3GM");
    let snapshot = SynthesisSnapshot::capture(model).with_synthesizer(synthesizer);
    let stamp = *snapshot.privacy_stamp().expect("private training stamps");
    println!("trained: certified {stamp}");
    // What the fit *did*, as deterministic telemetry. None of it fed back
    // into training or (ε, δ), but the clip counts and the EM trace are
    // computed from the private rows: the stamp does not cover them.
    print!("{}", report.render());

    // 2. The model directory is the server's unit of deployment: one
    //    snapshot file per model, plus the durable budget ledger. A
    //    hundred tenants share this node: the demo model plus 99 tenant
    //    snapshots (same trained weights, per-tenant names).
    let dir = std::env::temp_dir().join(format!("p3gm_serve_http_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create model dir");
    let bytes = snapshot.to_bytes();
    std::fs::write(dir.join("adult-demo.snapshot"), &bytes).expect("write snapshot");
    for i in 0..99 {
        std::fs::write(dir.join(format!("tenant-{i:03}.snapshot")), &bytes)
            .expect("write tenant snapshot");
    }

    // 3. Start the server with a residency budget holding ~3 models
    //    (the registry peeks each file's header at startup and decodes
    //    weights lazily on first request) and a privacy budget allowing
    //    five releases per model: each sampling response is charged the
    //    model's stamped ε, so the sixth request must be refused with
    //    429.
    let per_model = SnapshotHeader::peek(&bytes)
        .expect("peek snapshot header")
        .approx_resident_bytes();
    let server = start(
        ServerConfig::builder(&dir)
            .budget_epsilon(Some(5.5 * stamp.epsilon))
            .max_resident_bytes(Some(3 * per_model))
            .build(),
    )
    .expect("start server");
    let addr = server.addr();
    println!("serving {} model(s) on http://{addr}", server.model_count());
    assert_eq!(server.model_count(), 100);

    // 4. List the models — served from headers alone: all 100 listed,
    //    zero weight payloads decoded.
    let (status, body) = request(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    let listed = json::parse(&body)
        .expect("parse /models")
        .get("models")
        .and_then(|m| m.as_arr().map(|a| a.len()))
        .expect("models array");
    assert_eq!(listed, 100, "every tenant lists from its header");
    let stats = server.registry_stats();
    assert_eq!(
        (stats.loads, stats.resident_models),
        (0, 0),
        "listing 100 models must decode zero weight payloads"
    );
    println!("GET /models -> 100 tenants listed, 0 weight payloads decoded");

    // 5. Keep-alive: two sampling requests ride ONE connection, and each
    //    body is byte-identical to the same request on its own fresh
    //    connection — synthesis is deterministic per (model, seed, n)
    //    and the connection reuse is pure transport.
    let body_a = r#"{"seed": 42, "n": 20}"#;
    let body_b = r#"{"seed": 43, "n": 10}"#;
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = ResponseReader::new(stream.try_clone().expect("clone"));
    send(&mut stream, "POST", "/models/adult-demo/sample", body_a);
    let first = reader.next_response().expect("first keep-alive response");
    send(&mut stream, "POST", "/models/adult-demo/sample", body_b);
    let second = reader.next_response().expect("second keep-alive response");
    assert_eq!((first.status, second.status), (200, 200));
    assert_eq!(
        first.header("connection"),
        Some("keep-alive"),
        "the server must keep the HTTP/1.1 connection open"
    );
    drop(stream);
    let (_, fresh_a) = request(addr, "POST", "/models/adult-demo/sample", body_a);
    let (_, fresh_b) = request(addr, "POST", "/models/adult-demo/sample", body_b);
    assert_eq!(String::from_utf8(first.body).expect("utf-8"), fresh_a);
    assert_eq!(String::from_utf8(second.body).expect("utf-8"), fresh_b);
    println!("keep-alive verified: 2 requests on one connection, bodies byte-identical to fresh connections");

    // 6. Streamed large-batch download: 10k rows of CSV arrive as
    //    chunked Transfer-Encoding — the server generates and flushes
    //    them chunk by chunk, so the first byte lands long before the
    //    last row exists anywhere in memory.
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    send(
        &mut stream,
        "POST",
        "/models/adult-demo/sample",
        r#"{"seed": 7, "n": 10000, "format": "csv"}"#,
    );
    let streamed = ResponseReader::new(stream)
        .next_response()
        .expect("streamed response");
    assert_eq!(streamed.status, 200);
    assert!(streamed.chunked, "large batches stream as chunked CSV");
    let csv = String::from_utf8(streamed.body).expect("utf-8 csv");
    assert_eq!(csv.lines().count(), 10_000);
    println!(
        "streamed 10000 CSV rows ({} bytes, chunked) in {:?}",
        csv.len(),
        t0.elapsed()
    );

    // 7. The budget is now spent (5 × ε against a 5.5 × ε budget): the
    //    next request is refused with 429 and the remaining budget.
    let (status, body) = request(addr, "POST", "/models/adult-demo/sample", body_a);
    assert_eq!(status, 429, "sixth release must exhaust the budget: {body}");
    println!("sixth request refused: {body}");

    // 7b. Everything above is visible on GET /metrics as Prometheus
    //     text: request counts by route and status, the monotone 429
    //     denial counter, the per-model budget gauges, and the live
    //     connection gauge — scraped here while one idle keep-alive
    //     connection is deliberately held open alongside the scrape's
    //     own connection.
    let mut held = TcpStream::connect(addr).expect("connect held");
    held.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    send(&mut held, "GET", "/healthz", "");
    let mut held_reader = ResponseReader::new(held.try_clone().expect("clone held"));
    assert_eq!(
        held_reader.next_response().expect("held response").status,
        200
    );
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "p3gm_requests_total{route=\"/models/{name}/sample\",status=\"200\"}",
        "p3gm_budget_denials_total{model=\"adult-demo\"} 1",
        "p3gm_epsilon_spent{model=\"adult-demo\"}",
        "p3gm_epsilon_remaining{model=\"adult-demo\"}",
        "p3gm_connections_open",
    ] {
        assert!(metrics.contains(needle), "missing {needle:?} in /metrics");
    }
    let open: f64 = metrics
        .lines()
        .find(|l| l.starts_with("p3gm_connections_open"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("connection gauge value");
    assert!(
        open >= 2.0,
        "the held keep-alive connection and the scrape itself must both \
         show in p3gm_connections_open, got {open}"
    );
    drop(held_reader);
    drop(held);
    let shown: Vec<&str> = metrics
        .lines()
        .filter(|l| {
            l.starts_with("p3gm_requests_total")
                || l.starts_with("p3gm_budget_denials_total")
                || l.starts_with("p3gm_connections_open")
                || (l.starts_with("p3gm_epsilon_") && l.contains("adult-demo"))
        })
        .collect();
    println!("GET /metrics ->\n  {}", shown.join("\n  "));

    // 8. Touch six tenants: each first request decodes that tenant's
    //    weights, and the 3-model residency budget evicts the least
    //    recently used — visible in GET /stats. Every model stays
    //    listable and servable; only its weights page in and out.
    for i in 0..6 {
        let (status, _) = request(
            addr,
            "POST",
            &format!("/models/tenant-{i:03}/sample"),
            r#"{"seed": 1, "n": 5}"#,
        );
        assert_eq!(status, 200, "tenant-{i:03} must sample");
    }
    let (status, body) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    println!("GET /stats -> {body}");
    let stats = server.registry_stats();
    assert!(
        stats.resident_models <= 3,
        "residency budget holds ~3 models, {} resident",
        stats.resident_models
    );
    assert!(
        stats.evictions >= 3,
        "6 tenants through a 3-model budget must evict, got {}",
        stats.evictions
    );

    // 9. Graceful shutdown: stop accepting, drain idle keep-alive
    //    connections, finish in-flight work, join.
    server.shutdown();
    println!("server shut down cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}
