//! Integration tests for the `p3gm-server` HTTP surface: end-to-end
//! sampling over a real TCP socket is bit-identical to the in-process
//! snapshot (whether streamed with chunked Transfer-Encoding or
//! buffered), keep-alive connections serve multiple requests with the
//! same bytes as fresh connections, stalled clients get typed 408s
//! instead of pinning workers, malformed/hostile input gets typed
//! 4xx/5xx responses with zero panics, hot reload swaps models without
//! dropping the service, and the privacy budget ledger charges exactly
//! once per streamed response — even when the client aborts mid-stream —
//! and survives a server restart.

use p3gm::core::config::PgmConfig;
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::SynthesisSnapshot;
use p3gm::core::synthesis::LabelledSynthesizer;
use p3gm::core::VarianceMode;
use p3gm::linalg::Matrix;
use p3gm::privacy::sampling;
use p3gm::server::http::{
    read_request, HttpError, Limits, Method, RequestReader, Response, ResponseReader,
};
use p3gm::server::{json, start, ServerConfig, ServerHandle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Trains the shared test model once (the expensive fixture).
fn trained_snapshot() -> &'static SynthesisSnapshot {
    static SNAPSHOT: OnceLock<SynthesisSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(404);
        let rows: Vec<Vec<f64>> = (0..90)
            .map(|i| {
                let hot = i % 2 == 0;
                (0..6)
                    .map(|j| {
                        let base = if (j < 3) == hot { 0.85 } else { 0.15 };
                        (base + sampling::normal(&mut rng, 0.0, 0.05)).clamp(0.0, 1.0)
                    })
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..90).map(|i| i % 2).collect();
        let features = Matrix::from_rows(&rows).unwrap();
        let (synth, prepared) = LabelledSynthesizer::prepare(&features, &labels, 2).unwrap();
        let config = PgmConfig {
            latent_dim: 3,
            hidden_dim: 12,
            mog_components: 2,
            epochs: 3,
            batch_size: 16,
            learning_rate: 5e-3,
            clip_norm: 1.0,
            private: true,
            eps_p: 0.5,
            sigma_e: 50.0,
            em_iterations: 3,
            sigma_s: 1.0,
            delta: 1e-5,
            variance_mode: VarianceMode::Learned,
        };
        let (model, _) = PhasedGenerativeModel::fit(&mut rng, &prepared, config).unwrap();
        SynthesisSnapshot::capture(model).with_synthesizer(synth)
    })
}

/// A fresh model directory containing the shared snapshot under `name`.
fn model_dir(test: &str, names: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p3gm_server_it_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for name in names {
        std::fs::write(
            dir.join(format!("{name}.snapshot")),
            trained_snapshot().to_bytes(),
        )
        .unwrap();
    }
    dir
}

fn start_server(dir: &PathBuf, threads: usize, budget: Option<f64>) -> ServerHandle {
    start(
        ServerConfig::builder(dir)
            .threads(threads)
            .budget_epsilon(budget)
            .build(),
    )
    .unwrap()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

/// One-write request send (multiple small writes on a reused connection
/// would stall on Nagle + delayed ACK).
fn write_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
}

/// Minimal framed HTTP client: one fresh connection, one request,
/// de-chunks a streamed body; returns (status, head text, body text).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = connect(addr);
    write_request(&mut stream, method, path, body);
    let response = ResponseReader::new(stream).next_response().unwrap();
    unpack(response)
}

fn unpack(response: p3gm::server::http::ClientResponse) -> (u16, String, String) {
    let head: String = response
        .headers
        .iter()
        .map(|(n, v)| format!("{n}: {v}\r\n"))
        .collect();
    (
        response.status,
        head,
        String::from_utf8(response.body).unwrap(),
    )
}

/// Writes raw bytes (possibly malformed on purpose) and reads one framed
/// response (status 0 when the server closed without answering).
fn raw_request(addr: SocketAddr, bytes: &[u8]) -> (u16, String, String) {
    let mut stream = connect(addr);
    // Ignore write errors: the server may legitimately reject and close
    // before the full (hostile) request is sent.
    let _ = stream.write_all(bytes);
    match ResponseReader::new(stream).next_response() {
        Ok(response) => unpack(response),
        Err(_) => (0, String::new(), String::new()),
    }
}

#[test]
fn http_sampling_is_bit_identical_to_in_process_under_concurrency() {
    let dir = model_dir("concurrency", &["m"]);
    let server = start_server(&dir, 4, None);
    let addr = server.addr();

    // 4 concurrent clients, same (model, seed, n).
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let (status, _, body) =
                        request(addr, "POST", "/models/m/sample", r#"{"seed": 42, "n": 25}"#);
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "concurrent responses must be identical");
    }

    // The served rows are bit-identical to the in-process snapshot.
    let expected = trained_snapshot().sample(42, 25);
    let parsed = json::parse(&bodies[0]).unwrap();
    let rows = parsed.get("rows").unwrap().as_arr().unwrap();
    assert_eq!(rows.len(), 25);
    for (i, row) in rows.iter().enumerate() {
        let row = row.as_arr().unwrap();
        assert_eq!(row.len(), expected.cols());
        for (j, v) in row.iter().enumerate() {
            assert_eq!(
                v.as_f64().unwrap().to_bits(),
                expected.get(i, j).to_bits(),
                "row {i} col {j}"
            );
        }
    }

    // The stamp headers ride along and are constant.
    let (_, head, _) = request(addr, "POST", "/models/m/sample", r#"{"seed": 42, "n": 25}"#);
    assert!(head.contains("x-p3gm-privacy: ("), "{head}");
    assert!(head.contains("x-p3gm-epsilon-spent: "), "{head}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_alive_connection_serves_many_requests_with_fresh_connection_bytes() {
    let dir = model_dir("keepalive", &["m"]);
    let server = start_server(&dir, 2, None);
    let addr = server.addr();

    // Two sampling requests and a discovery request ride one connection.
    let mut stream = connect(addr);
    write_request(
        &mut stream,
        "POST",
        "/models/m/sample",
        r#"{"seed": 5, "n": 30}"#,
    );
    let mut client = ResponseReader::new(stream.try_clone().unwrap());
    let first = client.next_response().unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("connection"), Some("keep-alive"));
    assert!(first.chunked, "HTTP/1.1 sampling responses stream");
    write_request(
        &mut stream,
        "POST",
        "/models/m/sample",
        r#"{"seed": 6, "n": 10}"#,
    );
    let second = client.next_response().unwrap();
    assert_eq!(second.status, 200);
    write_request(&mut stream, "GET", "/healthz", "");
    let third = client.next_response().unwrap();
    assert_eq!(third.status, 200);

    // Byte-identical to the same requests on fresh connections.
    let (_, _, fresh_first) = request(addr, "POST", "/models/m/sample", r#"{"seed": 5, "n": 30}"#);
    let (_, _, fresh_second) = request(addr, "POST", "/models/m/sample", r#"{"seed": 6, "n": 10}"#);
    assert_eq!(String::from_utf8(first.body).unwrap(), fresh_first);
    assert_eq!(String::from_utf8(second.body).unwrap(), fresh_second);

    // An explicit Connection: close is honored.
    let mut stream = connect(addr);
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut client = ResponseReader::new(stream.try_clone().unwrap());
    let resp = client.next_response().unwrap();
    assert_eq!(resp.header("connection"), Some("close"));
    // The server closed: the next read sees EOF.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_per_connection_are_bounded() {
    let dir = model_dir("reqcap", &["m"]);
    let server = start(
        ServerConfig::builder(&dir)
            .max_requests_per_connection(2)
            .build(),
    )
    .unwrap();
    let addr = server.addr();

    let mut stream = connect(addr);
    let mut client = ResponseReader::new(stream.try_clone().unwrap());
    write_request(&mut stream, "GET", "/healthz", "");
    let first = client.next_response().unwrap();
    assert_eq!(first.header("connection"), Some("keep-alive"));
    write_request(&mut stream, "GET", "/healthz", "");
    let second = client.next_response().unwrap();
    assert_eq!(
        second.header("connection"),
        Some("close"),
        "the final allowed request must announce the close"
    );
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_and_trickling_clients_get_a_typed_408() {
    let dir = model_dir("slowloris", &["m"]);
    let server = start(
        ServerConfig::builder(&dir)
            .request_read_timeout(Duration::from_millis(300))
            .keep_alive_timeout(Duration::from_secs(5))
            .build(),
    )
    .unwrap();
    let addr = server.addr();

    // A partial request line followed by silence: the read deadline
    // expires and the worker answers 408 instead of blocking forever.
    let mut stream = connect(addr);
    stream.write_all(b"GET /mod").unwrap();
    let resp = ResponseReader::new(stream).next_response().unwrap();
    assert_eq!(resp.status, 408);
    assert_eq!(resp.header("connection"), Some("close"));

    // Trickling one byte at a time does not reset the deadline.
    let mut stream = connect(addr);
    let head = b"GET /healthz HTTP/1.1\r\n";
    let start_t = std::time::Instant::now();
    for &b in head.iter() {
        if stream.write_all(&[b]).is_err() {
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
        if start_t.elapsed() > Duration::from_secs(2) {
            break;
        }
    }
    let resp = ResponseReader::new(stream).next_response().unwrap();
    assert_eq!(resp.status, 408, "trickled head must hit the deadline");

    // The server still serves normal requests afterwards.
    let (status, _, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_connections_are_closed_silently() {
    let dir = model_dir("idle", &["m"]);
    let server = start(
        ServerConfig::builder(&dir)
            .keep_alive_timeout(Duration::from_millis(200))
            .build(),
    )
    .unwrap();
    let addr = server.addr();

    // A connection that never sends a byte is dropped without a
    // response once the idle window passes.
    let mut stream = connect(addr);
    let mut probe = [0u8; 1];
    assert_eq!(
        stream.read(&mut probe).unwrap_or(0),
        0,
        "idle connection must see EOF, not a response"
    );

    // A keep-alive connection idles out after its response too.
    let mut stream = connect(addr);
    write_request(&mut stream, "GET", "/healthz", "");
    let mut client = ResponseReader::new(stream.try_clone().unwrap());
    assert_eq!(client.next_response().unwrap().status, 200);
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends a `GET first` and reads its keep-alive response (when `first` is
/// given), then sends `then`, half-closes, and returns the status of every
/// response the server writes before it closes.
fn statuses_after_close(addr: SocketAddr, first: Option<&str>, then: &[u8]) -> Vec<u16> {
    let mut stream = connect(addr);
    let mut reader = ResponseReader::new(stream.try_clone().unwrap());
    if let Some(path) = first {
        write_request(&mut stream, "GET", path, "");
        let response = reader.next_response().unwrap();
        assert_eq!(response.header("connection"), Some("keep-alive"));
    }
    stream.write_all(then).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut statuses = Vec::new();
    loop {
        match reader.next_response() {
            Ok(response) => statuses.push(response.status),
            Err(err) => {
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
                return statuses;
            }
        }
    }
}

#[test]
fn closing_between_requests_is_silent_and_closing_mid_request_is_a_400() {
    let dir = model_dir("eof", &[]);
    let server = start_server(&dir, 1, None);
    let addr = server.addr();
    // On a fresh connection and after a keep-alive response alike.
    for first in [None, Some("/healthz")] {
        // No byte of a next request: the server closes without a word.
        assert_eq!(
            statuses_after_close(addr, first, b""),
            Vec::<u16>::new(),
            "{first:?}"
        );
        // Any byte counts, even a lone CRLF the parser skips: the close
        // cuts a request short and gets a 400 first.
        for then in [&b"\r\n"[..], b"GET /models HTTP/1.1\r\nHost"] {
            let shown = String::from_utf8_lossy(then);
            assert_eq!(
                statuses_after_close(addr, first, then),
                [400],
                "{first:?} then {shown:?}"
            );
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A head with a bare LF can never complete, so it gets its 400 as soon as
/// the LF arrives: the client (10 s read timeout) holds the connection
/// open and would otherwise wait out the 60 s request-read deadline.
#[test]
fn bare_lf_heads_get_a_400_at_once() {
    let dir = model_dir("bare-lf", &[]);
    let server = start(
        ServerConfig::builder(&dir)
            .request_read_timeout(Duration::from_secs(60))
            .build(),
    )
    .unwrap();
    for (head, error) in [
        (
            &b"GET /healthz HTTP/1.1\nHost: t\n\n"[..],
            "malformed request line",
        ),
        (
            b"GET /healthz HTTP/1.1\r\nHost: t\n\r\n",
            "malformed header",
        ),
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(head).unwrap();
        let (status, _, body) = unpack(ResponseReader::new(stream).next_response().unwrap());
        assert_eq!(status, 400, "{head:?}");
        assert!(body.contains(error), "{head:?} -> {body}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Duration::MAX` disables a deadline rather than overflowing the
/// reactor's `Instant` arithmetic: the server keeps answering new
/// connections, and a response whose writes block while the client
/// holds off reading still arrives whole.
#[test]
fn duration_max_timeouts_disable_their_deadlines() {
    let dir = model_dir("max_timeouts", &["m"]);
    let server = start(
        ServerConfig::builder(&dir)
            .threads(2)
            .io_timeout(Duration::MAX)
            .request_read_timeout(Duration::MAX)
            .keep_alive_timeout(Duration::MAX)
            .build(),
    )
    .unwrap();
    let addr = server.addr();
    for _ in 0..2 {
        let (status, _, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }

    // Megabytes of CSV, far beyond what the loopback socket buffers hold
    // while the client sleeps, so the server's writes block.
    let n = 60_000usize;
    let mut stream = connect(addr);
    write_request(
        &mut stream,
        "POST",
        "/models/m/sample",
        &format!("{{\"seed\": 3, \"n\": {n}, \"format\": \"csv\"}}"),
    );
    std::thread::sleep(Duration::from_millis(500));
    let response = ResponseReader::new(stream).next_response().unwrap();
    assert_eq!(response.status, 200);
    let expected: String = trained_snapshot()
        .sample(3, n)
        .row_iter()
        .map(|row| {
            let fields: Vec<String> = row.iter().map(f64::to_string).collect();
            fields.join(",") + "\n"
        })
        .collect();
    assert!(response.body.len() > 4 << 20, "{}", response.body.len());
    assert_eq!(response.body, expected.into_bytes());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_bodies_are_chunked_bounded_and_byte_identical_to_buffered() {
    let dir = model_dir("stream", &["m"]);
    let server = start_server(&dir, 2, None);
    let addr = server.addr();
    let n = 3000usize;
    let sample_body = format!("{{\"seed\": 8, \"n\": {n}, \"format\": \"csv\"}}");

    // Read the raw wire bytes so the chunk framing itself is visible.
    let mut stream = connect(addr);
    write!(
        stream,
        "POST /models/m/sample HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{sample_body}",
        sample_body.len()
    )
    .unwrap();
    let mut wire = Vec::new();
    stream.read_to_end(&mut wire).unwrap();
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    let head = String::from_utf8_lossy(&wire[..head_end]).to_string();
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    assert!(!head.contains("Content-Length"), "{head}");

    // De-chunk by hand, recording every chunk size: the response must
    // arrive in many bounded chunks, never one full-body buffer.
    let mut rest = &wire[head_end + 4..];
    let mut body = Vec::new();
    let mut sizes = Vec::new();
    loop {
        let line_end = rest.windows(2).position(|w| w == b"\r\n").unwrap();
        let size =
            usize::from_str_radix(std::str::from_utf8(&rest[..line_end]).unwrap().trim(), 16)
                .unwrap();
        rest = &rest[line_end + 2..];
        if size == 0 {
            break;
        }
        sizes.push(size);
        body.extend_from_slice(&rest[..size]);
        assert_eq!(&rest[size..size + 2], b"\r\n");
        rest = &rest[size + 2..];
    }
    assert!(
        sizes.len() >= n / 512,
        "{n} rows must stream in >= {} chunks, got {}",
        n / 512,
        sizes.len()
    );
    let max_chunk = sizes.iter().max().unwrap();
    assert!(
        *max_chunk < body.len() / 2,
        "no chunk may approach the full body ({max_chunk} of {})",
        body.len()
    );

    // The de-chunked stream equals the buffered HTTP/1.0 body…
    let mut stream = connect(addr);
    write!(
        stream,
        "POST /models/m/sample HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{sample_body}",
        sample_body.len()
    )
    .unwrap();
    let buffered = ResponseReader::new(stream).next_response().unwrap();
    assert_eq!(buffered.status, 200);
    assert!(!buffered.chunked, "HTTP/1.0 must get a buffered body");
    assert_eq!(buffered.body, body);

    // …and both equal the in-process sample stream, value for value.
    let expected = trained_snapshot().sample(8, n);
    let text = String::from_utf8(body).unwrap();
    assert_eq!(text.lines().count(), n);
    for (i, line) in text.lines().enumerate().step_by(97) {
        for (j, field) in line.split(',').enumerate() {
            let v: f64 = field.parse().unwrap();
            assert_eq!(v.to_bits(), expected.get(i, j).to_bits(), "row {i}");
        }
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_stream_abort_charges_the_ledger_exactly_once() {
    let dir = model_dir("abort", &["m"]);
    let stamp = trained_snapshot().privacy_stamp().copied().unwrap();
    let server = start_server(&dir, 2, Some(100.0 * stamp.epsilon));
    let addr = server.addr();

    // Request a big streamed batch, read a token amount, then slam the
    // connection shut mid-stream.
    let body = r#"{"seed": 3, "n": 80000, "format": "csv"}"#;
    let mut stream = connect(addr);
    write_request(&mut stream, "POST", "/models/m/sample", body);
    let mut first = [0u8; 256];
    let mut got = 0;
    while got < "HTTP/1.1 200".len() {
        let n = stream.read(&mut first[got..]).unwrap();
        assert!(n > 0, "the stream must start before the abort");
        got += n;
    }
    assert!(
        String::from_utf8_lossy(&first[..got]).starts_with("HTTP/1.1 200"),
        "the charge precedes the first chunk; got {:?}",
        String::from_utf8_lossy(&first[..got])
    );
    drop(stream);

    // The aborted release still cost exactly one ε — no more (the
    // abort must not re-charge) and no less (rows were released).
    let spent = |addr| {
        let (_, _, detail) = request(addr, "GET", "/models/m", "");
        json::parse(&detail)
            .unwrap()
            .get("budget")
            .unwrap()
            .get("spent_epsilon")
            .unwrap()
            .as_f64()
            .unwrap()
    };
    // Give the worker a moment to hit the broken pipe and finish.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        spent(addr).to_bits(),
        stamp.epsilon.to_bits(),
        "mid-stream abort must leave exactly one charge"
    );

    // The worker survived the abort and a full request charges again.
    let (status, _, _) = request(addr, "POST", "/models/m/sample", r#"{"seed": 3, "n": 5}"#);
    assert_eq!(status, 200);
    assert_eq!(spent(addr).to_bits(), (2.0 * stamp.epsilon).to_bits());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn discovery_endpoints_report_geometry_and_stamp() {
    let dir = model_dir("discovery", &["m"]);
    let server = start_server(&dir, 2, None);
    let addr = server.addr();

    let (status, _, body) = request(addr, "GET", "/", "");
    assert_eq!(status, 200);
    assert!(body.contains("p3gm-server"));

    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"models\":1"));

    let snapshot = trained_snapshot();
    let stamp = snapshot.privacy_stamp().unwrap();
    let (status, _, body) = request(addr, "GET", "/models/m", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    assert_eq!(
        parsed.get("data_dim").unwrap().as_u64(),
        Some(snapshot.model().data_dim() as u64)
    );
    assert_eq!(parsed.get("n_classes").unwrap().as_u64(), Some(2));
    let privacy = parsed.get("privacy").unwrap();
    assert_eq!(
        privacy.get("epsilon").unwrap().as_f64().unwrap().to_bits(),
        stamp.epsilon.to_bits(),
        "the reported ε is the recomputed stamp, bit-exact"
    );

    let (status, _, _) = request(addr, "GET", "/models/absent", "");
    assert_eq!(status, 404);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_requests_get_typed_4xx_and_the_server_survives() {
    let dir = model_dir("malformed", &["m"]);
    let server = start_server(&dir, 2, None);
    let addr = server.addr();

    // (raw bytes, expected status)
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET / HTTP/1.1 extra words\r\n\r\n".to_vec(), 400),
        (b"PUT /models HTTP/1.1\r\n\r\n".to_vec(), 405),
        (b"GET /models HTTP/2.0\r\n\r\n".to_vec(), 505),
        (b"DELETE /models/m HTTP/1.1\r\n\r\n".to_vec(), 405),
        (b"GET /nope HTTP/1.1\r\n\r\n".to_vec(), 404),
        (b"GET /models/m/sample HTTP/1.1\r\n\r\n".to_vec(), 405),
        (b"POST /models HTTP/1.1\r\n\r\n".to_vec(), 405),
        (
            b"POST /models/m/sample HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson".to_vec(),
            400,
        ),
        (
            b"POST /models/m/sample HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /models/m/sample HTTP/1.1\r\nContent-Length: 14\r\n\r\n{\"seed\":\"x\"}..".to_vec(),
            400,
        ),
        (
            b"POST /models/absent/sample HTTP/1.1\r\nContent-Length: 20\r\n\r\n{\"seed\": 1, \"n\": 10}".to_vec(),
            404,
        ),
        (
            b"POST /models/m/sample HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        (
            b"POST /models/m/sample HTTP/1.1\r\nContent-Length: zzz\r\n\r\n".to_vec(),
            400,
        ),
        (
            format!(
                "GET /models HTTP/1.1\r\nX-Huge: {}\r\n\r\n",
                "h".repeat(64 * 1024)
            )
            .into_bytes(),
            431,
        ),
        (
            format!(
                "POST /models/m/sample HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                16 * 1024 * 1024
            )
            .into_bytes(),
            413,
        ),
    ];
    for (bytes, expected) in cases {
        let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(60)]).into_owned();
        let (status, _, body) = raw_request(addr, &bytes);
        assert_eq!(status, expected, "{shown:?} -> {body}");
        assert!(body.contains("error") || expected < 400, "{shown:?}");
    }

    // Over-limit n and bad fields through the well-formed client path.
    let (status, _, _) = request(
        addr,
        "POST",
        "/models/m/sample",
        r#"{"seed": 1, "n": 999999999}"#,
    );
    assert_eq!(status, 400);
    let (status, _, _) = request(
        addr,
        "POST",
        "/models/m/sample",
        r#"{"seed": 1, "n": 5, "labels": [9, 9]}"#,
    );
    assert_eq!(status, 400);

    // After all that abuse the server still serves.
    let (status, _, _) = request(addr, "POST", "/models/m/sample", r#"{"seed": 3, "n": 2}"#);
    assert_eq!(status, 200);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_row_requests_and_csv_format_are_served() {
    let dir = model_dir("formats", &["m"]);
    let server = start_server(&dir, 2, None);
    let addr = server.addr();

    let (status, _, body) = request(addr, "POST", "/models/m/sample", r#"{"seed": 1, "n": 0}"#);
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    assert_eq!(parsed.get("n").unwrap().as_u64(), Some(0));
    assert_eq!(parsed.get("rows").unwrap().as_arr().unwrap().len(), 0);

    let csv_req = r#"{"seed": 7, "n": 4, "format": "csv"}"#;
    let (status, head, body_a) = request(addr, "POST", "/models/m/sample", csv_req);
    assert_eq!(status, 200);
    assert!(head.contains("text/csv"));
    let (_, _, body_b) = request(addr, "POST", "/models/m/sample", csv_req);
    assert_eq!(body_a, body_b, "CSV bodies are deterministic too");
    assert_eq!(body_a.lines().count(), 4);
    // Every CSV value parses back to the exact in-process sample bits.
    let expected = trained_snapshot().sample(7, 4);
    for (i, line) in body_a.lines().enumerate() {
        for (j, field) in line.split(',').enumerate() {
            let v: f64 = field.parse().unwrap();
            assert_eq!(v.to_bits(), expected.get(i, j).to_bits());
        }
    }

    // Labelled synthesis over HTTP: per-class counts, labels in the body.
    let (status, _, body) = request(
        addr,
        "POST",
        "/models/m/sample",
        r#"{"seed": 5, "labels": [3, 2]}"#,
    );
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    let labels = parsed.get("labels").unwrap().as_arr().unwrap();
    assert_eq!(labels.len(), 5);
    let ones = labels.iter().filter(|l| l.as_u64() == Some(1)).count();
    assert_eq!(ones, 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_exhaustion_is_429_and_survives_restart() {
    let dir = model_dir("budget", &["m"]);
    let stamp = trained_snapshot().privacy_stamp().copied().unwrap();
    let budget = Some(1.5 * stamp.epsilon);

    let server = start_server(&dir, 2, budget);
    let addr = server.addr();
    let body = r#"{"seed": 9, "n": 3}"#;
    let (status, head, _) = request(addr, "POST", "/models/m/sample", body);
    assert_eq!(status, 200);
    assert!(head.contains("x-p3gm-epsilon-remaining: "), "{head}");
    // A request that can only be answered 400 (wrong class count for a
    // 2-class model) must not burn budget: it is rejected before the
    // charge, so the next valid request still gets the remaining ε.
    let (status, _, _) = request(
        addr,
        "POST",
        "/models/m/sample",
        r#"{"seed": 9, "labels": [1, 1, 1]}"#,
    );
    assert_eq!(status, 400);
    let (_, _, detail) = request(addr, "GET", "/models/m", "");
    let spent_after_400 = json::parse(&detail)
        .unwrap()
        .get("budget")
        .unwrap()
        .get("spent_epsilon")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(
        spent_after_400.to_bits(),
        stamp.epsilon.to_bits(),
        "a 400-rejected request must not change the spent budget"
    );
    let (status, _, refusal) = request(addr, "POST", "/models/m/sample", body);
    assert_eq!(status, 429, "{refusal}");
    let parsed = json::parse(&refusal).unwrap();
    assert_eq!(
        parsed
            .get("spent_epsilon")
            .unwrap()
            .as_f64()
            .unwrap()
            .to_bits(),
        stamp.epsilon.to_bits()
    );
    assert!(parsed.get("remaining_epsilon").unwrap().as_f64().unwrap() >= 0.0);
    server.shutdown();

    // Restart on the same directory: the ledger file (p3gm-store codec)
    // still holds the spend, so the very first request is refused.
    let server = start_server(&dir, 2, budget);
    let (status, _, _) = request(server.addr(), "POST", "/models/m/sample", body);
    assert_eq!(status, 429, "restart must not reset spent budget");
    // Read-only endpoints still work and report the persisted spend.
    let (status, _, body) = request(server.addr(), "GET", "/models/m", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    let spent = parsed
        .get("budget")
        .unwrap()
        .get("spent_epsilon")
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(spent.to_bits(), stamp.epsilon.to_bits());
    server.shutdown();

    // A corrupt ledger file refuses to open (typed error), never resets.
    let ledger_path = dir.join("ledger.p3gm");
    let mut bytes = std::fs::read(&ledger_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&ledger_path, &bytes).unwrap();
    assert!(start(ServerConfig::builder(&dir).budget_epsilon(budget).build()).is_err());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_reload_swaps_adds_and_removes_models_without_downtime() {
    let dir = model_dir("reload", &["a"]);
    // Start with a *bare* variant of "a" (no synthesizer): detail shows
    // n_classes null.
    let bare = SynthesisSnapshot::capture(trained_snapshot().model().clone());
    std::fs::write(dir.join("a.snapshot"), bare.to_bytes()).unwrap();

    let server = start_server(&dir, 2, None);
    let addr = server.addr();
    let (_, _, body) = request(addr, "GET", "/models/a", "");
    assert_eq!(
        json::parse(&body).unwrap().get("n_classes"),
        Some(&json::Json::Null)
    );
    let (_, _, body) = request(addr, "GET", "/models", "");
    let listed = json::parse(&body).unwrap();
    assert_eq!(listed.get("models").unwrap().as_arr().unwrap().len(), 1);

    // Change "a" (now with synthesizer), add "b", add a corrupt "c".
    std::fs::write(dir.join("a.snapshot"), trained_snapshot().to_bytes()).unwrap();
    std::fs::write(dir.join("b.snapshot"), trained_snapshot().to_bytes()).unwrap();
    std::fs::write(
        dir.join("c.snapshot"),
        b"this is long enough to frame-check but is not a p3gm snapshot",
    )
    .unwrap();

    let (status, _, body) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200);
    let report = json::parse(&body).unwrap();
    let loaded = report.get("loaded").unwrap().as_arr().unwrap();
    assert!(
        loaded.iter().any(|v| v.as_str() == Some("a"))
            && loaded.iter().any(|v| v.as_str() == Some("b")),
        "{body}"
    );
    assert_eq!(report.get("failed").unwrap().as_arr().unwrap().len(), 1);

    // The swapped "a" now has the synthesizer; "b" serves; "c" does not.
    let (_, _, body) = request(addr, "GET", "/models/a", "");
    assert_eq!(
        json::parse(&body)
            .unwrap()
            .get("n_classes")
            .unwrap()
            .as_u64(),
        Some(2)
    );
    let (status, _, _) = request(addr, "POST", "/models/b/sample", r#"{"seed": 1, "n": 2}"#);
    assert_eq!(status, 200);
    let (status, _, _) = request(addr, "GET", "/models/c", "");
    assert_eq!(status, 404);

    // Remove "b": a reload drops it; "a" is untouched (unchanged file).
    std::fs::remove_file(dir.join("b.snapshot")).unwrap();
    let (_, _, body) = request(addr, "POST", "/reload", "");
    let report = json::parse(&body).unwrap();
    let removed = report.get("removed").unwrap().as_arr().unwrap();
    assert!(removed.iter().any(|v| v.as_str() == Some("b")), "{body}");
    let unchanged = report.get("unchanged").unwrap().as_arr().unwrap();
    assert!(unchanged.iter().any(|v| v.as_str() == Some("a")), "{body}");
    let (status, _, _) = request(addr, "GET", "/models/b", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "POST", "/models/a/sample", r#"{"seed": 1, "n": 2}"#);
    assert_eq!(status, 200);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes into the request parser: never a panic, always
    /// either a parsed request or a typed error mapping to 4xx/5xx.
    #[test]
    fn request_parser_never_panics_on_arbitrary_bytes(
        len in 0usize..384,
        pool in proptest::collection::vec(0u32..256, 384)
    ) {
        let bytes: Vec<u8> = pool.iter().take(len).map(|&b| b as u8).collect();
        let limits = Limits::default();
        match read_request(&mut Cursor::new(bytes), &limits) {
            Ok(req) => prop_assert!(req.target.starts_with('/')),
            Err(e) => {
                let status = e.status();
                prop_assert!((400..=599).contains(&status), "{e:?} -> {status}");
            }
        }
    }

    /// Structured-ish garbage: an almost-valid head with fuzzed method,
    /// target and header bytes exercises the deeper parser branches,
    /// under the default limits and under operator-set `usize::MAX`
    /// limits, with Content-Lengths small or near `u64::MAX`.
    #[test]
    fn request_parser_never_panics_on_fuzzed_heads(
        method_pool in proptest::collection::vec(0u32..256, 6),
        target_pool in proptest::collection::vec(0u32..256, 12),
        header_pool in proptest::collection::vec(0u32..256, 24),
        length_pick in 0u64..128,
        max_limits in any::<bool>()
    ) {
        // Half the picks are sent in full, half claim u64::MAX - k bytes.
        let (content_length, sent) = if length_pick < 64 {
            (length_pick, length_pick as usize)
        } else {
            (u64::MAX - (length_pick - 64), 0)
        };
        let limits = if max_limits {
            Limits {
                max_head_bytes: usize::MAX,
                max_headers: usize::MAX,
                max_body_bytes: usize::MAX,
            }
        } else {
            Limits::default()
        };
        let method: Vec<u8> = method_pool.iter().map(|&b| b as u8).collect();
        let target: Vec<u8> = target_pool.iter().map(|&b| b as u8).collect();
        let header: Vec<u8> = header_pool.iter().map(|&b| b as u8).collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&method);
        bytes.push(b' ');
        bytes.extend_from_slice(&target);
        bytes.extend_from_slice(b" HTTP/1.1\r\n");
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(format!("Content-Length: {content_length}\r\n\r\n").as_bytes());
        bytes.extend_from_slice(&vec![b'x'; sent]);
        match read_request(&mut Cursor::new(bytes), &limits) {
            Ok(req) => prop_assert_eq!(req.body.len() as u64, content_length),
            Err(e) => prop_assert!((400..=599).contains(&e.status())),
        }
    }

    /// Keep-alive sequences: one valid request followed by arbitrary
    /// bytes. The reader must answer the valid prefix exactly (method,
    /// target, body intact) and then never panic on the junk — every
    /// subsequent call is another parsed request or a typed error.
    #[test]
    fn request_reader_answers_the_valid_prefix_then_survives_junk(
        body_len in 0usize..48,
        junk_len in 0usize..128,
        junk_pool in proptest::collection::vec(0u32..256, 128),
        target_tail in 0u32..100_000
    ) {
        let target = format!("/models/m{target_tail}");
        let body: Vec<u8> = (0..body_len).map(|i| (i % 251) as u8).collect();
        let mut bytes = format!(
            "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {body_len}\r\n\r\n"
        )
        .into_bytes();
        bytes.extend_from_slice(&body);
        bytes.extend(junk_pool.iter().take(junk_len).map(|&b| b as u8));

        let mut reader = RequestReader::new(Cursor::new(bytes));
        let limits = Limits::default();
        let first = reader.next_request(&limits).unwrap();
        prop_assert_eq!(first.method, Method::Post);
        prop_assert_eq!(first.target, target);
        prop_assert_eq!(first.body, body);
        // The junk after the valid prefix: parsed or typed-rejected,
        // never a panic, and the sequence terminates.
        for _ in 0..8 {
            match reader.next_request(&limits) {
                Ok(req) => prop_assert!(req.target.starts_with('/')),
                Err(e) => {
                    prop_assert!((400..=599).contains(&e.status()));
                    break;
                }
            }
        }
    }

    /// The chunked-encoding writer round-trips any payload under any
    /// chunk split: encode with `ResponseBody::Chunked`, de-chunk with
    /// the client reader, recover the exact bytes.
    #[test]
    fn chunked_writer_roundtrips_arbitrary_splits(
        payload_len in 0usize..512,
        payload_pool in proptest::collection::vec(0u32..256, 512),
        splits in proptest::collection::vec(1usize..96, 8),
        keep_alive_pick in 0u32..2
    ) {
        let keep_alive = keep_alive_pick == 1;
        let payload: Vec<u8> = payload_pool
            .iter()
            .take(payload_len)
            .map(|&b| b as u8)
            .collect();
        // Carve the payload into blocks at the arbitrary split sizes
        // (cycling); empty blocks legal — the writer must skip them.
        let mut blocks: Vec<Vec<u8>> = Vec::new();
        let mut rest = payload.as_slice();
        let mut i = 0;
        while !rest.is_empty() {
            let take = splits[i % splits.len()].min(rest.len());
            blocks.push(rest[..take].to_vec());
            rest = &rest[take..];
            i += 1;
            if i % 3 == 0 {
                blocks.push(Vec::new());
            }
        }
        let mut iter = blocks.into_iter();
        let mut resp = Response::chunked("application/octet-stream", Box::new(move || iter.next()));
        let mut wire = Vec::new();
        resp.write_to(&mut wire, keep_alive).unwrap();
        let parsed = ResponseReader::new(Cursor::new(wire)).next_response().unwrap();
        prop_assert_eq!(parsed.status, 200);
        prop_assert!(parsed.chunked);
        prop_assert_eq!(parsed.body, payload);
        prop_assert_eq!(
            parsed.header("connection"),
            Some(if keep_alive { "keep-alive" } else { "close" })
        );
    }

    /// Arbitrary bytes into the JSON parser (the request-body path):
    /// never a panic, and parse-serialize-parse is a fixed point.
    #[test]
    fn json_parser_never_panics_and_reserialization_is_stable(
        len in 0usize..128,
        pool in proptest::collection::vec(0u32..256, 128)
    ) {
        let bytes: Vec<u8> = pool.iter().take(len).map(|&b| b as u8).collect();
        if let Ok(text) = std::str::from_utf8(&bytes) {
            if let Ok(value) = json::parse(text) {
                let once = value.to_string();
                let twice = json::parse(&once).unwrap().to_string();
                prop_assert_eq!(once, twice);
            }
        }
    }

    /// Valid-JSON fuzz: structured documents with arbitrary numbers and
    /// strings always round-trip value-identically.
    #[test]
    fn json_round_trips_structured_documents(
        seed_v in 0.0f64..9e15,
        n in 0u32..1000,
        name_pool in proptest::collection::vec(0u32..256, 8)
    ) {
        let name: String = name_pool
            .iter()
            .filter_map(|&c| char::from_u32(c))
            .collect();
        let doc = json::Json::Obj(vec![
            ("seed".to_string(), json::Json::Num(seed_v.trunc())),
            ("n".to_string(), json::Json::Num(f64::from(n))),
            ("name".to_string(), json::Json::Str(name)),
        ]);
        let text = doc.to_string();
        let back = json::parse(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// HttpError::status is total over the error space reachable from
    /// sockets (every variant yields a 4xx/5xx with a reason phrase).
    #[test]
    fn http_errors_always_map_to_responses(pick in 0usize..11) {
        let errors = [
            HttpError::Incomplete,
            HttpError::BadRequestLine,
            HttpError::UnsupportedMethod,
            HttpError::UnsupportedVersion,
            HttpError::BadHeader,
            HttpError::HeadTooLarge,
            HttpError::TooManyHeaders,
            HttpError::BadContentLength,
            HttpError::BodyTooLarge,
            HttpError::UnsupportedTransferEncoding,
            HttpError::Io(std::io::ErrorKind::TimedOut),
        ];
        let e = &errors[pick];
        prop_assert!((400..=599).contains(&e.status()));
        prop_assert!(!e.to_string().is_empty());
    }
}

#[test]
fn metrics_endpoint_exposes_requests_denials_and_budget_end_to_end() {
    use p3gm::obs::{AccessLogTarget, ObsConfig};

    let dir = model_dir("metrics", &["m"]);
    let stamp = trained_snapshot().privacy_stamp().copied().unwrap();
    let log_path = dir.join("access.log");
    let server = start(
        ServerConfig::builder(&dir)
            .threads(2)
            .budget_epsilon(Some(1.5 * stamp.epsilon))
            .obs(ObsConfig::enabled().with_access_log(AccessLogTarget::File(log_path.clone())))
            .build(),
    )
    .unwrap();
    let addr = server.addr();

    let body = r#"{"seed": 3, "n": 4}"#;
    let (status, _, _) = request(addr, "POST", "/models/m/sample", body);
    assert_eq!(status, 200);
    // The budget (1.5 epsilon) only covers one release: the second
    // sampling request is the seeded 429.
    let (status, _, _) = request(addr, "POST", "/models/m/sample", body);
    assert_eq!(status, 429);

    let (status, head, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "exposition content type missing: {head}"
    );
    for needle in [
        "# TYPE p3gm_requests_total counter",
        "p3gm_requests_total{route=\"/models/{name}/sample\",status=\"200\"} 1",
        "p3gm_requests_total{route=\"/models/{name}/sample\",status=\"429\"} 1",
        "p3gm_budget_denials_total{model=\"m\"} 1",
        "p3gm_epsilon_spent{model=\"m\"}",
        "p3gm_epsilon_remaining{model=\"m\"}",
        "p3gm_registry_models 1",
        "p3gm_registry_loads_total 1",
        "p3gm_stream_bytes_total",
        "p3gm_request_duration_seconds_bucket{route=\"/models/{name}/sample\",le=\"+Inf\"} 2",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // /stats and /metrics flow through the same snapshot: the JSON counters
    // must match the exposition's registry series.
    let (_, _, stats) = request(addr, "GET", "/stats", "");
    let stats = json::parse(&stats).unwrap();
    let loads = stats.get("loads").unwrap().as_u64().unwrap();
    let (_, _, text) = request(addr, "GET", "/metrics", "");
    assert!(text.contains(&format!("p3gm_registry_loads_total {loads}")));

    server.shutdown();
    // One access-log line per request, written to the configured file.
    let log = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert!(lines.len() >= 5, "expected >= 5 access-log lines:\n{log}");
    // Workers append concurrently, so assert on presence, not order.
    assert!(
        lines.iter().any(|l| l.contains("method=POST")
            && l.contains("target=/models/m/sample")
            && l.contains("status=200")
            && l.contains("dur_us=")),
        "no 200 sample line in:\n{log}"
    );
    assert!(log.contains("status=429"), "{log}");

    // With observability disabled, /metrics answers 404 and no log grows.
    let dir = model_dir("metrics_off", &["m"]);
    let server = start(
        ServerConfig::builder(&dir)
            .threads(1)
            .obs(ObsConfig::disabled())
            .build(),
    )
    .unwrap();
    let (status, _, _) = request(server.addr(), "GET", "/metrics", "");
    assert_eq!(status, 404);
    let (status, _, _) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
}

/// A cold load's wall time is exported beside the load count, so an
/// operator reads the mean cost of a registry miss as their ratio; timing
/// the loads changes no response byte.
#[test]
fn registry_load_time_is_exported_and_changes_no_response_byte() {
    use p3gm::obs::ObsConfig;

    let mut runs = Vec::new();
    for (obs, metrics) in [(ObsConfig::enabled(), true), (ObsConfig::disabled(), false)] {
        // A fresh directory (and ledger) per server; a one-byte residency
        // budget holds one model, so alternating between two models makes
        // every sampling request a cold load.
        let dir = model_dir(&format!("load_time_{metrics}"), &["a", "b"]);
        let server = start(
            ServerConfig::builder(&dir)
                .threads(1)
                .max_resident_bytes(Some(1))
                .obs(obs)
                .build(),
        )
        .unwrap();
        let addr = server.addr();
        let names = ["a", "b", "a", "b", "a", "b"];
        let responses: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(seed, name)| {
                let body = format!(r#"{{"seed": {seed}, "n": 5}}"#);
                request(addr, "POST", &format!("/models/{name}/sample"), &body)
            })
            .collect();
        let (_, _, stats) = request(addr, "GET", "/stats", "");
        let stats = json::parse(&stats).unwrap();
        assert_eq!(
            stats.get("loads").unwrap().as_u64(),
            Some(names.len() as u64)
        );
        let nanos = stats.get("load_nanos").unwrap().as_u64().unwrap();
        assert!(nanos > 0, "six cold loads took no time");
        if metrics {
            let (_, _, text) = request(addr, "GET", "/metrics", "");
            for needle in [
                "p3gm_registry_loads_total 6".to_string(),
                format!("p3gm_registry_load_nanoseconds_total {nanos}"),
            ] {
                assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
            }
        }
        server.shutdown();
        runs.push(responses);
    }
    assert!(
        runs[0] == runs[1],
        "responses differ with observability on and off"
    );
}

/// `p3gm_stream_first_byte_seconds` and `p3gm_request_duration_seconds`
/// are both timed from the request's parse, and a streamed body's first
/// chunk is produced after its response is ready. So over the same
/// streamed requests, served one after another, the first-byte sum is at
/// least the request-duration sum (the durable ledger's fsync makes the
/// routing part of that duration clearly non-zero).
#[test]
fn stream_first_byte_is_timed_from_request_parse() {
    let dir = model_dir("first_byte", &["m"]);
    let server = start_server(&dir, 2, None);
    let addr = server.addr();
    let mut stream = connect(addr);
    let mut client = ResponseReader::new(stream.try_clone().unwrap());
    for seed in 0..8 {
        let body = format!(r#"{{"seed": {seed}, "n": 64}}"#);
        write_request(&mut stream, "POST", "/models/m/sample", &body);
        let response = client.next_response().unwrap();
        assert_eq!(response.status, 200);
        assert!(response.chunked, "HTTP/1.1 sampling responses stream");
    }
    let (status, _, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let sum = |series: &str| -> f64 {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {series} in:\n{text}"))
    };
    let first_byte = sum("p3gm_stream_first_byte_seconds_sum");
    let duration = sum("p3gm_request_duration_seconds_sum{route=\"/models/{name}/sample\"}");
    assert!(
        first_byte >= duration,
        "first-byte sum {first_byte} s < request-duration sum {duration} s"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sampling response's two budget headers describe one ledger state,
/// `remaining == max(budget − spent, 0)`, even while other clients charge
/// the same model between this request's charge and its response.
#[test]
fn budget_headers_agree_under_concurrent_charges() {
    let dir = model_dir("budget_headers", &["m"]);
    let budget = 1e9;
    let server = start(
        ServerConfig::builder(&dir)
            .threads(4)
            .ledger_path(None)
            .budget_epsilon(Some(budget))
            .build(),
    )
    .unwrap();
    let addr = server.addr();
    let inconsistent: usize = std::thread::scope(|s| {
        let clients: Vec<_> = (0..4u64)
            .map(|client| {
                s.spawn(move || {
                    let mut stream = connect(addr);
                    let mut reader = ResponseReader::new(stream.try_clone().unwrap());
                    let mut inconsistent = 0;
                    for i in 0..100 {
                        let body = if i % 2 == 0 {
                            format!(r#"{{"seed": {client}, "labels": [20, 20]}}"#)
                        } else {
                            format!(r#"{{"seed": {client}, "n": 8}}"#)
                        };
                        write_request(&mut stream, "POST", "/models/m/sample", &body);
                        let response = reader.next_response().unwrap();
                        assert_eq!(response.status, 200);
                        let header =
                            |name: &str| -> f64 { response.header(name).unwrap().parse().unwrap() };
                        let spent = header("x-p3gm-epsilon-spent");
                        let remaining = header("x-p3gm-epsilon-remaining");
                        if remaining != (budget - spent).max(0.0) {
                            inconsistent += 1;
                        }
                    }
                    inconsistent
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).sum()
    });
    assert_eq!(
        inconsistent, 0,
        "inconsistent budget headers in 400 responses"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `p3gm_requests_total` series of one `/metrics` exposition, keyed by
/// `(route, status)`.
fn request_counts(exposition: &str) -> std::collections::BTreeMap<(String, String), u64> {
    exposition
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("p3gm_requests_total{route=\"")?;
            let (route, rest) = rest.split_once("\",status=\"")?;
            let (status, count) = rest.split_once("\"} ")?;
            Some(((route.to_string(), status.to_string()), count.parse().ok()?))
        })
        .collect()
}

/// One endpoint table decides both a request's status and the route label
/// it is counted under: each `(method, target)` pair moves exactly its
/// own `p3gm_requests_total` series by one, besides the previous scrape's
/// own `/metrics` count.
#[test]
fn each_request_is_counted_under_its_route_label_and_status() {
    let dir = model_dir("route_labels", &["m"]);
    let server = start(
        ServerConfig::builder(&dir)
            .threads(1)
            .ledger_path(None)
            .build(),
    )
    .unwrap();
    let addr = server.addr();
    // (target, route label, GET status, POST status).
    let table = [
        ("/", "/", 200, 405),
        ("/healthz", "/healthz", 200, 405),
        ("/metrics", "/metrics", 200, 405),
        ("/models", "/models", 200, 405),
        ("/models/m", "/models/{name}", 200, 405),
        ("/models/m/sample", "/models/{name}/sample", 405, 400),
        ("/stats", "/stats", 200, 405),
        ("/reload", "/reload", 405, 200),
        ("/nope", "other", 404, 404),
        ("/models/m/sample/x", "other", 404, 404),
        ("//models//m//", "/models/{name}", 200, 405),
    ];
    let scrape = || {
        let (status, _, text) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        request_counts(&text)
    };
    let mut before = scrape();
    for (target, label, get_status, post_status) in table {
        for (method, want_status) in [("GET", get_status), ("POST", post_status)] {
            let (status, _, body) = request(addr, method, target, "");
            assert_eq!(status, want_status, "{method} {target}: {body}");
            let mut want = before.clone();
            for (route, status) in [("/metrics", 200), (label, want_status)] {
                *want
                    .entry((route.to_string(), status.to_string()))
                    .or_insert(0) += 1;
            }
            let after = scrape();
            assert_eq!(after, want, "{method} {target}");
            before = after;
        }
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log line the sink fails to take is counted, and the count reaches
/// `/metrics` (single executor: the `/healthz` line is attempted before
/// the scrape is served).
#[test]
fn dropped_access_log_lines_are_exported() {
    use p3gm::obs::{AccessLogTarget, ObsConfig};

    let full = PathBuf::from("/dev/full");
    if !full.exists() {
        eprintln!("skipped: no /dev/full on this platform");
        return;
    }
    let dir = model_dir("access_log_errors", &[]);
    let server = start(
        ServerConfig::builder(&dir)
            .threads(1)
            .ledger_path(None)
            .obs(ObsConfig::enabled().with_access_log(AccessLogTarget::File(full)))
            .build(),
    )
    .unwrap();
    let (status, _, _) = request(server.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _, text) = request(server.addr(), "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        text.lines().any(|l| l == "p3gm_access_log_errors_total 1"),
        "{text}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
