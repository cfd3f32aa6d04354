//! Soak tests for the reactor server core: hundreds of concurrent
//! keep-alive connections ride a single poll(2) loop with a bounded OS
//! thread count, every body stays byte-identical to a fresh connection,
//! a slow-loris client gets the typed 408 while the crowd stays served,
//! a mid-stream abort still charges the privacy ledger exactly once —
//! and graceful shutdown drains idle connections promptly.

use p3gm::core::config::PgmConfig;
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::SynthesisSnapshot;
use p3gm::core::synthesis::LabelledSynthesizer;
use p3gm::core::VarianceMode;
use p3gm::linalg::Matrix;
use p3gm::privacy::sampling;
use p3gm::server::http::ResponseReader;
use p3gm::server::{json, start, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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
    let dir = std::env::temp_dir().join(format!("p3gm_server_soak_{test}_{}", std::process::id()));
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
/// de-chunks a streamed body; returns (status, body bytes).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = connect(addr);
    write_request(&mut stream, method, path, body);
    let response = ResponseReader::new(stream).next_response().unwrap();
    (response.status, response.body)
}

/// The live OS thread count of this test process.
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The model's cumulative spent epsilon as reported by discovery.
fn spent_epsilon(addr: SocketAddr) -> f64 {
    let (status, body) = request(addr, "GET", "/models/m", "");
    assert_eq!(status, 200);
    json::parse(&String::from_utf8(body).unwrap())
        .unwrap()
        .get("budget")
        .unwrap()
        .get("spent_epsilon")
        .unwrap()
        .as_f64()
        .unwrap()
}

/// The big soak: hundreds of keep-alive connections held open at once by
/// the reactor while hostile clients (a slow loris, a mid-stream abort)
/// share the same poll loop — without the OS thread count growing with
/// the connection count, and without a byte of drift in any response.
#[test]
fn reactor_soaks_hundreds_of_keep_alive_connections() {
    const CONNS: usize = 300;
    let dir = model_dir("soak", &["m"]);
    let stamp = trained_snapshot().privacy_stamp().copied().unwrap();
    let server = start(
        ServerConfig::builder(&dir)
            .threads(2)
            .budget_epsilon(Some(100.0 * stamp.epsilon))
            .request_read_timeout(Duration::from_millis(300))
            .keep_alive_timeout(Duration::from_secs(30))
            .build(),
    )
    .unwrap();
    let addr = server.addr();

    // Warm the server (executor pool is already up) and snapshot the
    // process's thread count before the herd arrives.
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let threads_before = os_thread_count();

    // Open the herd, write every request first, then read every
    // response: all connections are simultaneously open and in flight.
    let mut herd: Vec<TcpStream> = (0..CONNS).map(|_| connect(addr)).collect();
    for stream in herd.iter_mut() {
        write_request(stream, "GET", "/healthz", "");
    }
    let mut clients: Vec<ResponseReader<TcpStream>> = herd
        .iter()
        .map(|s| ResponseReader::new(s.try_clone().unwrap()))
        .collect();
    for client in clients.iter_mut() {
        let resp = client.next_response().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }

    // With all of them idle-open, the thread count must not have grown
    // with the connection count: the reactor holds sockets, not threads.
    let threads_during = os_thread_count();
    assert!(
        threads_during <= threads_before + 8,
        "reactor must not spawn per-connection threads: \
         {threads_before} before, {threads_during} with {CONNS} open"
    );

    // A slow loris joins the crowd: a partial request line, then
    // silence. The read deadline expires and it gets the typed 408
    // while everyone else stays connected.
    let mut loris = connect(addr);
    loris.write_all(b"GET /mod").unwrap();
    let resp = ResponseReader::new(loris).next_response().unwrap();
    assert_eq!(resp.status, 408);
    assert_eq!(resp.header("connection"), Some("close"));

    // A mid-stream abort: request a big streamed batch, read just the
    // status line, slam the socket shut. The ledger charges exactly
    // one ε — no re-charge on the broken pipe, no refund either.
    let mut abort = connect(addr);
    write_request(
        &mut abort,
        "POST",
        "/models/m/sample",
        r#"{"seed": 3, "n": 80000, "format": "csv"}"#,
    );
    let mut first = [0u8; 256];
    let mut got = 0;
    while got < "HTTP/1.1 200".len() {
        let n = abort.read(&mut first[got..]).unwrap();
        assert!(n > 0, "the stream must start before the abort");
        got += n;
    }
    assert!(
        String::from_utf8_lossy(&first[..got]).starts_with("HTTP/1.1 200"),
        "the charge precedes the first chunk; got {:?}",
        String::from_utf8_lossy(&first[..got])
    );
    drop(abort);
    // Give the executor a moment to hit the broken pipe and finish.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        spent_epsilon(addr).to_bits(),
        stamp.epsilon.to_bits(),
        "mid-stream abort under soak must leave exactly one charge"
    );

    // The herd survived both hostiles: an active subset samples over
    // its still-open connections, and every body is byte-identical to
    // the same request on a fresh connection.
    let body = r#"{"seed": 17, "n": 40}"#;
    let (fresh_status, fresh_body) = request(addr, "POST", "/models/m/sample", body);
    assert_eq!(fresh_status, 200);
    for i in (0..CONNS).step_by(37) {
        write_request(&mut herd[i], "POST", "/models/m/sample", body);
        let resp = clients[i].next_response().unwrap();
        assert_eq!(resp.status, 200, "conn {i}");
        assert!(resp.chunked, "keep-alive sampling responses stream");
        assert_eq!(resp.body, fresh_body, "conn {i} drifted from fresh bytes");
    }

    // And the rest of the herd is still open too: a final round-trip on
    // every connection proves nothing was silently dropped.
    for stream in herd.iter_mut() {
        write_request(stream, "GET", "/healthz", "");
    }
    for (i, client) in clients.iter_mut().enumerate() {
        assert_eq!(client.next_response().unwrap().status, 200, "conn {i}");
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful shutdown must drain idle keep-alive connections promptly.
/// The keep-alive window is 60 s, so a prompt return proves shutdown
/// interrupts idle waits instead of sleeping them out.
#[test]
fn graceful_shutdown_drains_idle_connections_promptly() {
    let dir = model_dir("drain", &["m"]);
    let server: ServerHandle = start(
        ServerConfig::builder(&dir)
            .threads(2)
            .keep_alive_timeout(Duration::from_secs(60))
            .build(),
    )
    .unwrap();
    let addr = server.addr();

    // One connection idles after a served request, one never sends a
    // byte: both flavors of idle must drain.
    let mut served = connect(addr);
    write_request(&mut served, "GET", "/healthz", "");
    let resp = ResponseReader::new(served.try_clone().unwrap())
        .next_response()
        .unwrap();
    assert_eq!(resp.status, 200);
    let mut silent = connect(addr);

    let begin = Instant::now();
    server.shutdown();
    let took = begin.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown must not wait out the 60 s keep-alive window, took {took:?}"
    );

    // Both idle connections were closed, not answered.
    let mut probe = [0u8; 1];
    assert_eq!(served.read(&mut probe).unwrap_or(0), 0);
    assert_eq!(silent.read(&mut probe).unwrap_or(0), 0);

    let _ = std::fs::remove_dir_all(&dir);
}
