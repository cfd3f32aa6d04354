//! Integration tests for the lazy, size-budgeted model registry: headers
//! peeked at scan time agree with the full checksummed decode, weights
//! load on first request only (single-flight under concurrency), LRU
//! eviction under `max_resident_bytes` never disturbs an in-flight
//! streamed response (bytes stay identical to eager serving), and a
//! corrupt-on-first-touch snapshot surfaces as a typed 503 that
//! un-poisons itself once the file is repaired and reloaded.

use p3gm::core::config::PgmConfig;
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::snapshot::{SnapshotHeader, SynthesisSnapshot};
use p3gm::core::synthesis::LabelledSynthesizer;
use p3gm::core::VarianceMode;
use p3gm::linalg::Matrix;
use p3gm::server::http::ResponseReader;
use p3gm::server::registry::{Registry, RegistryConfig, RegistryError};
use p3gm::server::{json, start, ServerConfig, ServerHandle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Trains the shared (tiny) test model once.
fn trained_snapshot() -> &'static SynthesisSnapshot {
    static SNAPSHOT: OnceLock<SynthesisSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| train_snapshot(7, true, true, 3, 12, 2))
}

/// Trains one small snapshot with the given knobs — the generator for
/// "arbitrary valid snapshot" properties.
fn train_snapshot(
    seed: u64,
    private: bool,
    with_synth: bool,
    latent_dim: usize,
    hidden_dim: usize,
    epochs: usize,
) -> SynthesisSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            (0..5)
                .map(|j| {
                    let base = if (i + j) % 2 == 0 { 0.8 } else { 0.2 };
                    (base + p3gm::privacy::sampling::normal(&mut rng, 0.0, 0.05)).clamp(0.0, 1.0)
                })
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
    let features = Matrix::from_rows(&rows).unwrap();
    let (synth, prepared) = LabelledSynthesizer::prepare(&features, &labels, 2).unwrap();
    let config = PgmConfig {
        latent_dim,
        hidden_dim,
        mog_components: 2,
        epochs,
        batch_size: 16,
        learning_rate: 5e-3,
        clip_norm: 1.0,
        private,
        eps_p: 0.5,
        sigma_e: 50.0,
        em_iterations: 3,
        sigma_s: 1.0,
        delta: 1e-5,
        variance_mode: VarianceMode::Learned,
    };
    let (model, _) = PhasedGenerativeModel::fit(&mut rng, &prepared, config).unwrap();
    let snapshot = SynthesisSnapshot::capture(model);
    if with_synth {
        snapshot.with_synthesizer(synth)
    } else {
        snapshot
    }
}

/// A fresh model directory containing the shared snapshot under each
/// given name.
fn model_dir(test: &str, names: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("p3gm_lazy_it_{test}_{}", std::process::id()));
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

fn write_request(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
}

/// One fresh-connection request; returns (status, de-chunked body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = connect(addr);
    write_request(&mut stream, method, path, body);
    let response = ResponseReader::new(stream).next_response().unwrap();
    (response.status, String::from_utf8(response.body).unwrap())
}

/// Polls `server.registry_stats()` until `pred` holds (bounded).
fn wait_for_stats(
    server: &ServerHandle,
    pred: impl Fn(p3gm::server::registry::RegistryStats) -> bool,
    what: &str,
) {
    for _ in 0..600 {
        if pred(server.registry_stats()) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "timed out waiting for {what}: {:?}",
        server.registry_stats()
    );
}

#[test]
fn startup_registers_headers_without_decoding_any_weights() {
    let names: Vec<String> = (0..20).map(|i| format!("tenant-{i:02}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let dir = model_dir("lazy_startup", &name_refs);
    let server = start(ServerConfig::builder(&dir).build()).unwrap();
    let addr = server.addr();

    // All 20 models are registered and listable...
    assert_eq!(server.model_count(), 20);
    let (status, body) = request(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    let listed = json::parse(&body).unwrap();
    let models = listed.get("models").unwrap().as_arr().unwrap();
    assert_eq!(models.len(), 20);
    for entry in models {
        assert_eq!(
            entry.get("resident").and_then(json::Json::as_bool),
            Some(false),
            "a never-sampled model must not be resident"
        );
        assert!(entry.get("privacy").unwrap().get("epsilon").is_some());
    }
    // ...and the detail endpoint serves geometry from the header too.
    let (status, body) = request(addr, "GET", "/models/tenant-07", "");
    assert_eq!(status, 200);
    let detail = json::parse(&body).unwrap();
    assert_eq!(
        detail.get("data_dim").and_then(json::Json::as_u64),
        Some(trained_snapshot().model().data_dim() as u64)
    );

    // None of that decoded a single weight payload.
    let stats = server.registry_stats();
    assert_eq!((stats.loads, stats.resident_models), (0, 0), "{stats:?}");

    // First sampling request loads exactly that one model.
    let (status, _) = request(
        addr,
        "POST",
        "/models/tenant-03/sample",
        r#"{"seed": 1, "n": 4}"#,
    );
    assert_eq!(status, 200);
    let stats = server.registry_stats();
    assert_eq!((stats.loads, stats.resident_models), (1, 1), "{stats:?}");

    // GET /stats mirrors the counters over HTTP.
    let (status, body) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let parsed = json::parse(&body).unwrap();
    assert_eq!(parsed.get("models").and_then(json::Json::as_u64), Some(20));
    assert_eq!(parsed.get("loads").and_then(json::Json::as_u64), Some(1));
    assert_eq!(
        parsed.get("header_peeks").and_then(json::Json::as_u64),
        Some(20),
        "startup peeks each snapshot's header exactly once"
    );
    let (status, _) = request(addr, "POST", "/stats", "");
    assert_eq!(status, 405);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `POST /reload` is incremental: directory entries are read once and
/// only snapshots whose `(len, mtime)` fingerprint changed are re-peeked
/// from disk — a no-change reload over many tenants performs **zero**
/// header reads, observable via the `header_peeks` counter in `/stats`.
#[test]
fn reload_repeeks_only_changed_snapshots() {
    let dir = model_dir("peek_batch", &["a", "b", "c"]);
    let (registry, report) = Registry::open(&dir).unwrap();
    assert_eq!(report.loaded.len(), 3);
    assert_eq!(registry.stats().header_peeks, 3);

    // No-change reloads keep every entry and peek nothing.
    for _ in 0..3 {
        let report = registry.reload().unwrap();
        assert_eq!(report.unchanged.len(), 3, "{report:?}");
        assert!(report.loaded.is_empty() && report.removed.is_empty());
    }
    assert_eq!(
        registry.stats().header_peeks,
        3,
        "unchanged files must not be re-peeked"
    );

    // Replace one snapshot with a different (longer) one: exactly that
    // file is re-peeked, the other two are untouched.
    let old_cost = registry.header("b").unwrap().approx_resident_bytes();
    let bigger = train_snapshot(11, true, true, 3, 16, 2);
    std::fs::write(dir.join("b.snapshot"), bigger.to_bytes()).unwrap();
    let report = registry.reload().unwrap();
    assert_eq!(report.loaded, vec!["b".to_string()], "{report:?}");
    assert_eq!(report.unchanged.len(), 2);
    assert_eq!(registry.stats().header_peeks, 4);

    // The re-registered entry serves the new (wider) model's header.
    let new_cost = registry.header("b").unwrap().approx_resident_bytes();
    assert!(new_cost > old_cost, "{new_cost} vs {old_cost}");

    // Deleting a file needs no peek either.
    std::fs::remove_file(dir.join("c.snapshot")).unwrap();
    let report = registry.reload().unwrap();
    assert_eq!(report.removed, vec!["c".to_string()], "{report:?}");
    assert_eq!(registry.stats().header_peeks, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_first_requests_share_a_single_decode() {
    let dir = model_dir("single_flight", &["m"]);
    let (registry, _) = Registry::open_with(&dir, RegistryConfig::default()).unwrap();
    assert_eq!(registry.stats().loads, 0);

    let barrier = std::sync::Barrier::new(8);
    let handles: Vec<_> = std::thread::scope(|s| {
        let registry = &registry;
        let barrier = &barrier;
        (0..8)
            .map(|_| {
                s.spawn(move || {
                    barrier.wait();
                    registry.get("m").unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    // Everyone got the same decoded model, from exactly one decode.
    for handle in &handles[1..] {
        assert!(std::sync::Arc::ptr_eq(&handles[0], handle));
    }
    let stats = registry.stats();
    assert_eq!(stats.loads, 1, "{stats:?}");
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, 7, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_listing_agrees_with_the_loaded_model() {
    let dir = model_dir("header_agrees", &["m"]);
    let (registry, _) = Registry::open_with(&dir, RegistryConfig::default()).unwrap();
    let header = registry.header("m").unwrap();
    let snapshot = registry.get("m").unwrap();
    assert_eq!(header.data_dim(), snapshot.model().data_dim());
    assert_eq!(header.latent_dim(), snapshot.model().config().latent_dim);
    assert_eq!(
        header.n_classes(),
        snapshot.synthesizer().map(|s| s.n_classes())
    );
    let (peeked, full) = (header.stamp().unwrap(), snapshot.privacy_stamp().unwrap());
    assert_eq!(peeked.epsilon.to_bits(), full.epsilon.to_bits());
    assert_eq!(peeked.delta.to_bits(), full.delta.to_bits());
    assert!(header.approx_resident_bytes() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eviction_under_concurrent_sampling_keeps_streams_intact() {
    let dir = model_dir("evict_stream", &["a", "b"]);
    let cost = SnapshotHeader::peek(&trained_snapshot().to_bytes())
        .unwrap()
        .approx_resident_bytes();
    // Budget for exactly one resident model: loading "b" evicts "a".
    let server = start(
        ServerConfig::builder(&dir)
            .ledger_path(None)
            .max_resident_bytes(Some(cost))
            .build(),
    )
    .unwrap();
    let addr = server.addr();

    // Open a large streamed download of "a" and do NOT read it yet: the
    // server generates chunks as the socket drains, so the response
    // stays in flight holding its Arc<SynthesisSnapshot>.
    let body = r#"{"seed": 5, "n": 30000, "format": "csv"}"#;
    let mut stream = connect(addr);
    write_request(&mut stream, "POST", "/models/a/sample", body);
    wait_for_stats(&server, |s| s.loads >= 1, "model a to load");

    // Loading "b" pushes residency past the budget and evicts "a"
    // (least recently used) while its stream is mid-flight.
    let (status, _) = request(addr, "POST", "/models/b/sample", r#"{"seed": 2, "n": 8}"#);
    assert_eq!(status, 200);
    wait_for_stats(&server, |s| s.evictions >= 1, "an eviction");

    // The in-flight stream still completes, and its de-chunked bytes are
    // identical to serving the same request fresh (which re-decodes the
    // evicted file): eviction is invisible to both.
    let streamed = ResponseReader::new(stream).next_response().unwrap();
    assert_eq!(streamed.status, 200);
    assert!(streamed.chunked);
    let streamed_body = String::from_utf8(streamed.body).unwrap();
    assert_eq!(streamed_body.lines().count(), 30000);
    let (status, fresh) = request(addr, "POST", "/models/a/sample", body);
    assert_eq!(status, 200);
    assert_eq!(
        streamed_body, fresh,
        "bytes must be identical across eviction + reload"
    );

    let stats = server.registry_stats();
    assert!(stats.evictions >= 1, "{stats:?}");
    assert!(
        stats.resident_bytes <= cost,
        "residency must settle within the budget: {stats:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_first_touch_is_a_typed_503_and_repair_unpoisons() {
    let dir = model_dir("corrupt_touch", &["good", "bad"]);
    let clean = std::fs::read(dir.join("bad.snapshot")).unwrap();
    // Flip one bit deep inside the weight payloads: the header peek
    // (leading frames only) cannot see it, so the model registers and
    // lists fine — but the full checksummed decode on first touch must
    // catch it.
    let mut corrupt = clean.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    std::fs::write(dir.join("bad.snapshot"), &corrupt).unwrap();

    let server = start(ServerConfig::builder(&dir).ledger_path(None).build()).unwrap();
    let addr = server.addr();
    assert_eq!(server.model_count(), 2, "corruption is invisible to peek");

    // First touch: typed 503 with a JSON error body, not a 404 or 500.
    let body = r#"{"seed": 3, "n": 4}"#;
    let (status, text) = request(addr, "POST", "/models/bad/sample", body);
    assert_eq!(status, 503, "{text}");
    let parsed = json::parse(&text).unwrap();
    assert!(parsed
        .get("error")
        .and_then(json::Json::as_str)
        .unwrap()
        .contains("decode"));

    // The failure is cached: a second touch answers 503 again without
    // re-decoding the known-bad file.
    let (status, _) = request(addr, "POST", "/models/bad/sample", body);
    assert_eq!(status, 503);
    let stats = server.registry_stats();
    assert_eq!(stats.load_failures, 1, "failure cached, not re-tried");

    // The good model is unaffected throughout.
    let (status, _) = request(addr, "POST", "/models/good/sample", body);
    assert_eq!(status, 200);

    // Repair the file and hot-reload: the fresh fingerprint replaces the
    // poisoned entry, and the very next request serves.
    std::thread::sleep(Duration::from_millis(20));
    std::fs::write(dir.join("bad.snapshot"), &clean).unwrap();
    let (status, _) = request(addr, "POST", "/reload", "");
    assert_eq!(status, 200);
    // CSV bodies carry no model name, so identical snapshot bytes must
    // serve byte-identical responses.
    let csv_body = r#"{"seed": 3, "n": 4, "format": "csv"}"#;
    let (status, repaired) = request(addr, "POST", "/models/bad/sample", csv_body);
    assert_eq!(status, 200);
    let (_, good) = request(addr, "POST", "/models/good/sample", csv_body);
    assert_eq!(
        repaired, good,
        "identical snapshot bytes must serve identical samples"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_get_errors_are_typed() {
    let dir = model_dir("typed_errors", &["m"]);
    let (registry, _) = Registry::open_with(&dir, RegistryConfig::default()).unwrap();
    assert!(matches!(
        registry.get("absent"),
        Err(RegistryError::NotFound)
    ));
    assert!(registry.get("m").is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Header-vs-full-decode agreement on arbitrary valid snapshots:
    /// whatever the training knobs, the peeked geometry, class count and
    /// recomputed (ε, δ) stamp match the checksummed decode bit-for-bit,
    /// and peeking any prefix either agrees or fails typed (no panic).
    #[test]
    fn header_peek_agrees_with_full_decode_on_arbitrary_snapshots(
        seed in 0u64..1000,
        private in any::<bool>(),
        with_synth in any::<bool>(),
        latent_dim in 2usize..4,
        hidden_dim in 4usize..10,
        cut in 0.0..1.0f64,
    ) {
        let snapshot = train_snapshot(seed, private, with_synth, latent_dim, hidden_dim, 1);
        let bytes = snapshot.to_bytes();
        let header = SnapshotHeader::peek(&bytes).unwrap();
        let full = SynthesisSnapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(header.data_dim, full.model().data_dim());
        prop_assert_eq!(header.config.latent_dim, latent_dim);
        prop_assert_eq!(header.n_classes, full.synthesizer().map(|s| s.n_classes()));
        match (header.stamp.as_ref(), full.privacy_stamp()) {
            (Some(peeked), Some(stamped)) => {
                prop_assert_eq!(peeked.epsilon.to_bits(), stamped.epsilon.to_bits());
                prop_assert_eq!(peeked.delta.to_bits(), stamped.delta.to_bits());
            }
            (None, None) => prop_assert!(!private),
            (peeked, stamped) => {
                prop_assert!(false, "stamp mismatch: {:?} vs {:?}", peeked, stamped);
            }
        }
        prop_assert_eq!(header.framed_len as usize, bytes.len());

        // An arbitrary prefix never panics: it either yields the same
        // header or a typed store error.
        let cut_at = ((bytes.len() as f64) * cut) as usize;
        if let Ok(partial) = SnapshotHeader::peek(&bytes[..cut_at.min(bytes.len())]) {
            prop_assert_eq!(partial.data_dim, header.data_dim);
            prop_assert_eq!(partial.n_train, header.n_train);
        }
    }
}
