//! The conformance pass as a tier-1 test: the workspace must satisfy its
//! own determinism and hardening contracts (rules D1–D6), and each rule
//! must actually fire on a seeded violation — so a silently broken engine
//! cannot masquerade as a clean workspace.
//!
//! The same pass ships as the `p3gm-conform` binary for CI; this test is
//! the in-process twin that runs under plain `cargo test`.

use std::path::Path;

use p3gm_conform::{check_source, scan_workspace, RuleId};

/// The rule IDs that fire for `src` placed at `path`, in report order.
fn rules_hit(path: &str, src: &str) -> Vec<RuleId> {
    check_source(path, src.as_bytes())
        .iter()
        .map(|v| v.rule)
        .collect()
}

/// A fixture prelude that satisfies D5 so fixtures only trip the rule
/// under test.
const FORBID: &str = "#![forbid(unsafe_code)]\n";

#[test]
fn workspace_conforms_to_its_own_contracts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = scan_workspace(root).expect("workspace must be readable");
    assert!(
        report.is_clean(),
        "conformance violations:\n{}",
        report.render(),
    );
    // The scan must have actually visited the workspace, not an empty or
    // wrong directory: every crate has at least a lib.rs in scope.
    assert!(
        report.files_checked >= 40,
        "only {} files checked — scan missed the workspace",
        report.files_checked,
    );
}

#[test]
fn d1_fires_on_contractible_fma_in_numeric_crates() {
    let src = format!("{FORBID}pub fn f(a: f64) -> f64 {{ a.mul_add(2.0, 1.0) }}\n");
    assert_eq!(
        rules_hit("crates/linalg/src/kernels.rs", &src),
        vec![RuleId::D1]
    );
    let src = format!("{FORBID}pub fn g(d: f64) -> f64 {{ d.powi(3) }}\n");
    assert_eq!(
        rules_hit("crates/nn/src/optimizer.rs", &src),
        vec![RuleId::D1]
    );
    // The same call in a non-numeric crate is not D1's business.
    let src = format!("{FORBID}pub fn f(a: f64) -> f64 {{ a.mul_add(2.0, 1.0) }}\n");
    assert_eq!(rules_hit("crates/bench/src/lib.rs", &src), vec![]);
}

#[test]
fn d2_fires_on_raw_threads_and_clocks_outside_exempt_crates() {
    let src = format!("{FORBID}pub fn f() {{ std::thread::spawn(|| ()); }}\n");
    assert_eq!(
        rules_hit("crates/mixture/src/em.rs", &src),
        vec![RuleId::D2]
    );
    let src = format!("{FORBID}pub fn t() {{ let _ = std::time::Instant::now(); }}\n");
    assert_eq!(rules_hit("crates/core/src/lib.rs", &src), vec![RuleId::D2]);
    // `p3gm-parallel` is the sanctioned home for raw threads.
    let src = format!("{FORBID}pub fn f() {{ std::thread::spawn(|| ()); }}\n");
    assert_eq!(rules_hit("crates/parallel/src/pool.rs", &src), vec![]);
}

#[test]
fn d2_covers_every_obs_file() {
    // The obs crate reads no clock: every file under `crates/obs/src/` is
    // under D2, and so is a `time.rs` added there later.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/obs/src");
    let mut paths: Vec<String> = std::fs::read_dir(&dir)
        .expect("crates/obs/src must be readable")
        .map(|entry| {
            let name = entry.expect("directory entry").file_name();
            format!("crates/obs/src/{}", name.to_string_lossy())
        })
        .collect();
    assert!(paths.contains(&"crates/obs/src/lib.rs".to_string()));
    paths.push("crates/obs/src/time.rs".to_string());
    for clock in ["Instant", "SystemTime"] {
        let src = format!("{FORBID}pub fn t() {{ let _ = std::time::{clock}::now(); }}\n");
        for path in &paths {
            assert_eq!(rules_hit(path, &src), vec![RuleId::D2], "{clock} in {path}");
        }
    }
}

#[test]
fn d3_fires_on_hash_collections_in_numeric_crates() {
    let src = format!("{FORBID}use std::collections::HashMap;\n");
    assert_eq!(
        rules_hit("crates/privacy/src/lib.rs", &src),
        vec![RuleId::D3]
    );
    let src = format!("{FORBID}use std::collections::HashSet;\n");
    assert_eq!(
        rules_hit("crates/preprocess/src/encode.rs", &src),
        vec![RuleId::D3]
    );
    // Iteration-order-dependent containers are fine outside numeric code.
    let src = format!("{FORBID}use std::collections::HashMap;\n");
    assert_eq!(rules_hit("crates/server/src/lib.rs", &src), vec![]);
}

#[test]
fn d4_fires_on_panic_paths_in_untrusted_byte_zones() {
    let src = format!("{FORBID}pub fn f(v: &[u8]) -> u8 {{ v.first().copied().unwrap() }}\n");
    assert_eq!(rules_hit("crates/store/src/lib.rs", &src), vec![RuleId::D4]);
    let src = format!("{FORBID}pub fn f(s: &str) -> usize {{ s.find(':').expect(\"colon\") }}\n");
    assert_eq!(
        rules_hit("crates/server/src/http.rs", &src),
        vec![RuleId::D4]
    );
    let src = format!("{FORBID}pub fn f(n: usize) {{ assert!(n < 4096); }}\n");
    assert_eq!(
        rules_hit("crates/server/src/json.rs", &src),
        vec![RuleId::D4]
    );
    // The snapshot header peek reads files dropped into a model
    // directory, so its module is a zone too.
    let src = "pub fn f(b: &[u8]) -> [u8; 8] { b[..8].try_into().expect(\"8 bytes\") }\n";
    assert_eq!(
        rules_hit("crates/core/src/snapshot.rs", src),
        vec![RuleId::D4]
    );
    // The same code under #[cfg(test)] is a test's prerogative.
    let src = format!(
        "{FORBID}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ assert!(1 < 2); [0u8][0]; Some(1).unwrap(); }}\n}}\n"
    );
    assert_eq!(rules_hit("crates/server/src/ledger.rs", &src), vec![]);
    // And outside the declared zones, unwrap is merely discouraged.
    let src = format!("{FORBID}pub fn f() {{ Some(1).unwrap(); }}\n");
    assert_eq!(rules_hit("crates/bench/src/lib.rs", &src), vec![]);
}

#[test]
fn d5_fires_on_a_crate_root_missing_forbid_unsafe() {
    let src = "pub fn f() {}\n";
    assert_eq!(rules_hit("crates/linalg/src/lib.rs", src), vec![RuleId::D5]);
    // Non-root modules carry no such obligation.
    assert_eq!(rules_hit("crates/linalg/src/kernels.rs", src), vec![]);
}

#[test]
fn d5_shim_exemption_confines_unsafe_to_the_server_sys_file() {
    // The server crate root may deny (not forbid) unsafe, because the
    // reactor's poll(2) FFI shim needs a file-level allow...
    let src = "#![deny(unsafe_code)]\npub mod http;\n";
    assert_eq!(rules_hit("crates/server/src/lib.rs", src), vec![]);
    // ...the shim file itself is the single sanctioned unsafe site...
    let shim =
        "#![allow(unsafe_code)]\npub fn p() { unsafe { std::hint::unreachable_unchecked() } }\n";
    assert_eq!(rules_hit("crates/server/src/sys.rs", shim), vec![]);
    // ...and any unsafe token in any OTHER server file is a D5 violation,
    // so the confinement the compiler no longer proves is checked here.
    let smuggled = "pub fn p(q: *const u8) -> u8 { unsafe { *q } }\n";
    assert_eq!(
        rules_hit("crates/server/src/registry.rs", smuggled),
        vec![RuleId::D5]
    );
    // Every other crate still requires full forbid at the root.
    assert_eq!(
        rules_hit("crates/obs/src/lib.rs", "#![deny(unsafe_code)]\n"),
        vec![RuleId::D5]
    );
}

#[test]
fn d6_fires_on_f32_in_numeric_crates() {
    let src = format!("{FORBID}pub fn f(x: f32) {{ let _ = x; }}\n");
    assert_eq!(
        rules_hit("crates/mixture/src/lib.rs", &src),
        vec![RuleId::D6]
    );
    // f32 is allowed where determinism contracts don't bind (e.g. server).
    let src = format!("{FORBID}pub fn f(x: f32) -> f32 {{ x }}\n");
    assert_eq!(rules_hit("crates/server/src/lib.rs", &src), vec![]);
}

#[test]
fn allow_annotation_suppresses_but_must_be_justified_and_used() {
    // A justified trailing annotation suppresses exactly its rule.
    let src = format!(
        "{FORBID}pub fn f(d: f64) -> f64 {{ d.powi(2) }} // conform: allow(d1) — matches reference impl bit-for-bit\n"
    );
    assert_eq!(rules_hit("crates/core/src/lib.rs", &src), vec![]);
    // No justification → the annotation itself is a violation (A0) and
    // the underlying rule still fires.
    let src = format!("{FORBID}pub fn f(d: f64) -> f64 {{ d.powi(2) }} // conform: allow(d1)\n");
    let hit = rules_hit("crates/core/src/lib.rs", &src);
    assert!(hit.contains(&RuleId::A0), "hit: {hit:?}");
    assert!(hit.contains(&RuleId::D1), "hit: {hit:?}");
    // An annotation with nothing left to suppress is stale (A0).
    let src =
        format!("{FORBID}pub fn f(d: f64) -> f64 {{ d * d }} // conform: allow(d1) — stale now\n");
    assert_eq!(rules_hit("crates/core/src/lib.rs", &src), vec![RuleId::A0]);
}

#[test]
fn violations_report_path_line_and_message() {
    let src = format!("{FORBID}\npub fn f(a: f64) -> f64 {{\n    a.mul_add(2.0, 1.0)\n}}\n");
    let violations = check_source("crates/linalg/src/kernels.rs", src.as_bytes());
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(v.path, "crates/linalg/src/kernels.rs");
    assert_eq!(v.line, 4);
    assert_eq!(v.rule, RuleId::D1);
    let rendered = v.to_string();
    assert!(
        rendered.contains("crates/linalg/src/kernels.rs:4"),
        "rendered: {rendered}",
    );
    assert!(rendered.contains("mul_add"), "rendered: {rendered}");
}
