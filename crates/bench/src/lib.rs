//! # p3gm-bench
//!
//! Benchmark harness regenerating the P3GM paper's tables and figures.
//!
//! The heavy lifting lives in `p3gm-eval`; this crate adds the Criterion
//! entry points (`benches/paper_tables.rs`, `benches/paper_figures.rs`) and
//! the helpers below for persisting the regenerated reports under
//! `target/paper_reports/`, one text file per table or figure, so two runs
//! can be diffed.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p p3gm-bench --bench paper_tables     # Tables V, VI, VII
//! cargo bench -p p3gm-bench --bench paper_figures    # Figures 2, 4, 5, 6, 7
//! cargo bench -p p3gm-bench --bench paper_tables -- table5   # a single artefact
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

/// Directory (under `target/`) where regenerated reports are written.
pub fn report_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("paper_reports")
}

/// Writes one regenerated report to `target/paper_reports/<name>.txt` and
/// echoes it to stdout (so `cargo bench | tee` captures the tables).
pub fn persist_report(name: &str, contents: &str) {
    println!("\n================ {name} ================\n{contents}");
    let dir = report_dir();
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Err(err) = fs::write(&path, contents) {
            eprintln!("warning: could not write {}: {err}", path.display());
        } else {
            println!("(written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_dir_is_under_target() {
        let dir = report_dir();
        assert!(dir.ends_with("paper_reports"));
    }

    #[test]
    fn persist_report_writes_a_file() {
        persist_report("unit_test_report", "hello");
        let path = report_dir().join("unit_test_report.txt");
        assert!(path.exists());
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
    }
}
