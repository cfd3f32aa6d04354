//! Deterministic observability core for the P3GM workspace.
//!
//! This crate is std-only and holds no opinion about *what* is measured:
//! it provides atomic [`Counter`]s, [`Gauge`]s, fixed-bucket [`Histogram`]s,
//! a [`MetricsRegistry`] that renders the Prometheus text exposition format
//! with a deterministic (sorted) merge order, the [`TimeSource`] trait
//! through which callers inject a clock, and an [`AccessLogger`].
//!
//! # Determinism contract
//!
//! Nothing in this crate reads a clock, and `p3gm-conform` rule D2 keeps
//! every file of it that way. Numeric crates record *what happened* —
//! iteration counts, clip events, eviction decisions — through counters,
//! and may time phases only through a caller-injected [`TimeSource`] (a
//! [`ManualClock`] in tests keeps those paths deterministic too). Counter
//! values are therefore bit-identical for any `P3GM_THREADS` setting; only
//! wall-clock-fed histogram *bucket placement* varies between runs.
//!
//! Telemetry is pure post-processing of already-released values: nothing
//! recorded here feeds back into sampling, training, or the (ε, δ)
//! accounting, and nothing here is ever persisted as part of DP state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An injectable monotonic time source for phase timing.
///
/// Callers that time real work implement it over their own clock; tests
/// pass [`ManualClock`] so that timing-shaped code paths stay
/// deterministic. The contract is monotonicity, not any particular epoch.
pub trait TimeSource: Send + Sync {
    /// Current time in nanoseconds since an arbitrary fixed origin.
    fn now_nanos(&self) -> u64;
}

/// A deterministic [`TimeSource`] driven entirely by explicit
/// [`advance`](ManualClock::advance) calls. Starts at zero.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at t=0 until advanced.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `nanos` nanoseconds.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl TimeSource for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `u64` counter.
///
/// Handles are cheap clones sharing one atomic cell; increments are
/// lock-free. Counters recording logical events (requests, steps, clips)
/// are bit-identical across thread counts because the underlying events
/// are.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Self {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the absolute value.
    ///
    /// Only for mirroring an *external* monotone source (e.g. re-exporting
    /// `RegistryStats` counters at scrape time); never mix with
    /// [`add`](Counter::add) on the same counter.
    pub fn store(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An `f64` gauge (stored as atomic bit pattern, so reads never tear).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (may be negative) via a compare-exchange loop.
    pub fn add(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram with non-cumulative atomic bucket counts,
/// rendered cumulatively (Prometheus `le` semantics) at exposition time.
///
/// Bucket bounds are fixed at registration; the implicit `+Inf` bucket
/// always exists, so `+Inf`'s cumulative count equals the observation
/// count by construction.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    /// Strictly increasing finite upper bounds; the `+Inf` bucket is
    /// implicit at index `bounds.len()`.
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// Default latency bounds in seconds for request-duration histograms:
/// 100 µs .. 10 s, roughly half-decade spaced.
pub const LATENCY_BOUNDS_SECONDS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

impl Histogram {
    /// A standalone histogram over `bounds` (upper bucket edges).
    /// Non-finite bounds are dropped and the rest sorted and deduped, so
    /// the cumulative render is always monotone with a final `+Inf`
    /// bucket. Prefer [`MetricsRegistry::histogram`] for named series.
    pub fn new(bounds: &[f64]) -> Self {
        let mut sorted: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            core: Arc::new(HistogramCore {
                bounds: sorted,
                buckets,
                sum_bits: AtomicU64::new(0f64.to_bits()),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let c = &self.core;
        let idx = c.bounds.partition_point(|b| v > *b);
        c.buckets[idx].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = c.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match c
                .sum_bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative bucket counts paired with their upper bounds; the final
    /// entry is the `+Inf` bucket and equals [`count`](Histogram::count)
    /// whenever the histogram is quiescent.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let c = &self.core;
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(c.buckets.len());
        for (i, cell) in c.buckets.iter().enumerate() {
            acc += cell.load(Ordering::Relaxed);
            let bound = c.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the sorted `(label, value)` list — `BTreeMap` everywhere so
    /// the rendered exposition is a pure function of recorded values.
    series: BTreeMap<Vec<(String, String)>, Series>,
}

/// A registry of metric families rendered as Prometheus text exposition.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a short mutex and is
/// get-or-create: the returned handle is a cheap clone whose updates are
/// lock-free, so hot paths should cache handles. Families and series render
/// in sorted order, making the exposition deterministic given deterministic
/// values.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    key
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        if family.kind != kind {
            // Programming error (one name, two kinds). Stay panic-free:
            // hand back a detached series that is never rendered.
            return make();
        }
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Get or register the counter `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, || {
            Series::Counter(Counter::new())
        }) {
            Series::Counter(c) => c,
            _ => Counter::new(),
        }
    }

    /// Get or register the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels, || {
            Series::Gauge(Gauge::new())
        }) {
            Series::Gauge(g) => g,
            _ => Gauge::new(),
        }
    }

    /// Get or register the histogram `name{labels}` with finite upper
    /// bounds `bounds` (an implicit `+Inf` bucket is always added). Bounds
    /// are fixed by the first registration.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels, || {
            Series::Histogram(Histogram::new(bounds))
        }) {
            Series::Histogram(h) => h,
            _ => Histogram::new(bounds),
        }
    }

    /// Render every family in the Prometheus text exposition format
    /// (version 0.0.4). Deterministic: families and series appear in
    /// sorted order.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, series) in family.series.iter() {
                match series {
                    Series::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
                    }
                    Series::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            render_labels(labels, None),
                            format_value(g.get())
                        );
                    }
                    Series::Histogram(h) => {
                        for (bound, cum) in h.cumulative_buckets() {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cum}",
                                render_labels(labels, Some(bound))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(labels, None),
                            format_value(h.sum())
                        );
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

/// Escape a label value per the text exposition format: backslash, double
/// quote, and newline must be escaped; everything else passes through.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Format a sample value: `+Inf`/`-Inf`/`NaN` per the exposition format,
/// shortest round-trip decimal otherwise.
pub fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn render_labels(labels: &[(String, String)], le: Option<f64>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some(bound) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{}\"", format_value(bound));
    }
    out.push('}');
    out
}

/// Where per-request access log lines go.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum AccessLogTarget {
    /// No access logging (the default).
    #[default]
    Off,
    /// One line per request to standard output.
    Stdout,
    /// One line per request to standard error.
    Stderr,
    /// Append one line per request to this file.
    File(PathBuf),
}

/// Observability configuration carried by embedding applications (the
/// HTTP server threads this through its builder).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ObsConfig {
    /// When false, no metrics are recorded and `GET /metrics` is absent.
    /// `ObsConfig::default()` is disabled; use [`ObsConfig::enabled`] to
    /// opt in.
    pub metrics: bool,
    /// Access log destination; [`AccessLogTarget::Off`] by default.
    pub access_log: AccessLogTarget,
}

impl Default for ObsConfig {
    /// Everything off.
    fn default() -> Self {
        Self {
            metrics: false,
            access_log: AccessLogTarget::Off,
        }
    }
}

impl ObsConfig {
    /// Metrics on, access log off — the recommended serving default.
    pub fn enabled() -> Self {
        Self {
            metrics: true,
            ..Self::default()
        }
    }

    /// Everything off: zero instrumentation on the request path.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Builder-style access log target override.
    pub fn with_access_log(mut self, target: AccessLogTarget) -> Self {
        self.access_log = target;
        self
    }
}

/// A line-oriented access logger over a configured target. Writes are
/// serialized by an internal mutex; failures are counted, never surfaced
/// onto the request path.
pub struct AccessLogger {
    sink: Mutex<Box<dyn std::io::Write + Send>>,
    errors: Counter,
}

impl std::fmt::Debug for AccessLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLogger").finish_non_exhaustive()
    }
}

impl AccessLogger {
    /// Open the configured target. `Ok(None)` when logging is off.
    pub fn open(target: &AccessLogTarget) -> std::io::Result<Option<Self>> {
        let sink: Box<dyn std::io::Write + Send> = match target {
            AccessLogTarget::Off => return Ok(None),
            AccessLogTarget::Stdout => Box::new(std::io::stdout()),
            AccessLogTarget::Stderr => Box::new(std::io::stderr()),
            AccessLogTarget::File(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
        };
        Ok(Some(Self {
            sink: Mutex::new(sink),
            errors: Counter::new(),
        }))
    }

    /// Write one line (a newline is appended). I/O errors increment
    /// [`error_count`](AccessLogger::error_count) and are otherwise
    /// swallowed: logging must never fail a request.
    pub fn log(&self, line: &str) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if writeln!(sink, "{line}")
            .and_then(|()| sink.flush())
            .is_err()
        {
            self.errors.inc();
        }
    }

    /// Number of dropped lines due to I/O errors.
    pub fn error_count(&self) -> u64 {
        self.errors.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("p3gm_test_total", "help", &[("k", "v")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Get-or-create returns the same cell.
        let c2 = reg.counter("p3gm_test_total", "help", &[("k", "v")]);
        c2.inc();
        assert_eq!(c.get(), 4);

        let g = reg.gauge("p3gm_test_gauge", "help", &[]);
        g.set(1.5);
        g.add(-0.5);
        assert_eq!(g.get(), 1.0);
    }

    #[test]
    fn histogram_buckets_cumulative_and_inf_equals_count() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("p3gm_test_seconds", "help", &[0.1, 1.0], &[]);
        for v in [0.05, 0.05, 0.5, 2.0, f64::NAN.max(3.0)] {
            h.observe(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0], (0.1, 2));
        assert_eq!(buckets[1], (1.0, 3));
        assert_eq!(buckets[2], (f64::INFINITY, 5));
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn render_is_sorted_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("p3gm_b_total", "second", &[]).inc();
        reg.counter("p3gm_a_total", "first", &[("m", "x\"y\\z\n")])
            .add(7);
        let text = reg.render();
        let a = text.find("p3gm_a_total").unwrap();
        let b = text.find("p3gm_b_total").unwrap();
        assert!(a < b, "families must render in sorted order:\n{text}");
        assert!(
            text.contains("p3gm_a_total{m=\"x\\\"y\\\\z\\n\"} 7"),
            "label escaping failed:\n{text}"
        );
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(0.25), "0.25");
        assert_eq!(format_value(3.0), "3");
    }

    #[test]
    fn access_logger_off_is_none() {
        assert!(AccessLogger::open(&AccessLogTarget::Off).unwrap().is_none());
    }
}
