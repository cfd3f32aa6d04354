//! Observability-contract tests for `p3gm-obs`:
//!
//! * the Prometheus text exposition round-trips through a hand-rolled
//!   parser (names, escaped label values, finite and non-finite values),
//! * histogram renders keep their invariants — cumulative buckets are
//!   monotone and the `+Inf` bucket equals `_count`,
//! * training telemetry is deterministic: the same fit under
//!   `P3GM_THREADS=1` and `P3GM_THREADS=4` produces identical
//!   [`TrainReport`]s, and an injected timer adds phase timings without
//!   changing the model or the counts.

use p3gm::core::config::PgmConfig;
use p3gm::core::pgm::PhasedGenerativeModel;
use p3gm::core::TrainReport;
use p3gm::linalg::Matrix;
use p3gm::obs::{escape_label_value, format_value, Histogram, MetricsRegistry, TimeSource};
use p3gm::parallel::with_threads;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One parsed sample: `(metric_name, sorted label pairs) -> value`.
type Samples = BTreeMap<(String, Vec<(String, String)>), f64>;

/// A hand-rolled Prometheus text-format parser: the test's independent
/// implementation of the spec that renders must round-trip through.
/// Returns `None` on any malformed line, so a bad render fails loudly.
fn parse_exposition(text: &str) -> Option<Samples> {
    let mut out = Samples::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_end, mut labels, rest_idx) = match line.find(['{', ' ']) {
            Some(i) if line.as_bytes()[i] == b' ' => (i, Vec::new(), i + 1),
            Some(i) => {
                let (labels, consumed) = parse_labels(&line[i + 1..])?;
                // consumed ends just past '}'; a single space separates
                // the label set from the value.
                let rest = i + 1 + consumed;
                if line.as_bytes().get(rest) != Some(&b' ') {
                    return None;
                }
                (i, labels, rest + 1)
            }
            None => return None,
        };
        let name = &line[..name_end];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return None;
        }
        let value = parse_value(&line[rest_idx..])?;
        labels.sort();
        out.insert((name.to_string(), labels), value);
    }
    Some(out)
}

/// Parses `key="value",...}` starting just past the `{`. Returns the
/// pairs and the number of bytes consumed (including the closing `}`).
fn parse_labels(s: &str) -> Option<(Vec<(String, String)>, usize)> {
    let mut labels = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    loop {
        if bytes.get(i) == Some(&b'}') {
            return Some((labels, i + 1));
        }
        let eq = s[i..].find('=')? + i;
        let key = s[i..eq].trim_start_matches(',').to_string();
        if bytes.get(eq + 1) != Some(&b'"') {
            return None;
        }
        let mut value = String::new();
        let mut j = eq + 2;
        loop {
            match bytes.get(j)? {
                b'"' => break,
                b'\\' => {
                    value.push(match bytes.get(j + 1)? {
                        b'\\' => '\\',
                        b'"' => '"',
                        b'n' => '\n',
                        _ => return None,
                    });
                    j += 2;
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole char.
                    let c = s[j..].chars().next()?;
                    value.push(c);
                    j += c.len_utf8();
                }
            }
        }
        labels.push((key, value));
        i = j + 1;
    }
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Looks up one sample by name and unsorted label pairs.
fn sample(samples: &Samples, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    key.sort();
    samples.get(&(name.to_string(), key)).copied()
}

#[test]
fn escaping_round_trips_the_three_special_characters() {
    let raw = "a\\b\"c\nd";
    assert_eq!(escape_label_value(raw), "a\\\\b\\\"c\\nd");
    let registry = MetricsRegistry::new();
    registry
        .counter("p3gm_test_total", "Escaping.", &[("model", raw)])
        .add(3);
    let samples = parse_exposition(&registry.render()).expect("render must parse");
    assert_eq!(
        sample(&samples, "p3gm_test_total", &[("model", raw)]),
        Some(3.0)
    );
}

#[test]
fn non_finite_gauge_values_render_in_prometheus_spelling() {
    assert_eq!(format_value(f64::INFINITY), "+Inf");
    assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
    assert_eq!(format_value(f64::NAN), "NaN");
    let registry = MetricsRegistry::new();
    registry
        .gauge("p3gm_test_gauge", "Inf.", &[])
        .set(f64::INFINITY);
    let samples = parse_exposition(&registry.render()).unwrap();
    assert_eq!(
        sample(&samples, "p3gm_test_gauge", &[]),
        Some(f64::INFINITY)
    );
}

/// Strategy: a plausible metric-name suffix (fixed length; the vendored
/// proptest generates fixed-size vectors).
fn name_strategy() -> impl Strategy<Value = String> {
    collection::vec(0usize..27, 8).prop_map(|ix| {
        let mut name = String::from("p3gm_t_");
        for i in ix {
            name.push(b"abcdefghijklmnopqrstuvwxyz_"[i] as char);
        }
        name
    })
}

/// Strategy: an arbitrary label value drawn from a charset that leans on
/// the escape-relevant characters and includes multi-byte UTF-8.
fn label_value_strategy() -> impl Strategy<Value = String> {
    const CHARSET: &[char] = &[
        '\\', '"', '\n', 'é', 'a', 'Z', '0', ' ', '{', '}', ',', '=', '-', '~', '!', '/',
    ];
    collection::vec(0usize..CHARSET.len(), 12).prop_map(|ix| {
        let mut value: String = ix.into_iter().map(|i| CHARSET[i]).collect();
        // Vary the effective length without a variable-length generator.
        let keep = value.chars().take_while(|&c| c != '~').collect::<String>();
        if !keep.is_empty() {
            value = keep;
        }
        value
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counters and gauges round-trip through the independent parser:
    /// same name, same (unescaped) label values, same value.
    #[test]
    fn exposition_round_trips_counters_and_gauges(
        name in name_strategy(),
        label in label_value_strategy(),
        count in 0u64..u64::MAX / 2,
        gauge in -1e12f64..1e12,
    ) {
        let registry = MetricsRegistry::new();
        registry
            .counter(&format!("{name}_total"), "Round-trip counter.", &[("v", &label)])
            .add(count);
        registry
            .gauge(&format!("{name}_gauge"), "Round-trip gauge.", &[("v", &label)])
            .set(gauge);
        let samples = parse_exposition(&registry.render()).expect("render must parse");
        prop_assert_eq!(
            sample(&samples, &format!("{name}_total"), &[("v", &label)]),
            Some(count as f64)
        );
        let got = sample(&samples, &format!("{name}_gauge"), &[("v", &label)])
            .expect("gauge sample present");
        // format_value prints the shortest round-trip form, so the parse
        // recovers the exact bit pattern.
        prop_assert_eq!(got.to_bits(), gauge.to_bits());
    }

    /// Histogram renders keep the spec's invariants: cumulative buckets
    /// are monotone non-decreasing, the `+Inf` bucket equals `_count`,
    /// and `_sum` matches the fold of the observations.
    #[test]
    fn histogram_buckets_are_monotone_and_inf_equals_count(
        raw_bounds in collection::vec(-100.0f64..100.0, 7),
        bounds_len in 1usize..8,
        raw_observations in collection::vec(-150.0f64..150.0, 64),
        obs_len in 0usize..65,
    ) {
        let bounds = &raw_bounds[..bounds_len.min(raw_bounds.len())];
        let observations = &raw_observations[..obs_len.min(raw_observations.len())];
        let histogram = Histogram::new(bounds);
        let mut expected_sum = 0.0;
        for &v in observations {
            histogram.observe(v);
            expected_sum += v;
        }
        let cumulative = histogram.cumulative_buckets();
        let mut previous = 0;
        for (i, (bound, cum)) in cumulative.iter().enumerate() {
            prop_assert!(*cum >= previous, "bucket {i} ({bound}) decreased");
            previous = *cum;
        }
        let (last_bound, last_cum) = *cumulative.last().expect("+Inf bucket always present");
        prop_assert!(last_bound.is_infinite());
        prop_assert_eq!(last_cum, observations.len() as u64);
        prop_assert_eq!(histogram.count(), observations.len() as u64);
        prop_assert_eq!(histogram.sum().to_bits(), expected_sum.to_bits());

        // The same invariants must survive render + parse.
        let registry = MetricsRegistry::new();
        let rendered = registry.histogram("p3gm_t_hist", "Invariants.", bounds, &[]);
        for &v in observations {
            rendered.observe(v);
        }
        let samples = parse_exposition(&registry.render()).expect("render must parse");
        let count = sample(&samples, "p3gm_t_hist_count", &[]).expect("_count present");
        let inf_bucket = sample(&samples, "p3gm_t_hist_bucket", &[("le", "+Inf")])
            .expect("+Inf bucket present");
        prop_assert_eq!(count, observations.len() as f64);
        prop_assert_eq!(inf_bucket, count);
    }
}

/// One private fit on a fixed seed under `threads` workers, reported
/// with no injected timer (the deterministic norm).
fn fit_report(threads: usize) -> TrainReport {
    use rand::SeedableRng;
    let data = Matrix::from_fn(48, 5, |i, j| {
        0.5 + 0.4 * (((i * 5 + j) as f64) * 0.37).sin()
    });
    let config = PgmConfig {
        latent_dim: 2,
        hidden_dim: 8,
        mog_components: 2,
        epochs: 2,
        batch_size: 16,
        em_iterations: 3,
        private: true,
        ..PgmConfig::default()
    };
    with_threads(threads, || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (_, _, report) =
            PhasedGenerativeModel::fit_with_report(&mut rng, &data, config, None).unwrap();
        report
    })
}

#[test]
fn train_report_is_identical_across_thread_counts() {
    let reference = fit_report(1);
    // The report must have actually observed the private fit.
    assert!(reference.dp_sgd_steps > 0);
    assert!(reference.em_iterations > 0);
    assert!(reference.clip_measured_examples > 0);
    assert!(reference.phase_nanos.is_empty(), "no timer was injected");
    for threads in [2, 4] {
        assert_eq!(
            fit_report(threads),
            reference,
            "TrainReport diverged at {threads} threads"
        );
    }
}

/// A test clock that advances one microsecond on every read, so every
/// timed phase lasts a whole number of reads.
#[derive(Default)]
struct SteppingClock(AtomicU64);

impl TimeSource for SteppingClock {
    fn now_nanos(&self) -> u64 {
        self.0.fetch_add(1_000, Ordering::Relaxed)
    }
}

#[test]
fn injected_timer_records_the_training_phases_without_changing_the_fit() {
    use rand::SeedableRng;
    let data = Matrix::from_fn(48, 5, |i, j| {
        0.5 + 0.4 * (((i * 5 + j) as f64) * 0.37).sin()
    });
    for private in [true, false] {
        let config = PgmConfig {
            latent_dim: 2,
            hidden_dim: 8,
            mog_components: 2,
            epochs: 2,
            batch_size: 16,
            em_iterations: 3,
            private,
            ..PgmConfig::default()
        };
        let fit = |timer: Option<&dyn TimeSource>| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            let (model, _, report) =
                PhasedGenerativeModel::fit_with_report(&mut rng, &data, config.clone(), timer)
                    .unwrap();
            (model.to_bytes(), report)
        };
        let (untimed_bytes, untimed) = fit(None);
        let clock = SteppingClock::default();
        let (timed_bytes, mut timed) = fit(Some(&clock));
        assert_eq!(
            timed_bytes, untimed_bytes,
            "a timer changed the trained model"
        );

        let names: Vec<&str> = timed.phase_nanos.iter().map(|(name, _)| *name).collect();
        let expected: &[&str] = if private {
            &[
                "dp_pca",
                "dp_em",
                "encode",
                "lot_gradients",
                "dp_noise",
                "optimizer",
                "decode",
            ]
        } else {
            &[
                "pca",
                "em",
                "encode",
                "lot_gradients",
                "optimizer",
                "decode",
            ]
        };
        assert_eq!(names, expected);
        // Per-step phases are per-fit totals: one tick per DP-SGD step,
        // except that the lot's dispatch contains the noise draw (its two
        // clock reads), so `dp_noise` overlaps `lot_gradients`.
        let steps = (48 / 16) * 2;
        for (name, nanos) in &timed.phase_nanos {
            let ticks = match *name {
                "lot_gradients" if private => 3,
                "lot_gradients" | "dp_noise" | "optimizer" => 1,
                _ => continue,
            };
            assert_eq!(*nanos, steps * ticks * 1_000, "{name}");
        }
        assert!(untimed.phase_nanos.is_empty());
        timed.phase_nanos.clear();
        assert_eq!(timed, untimed, "a timer changed the counts");
    }
}
