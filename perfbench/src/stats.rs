//! Order statistics and counter arithmetic the benchmark reports with.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, interpolated exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method);
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The `p`-quantile by nearest rank (the smallest sample with at least a
/// `p` share of samples at or below it), reported only when at least
/// `min_beyond` samples lie strictly beyond it: a tail percentile resting
/// on fewer samples repeats too poorly to compare runs with.
pub fn supported_percentile(values: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// Sum of every sample of the Prometheus series `name` (all label sets)
/// whose labels contain each `(key, value)` of `filter`, in a text
/// exposition.
pub fn counter_sum(exposition: &str, name: &str, filter: &[(&str, &str)]) -> f64 {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let (metric, labels) = match series.split_once('{') {
                Some((metric, labels)) => (metric, labels.trim_end_matches('}')),
                None => (series, ""),
            };
            let wanted = metric == name
                && filter
                    .iter()
                    .all(|(k, v)| labels.split(',').any(|l| l == format!("{k}=\"{v}\"")));
            if wanted {
                value.parse::<f64>().ok()
            } else {
                None
            }
        })
        .sum()
}

/// Increase of a monotone counter between two scrapes. A decrease means
/// the counter was reset or the scrapes were swapped, so it is an error
/// rather than a negative delta.
pub fn counter_delta(before: f64, after: f64) -> Result<f64, String> {
    if after < before {
        Err(format!("counter went backwards: {before} -> {after}"))
    } else {
        Ok(after - before)
    }
}

/// `numerator / denominator`, or an error naming the ratio when the
/// denominator is zero.
pub fn ratio(numerator: f64, denominator: f64, what: &str) -> Result<f64, String> {
    if denominator > 0.0 {
        Ok(numerator / denominator)
    } else {
        Err(format!("{what}: no denominator events"))
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(supported_percentile(&hundred, 0.9, 10), Some(90.0));
        assert_eq!(supported_percentile(&hundred, 0.5, 10), Some(50.0));
        // 99 samples leave only 9 beyond the 90th percentile.
        assert_eq!(supported_percentile(&hundred[..99], 0.9, 10), None);
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(supported_percentile(&hundred, 0.99, 10), None);
        assert_eq!(supported_percentile(&hundred, 0.99, 1), Some(99.0));
        assert_eq!(supported_percentile(&[], 0.5, 0), None);
    }

    #[test]
    fn counter_sums_respect_names_and_label_filters() {
        let text = "# HELP p3gm_requests_total HTTP requests.\n\
                    # TYPE p3gm_requests_total counter\n\
                    p3gm_requests_total{route=\"/metrics\",status=\"200\"} 3\n\
                    p3gm_requests_total{route=\"/models/{name}/sample\",status=\"200\"} 40\n\
                    p3gm_requests_total{route=\"/models/{name}/sample\",status=\"503\"} 2\n\
                    p3gm_requests_total_other 1000\n\
                    p3gm_reactor_wakeups_total 77\n";
        assert_eq!(counter_sum(text, "p3gm_requests_total", &[]), 45.0);
        assert_eq!(
            counter_sum(text, "p3gm_requests_total", &[("status", "200")]),
            43.0
        );
        assert_eq!(
            counter_sum(
                text,
                "p3gm_requests_total",
                &[("route", "/models/{name}/sample"), ("status", "503")]
            ),
            2.0
        );
        assert_eq!(counter_sum(text, "p3gm_reactor_wakeups_total", &[]), 77.0);
        assert_eq!(counter_sum(text, "p3gm_missing_total", &[]), 0.0);
    }

    #[test]
    fn deltas_and_ratios_from_counters() {
        assert_eq!(counter_delta(10.0, 25.0), Ok(15.0));
        assert_eq!(counter_delta(5.0, 5.0), Ok(0.0));
        assert!(counter_delta(25.0, 10.0).is_err());
        assert_eq!(ratio(3.0, 12.0, "miss ratio"), Ok(0.25));
        assert!(ratio(3.0, 0.0, "miss ratio").is_err());
    }
}
