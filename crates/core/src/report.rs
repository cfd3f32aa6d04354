//! Training telemetry: what a (P3)GM fit *did*, as counts and released
//! diagnostics.
//!
//! [`TrainReport`] is filled in by the observed training entry points
//! ([`crate::PhasedGenerativeModel::fit_with_report`] and
//! [`crate::PhasedGenerativeModel::train_epoch_observed`]) and exists purely
//! as post-processing: every number in it is either a deterministic count of
//! events that happened anyway (steps, clipped rows, EM iterations) or a
//! value the DP mechanisms already released (the EM log-likelihood
//! trajectory is computed from the *noised* responsibilities). Nothing here
//! feeds back into training or the (ε, δ) accounting, and nothing here is
//! persisted.
//!
//! Phase wall-times are recorded only when the caller injects a
//! [`TimeSource`]; this crate never reads a clock itself (conform rule D2),
//! so deterministic callers simply pass `None`.

use p3gm_obs::{MetricsRegistry, TimeSource};

/// Counters and diagnostics accumulated over one training run (or a set of
/// epochs). All counts are bit-identical for any `P3GM_THREADS` setting:
/// they are folded in chunk order alongside the numeric results they
/// describe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainReport {
    /// DP-SGD optimizer steps taken (0 for non-private training).
    pub dp_sgd_steps: u64,
    /// Per-example gradients whose L2 norm exceeded the clip norm.
    pub clipped_examples: u64,
    /// Per-example gradients that went through the clipping decision
    /// (the denominator of [`clipped_fraction`](TrainReport::clipped_fraction)).
    pub clip_measured_examples: u64,
    /// (DP-)EM iterations run during the Encoding Phase.
    pub em_iterations: u64,
    /// Per-iteration EM log-likelihood trajectory (a released diagnostic:
    /// computed from the mechanism's own noised outputs, no extra budget).
    pub em_log_likelihood: Vec<f64>,
    /// Decoding-Phase epochs covered by this report.
    pub epochs: u64,
    /// Wall-time per phase in nanoseconds, present only when the caller
    /// injected a [`TimeSource`]. Empty reports are the deterministic norm.
    pub phase_nanos: Vec<(&'static str, u64)>,
}

impl TrainReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of measured per-example gradients that were clipped, or
    /// `None` before any DP-SGD step ran. A fraction pinned near 1.0 means
    /// the clip norm dominates the signal; near 0.0 means clipping is
    /// inactive and the noise is calibrated against slack.
    pub fn clipped_fraction(&self) -> Option<f64> {
        if self.clip_measured_examples == 0 {
            None
        } else {
            Some(self.clipped_examples as f64 / self.clip_measured_examples as f64)
        }
    }

    /// Fold another report into this one (counts add, trajectories append,
    /// phase timings append).
    pub fn merge(&mut self, other: &TrainReport) {
        self.dp_sgd_steps += other.dp_sgd_steps;
        self.clipped_examples += other.clipped_examples;
        self.clip_measured_examples += other.clip_measured_examples;
        self.em_iterations += other.em_iterations;
        self.em_log_likelihood
            .extend_from_slice(&other.em_log_likelihood);
        self.epochs += other.epochs;
        self.phase_nanos.extend_from_slice(&other.phase_nanos);
    }

    /// Record the wall-time of `phase` as measured by `timer` since
    /// `start_nanos`, adding it to the phase's total if the phase is
    /// already recorded (a phase that runs once per DP-SGD step reports
    /// one per-fit total). No-op when no timer is injected.
    pub(crate) fn record_phase(
        &mut self,
        timer: Option<&dyn TimeSource>,
        phase: &'static str,
        start_nanos: Option<u64>,
    ) {
        if let (Some(t), Some(start)) = (timer, start_nanos) {
            let nanos = t.now_nanos().saturating_sub(start);
            match self.phase_nanos.iter_mut().find(|(name, _)| *name == phase) {
                Some((_, total)) => *total += nanos,
                None => self.phase_nanos.push((phase, nanos)),
            }
        }
    }

    /// Export the report into a metrics registry under the
    /// `p3gm_train_*` family names (see the README's metric table).
    pub fn record_to(&self, registry: &MetricsRegistry) {
        registry
            .counter(
                "p3gm_train_dp_sgd_steps_total",
                "DP-SGD optimizer steps taken.",
                &[],
            )
            .add(self.dp_sgd_steps);
        registry
            .counter(
                "p3gm_train_clipped_examples_total",
                "Per-example gradients clipped to the L2 clip norm.",
                &[],
            )
            .add(self.clipped_examples);
        registry
            .counter(
                "p3gm_train_examples_total",
                "Per-example gradients that went through the clipping decision.",
                &[],
            )
            .add(self.clip_measured_examples);
        registry
            .counter(
                "p3gm_train_em_iterations_total",
                "(DP-)EM iterations run during the Encoding Phase.",
                &[],
            )
            .add(self.em_iterations);
        registry
            .counter(
                "p3gm_train_epochs_total",
                "Decoding-Phase epochs trained.",
                &[],
            )
            .add(self.epochs);
        if let Some(ll) = self.em_log_likelihood.last() {
            registry
                .gauge(
                    "p3gm_train_em_log_likelihood",
                    "Final (DP-)EM mean log-likelihood of the Encoding Phase.",
                    &[],
                )
                .set(*ll);
        }
        for (phase, nanos) in &self.phase_nanos {
            registry
                .gauge(
                    "p3gm_train_phase_seconds",
                    "Wall-time of a training phase (injected timer only).",
                    &[("phase", phase)],
                )
                .set(*nanos as f64 * 1e-9);
        }
    }

    /// A compact human-readable summary for examples and CLIs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "train report: {} epoch(s), {} DP-SGD step(s), {} EM iteration(s)\n",
            self.epochs, self.dp_sgd_steps, self.em_iterations
        ));
        match self.clipped_fraction() {
            Some(f) => out.push_str(&format!(
                "  clipped gradients: {}/{} ({:.1}%)\n",
                self.clipped_examples,
                self.clip_measured_examples,
                f * 100.0
            )),
            None => out.push_str("  clipped gradients: n/a (no DP-SGD steps)\n"),
        }
        if let (Some(first), Some(last)) = (
            self.em_log_likelihood.first(),
            self.em_log_likelihood.last(),
        ) {
            out.push_str(&format!(
                "  EM log-likelihood: {first:.4} -> {last:.4} over {} point(s)\n",
                self.em_log_likelihood.len()
            ));
        }
        for (phase, nanos) in &self.phase_nanos {
            out.push_str(&format!("  phase {phase}: {:.3} s\n", *nanos as f64 * 1e-9));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3gm_obs::ManualClock;

    #[test]
    fn clipped_fraction_handles_empty_and_counts() {
        let mut r = TrainReport::new();
        assert_eq!(r.clipped_fraction(), None);
        r.clipped_examples = 3;
        r.clip_measured_examples = 12;
        assert_eq!(r.clipped_fraction(), Some(0.25));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TrainReport {
            dp_sgd_steps: 2,
            clipped_examples: 1,
            clip_measured_examples: 4,
            em_iterations: 3,
            em_log_likelihood: vec![-5.0],
            epochs: 1,
            phase_nanos: vec![("encode", 10)],
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.dp_sgd_steps, 4);
        assert_eq!(a.em_log_likelihood, vec![-5.0, -5.0]);
        assert_eq!(a.phase_nanos.len(), 2);
    }

    #[test]
    fn record_to_exports_counters_and_gauges() {
        let report = TrainReport {
            dp_sgd_steps: 7,
            clipped_examples: 5,
            clip_measured_examples: 10,
            em_iterations: 4,
            em_log_likelihood: vec![-9.0, -6.5],
            epochs: 2,
            phase_nanos: vec![("encode", 2_000_000_000)],
        };
        let registry = MetricsRegistry::new();
        report.record_to(&registry);
        let text = registry.render();
        assert!(text.contains("p3gm_train_dp_sgd_steps_total 7"));
        assert!(text.contains("p3gm_train_em_log_likelihood -6.5"));
        assert!(text.contains("p3gm_train_phase_seconds{phase=\"encode\"} 2"));
    }

    #[test]
    fn record_phase_uses_injected_timer_only() {
        let clock = ManualClock::new();
        let start = Some(clock.now_nanos());
        clock.advance(500);
        let mut report = TrainReport::new();
        report.record_phase(Some(&clock), "encode", start);
        report.record_phase(None, "decode", start);
        assert_eq!(report.phase_nanos, vec![("encode", 500)]);
        assert!(report.render().contains("phase encode"));
    }
}
