//! Training telemetry: what a (P3)GM fit *did*, as counts and released
//! diagnostics.
//!
//! [`TrainReport`] is filled in by the observed training entry points
//! ([`crate::PhasedGenerativeModel::fit_with_report`] and
//! [`crate::PhasedGenerativeModel::train_epoch_observed`]). Nothing here
//! feeds back into training or the (ε, δ) accounting, and nothing here is
//! persisted.
//!
//! The report is **not** covered by the model's privacy stamp. The step,
//! iteration and epoch counts follow from the configuration and the row
//! count, but the clip counts count private rows, and the EM
//! log-likelihood trajectory is evaluated on the clipped private rows.
//! Neither is a function of the DP releases alone, so treat a report as
//! private data, not as something the stamp lets you publish.
//!
//! Phase wall-times are recorded only when the caller injects a
//! [`TimeSource`]; this crate never reads a clock itself (conform rule D2),
//! so deterministic callers simply pass `None`.

use p3gm_obs::TimeSource;

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
    /// Per-iteration EM mean log-likelihood of the clipped private rows
    /// under the released mixture: a diagnostic the stamp does not cover.
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
        self.record_nanos(phase, elapsed_nanos(timer, start_nanos));
    }

    /// Adds `nanos`, measured elsewhere (see [`elapsed_nanos`]), to the
    /// phase's total as [`record_phase`](Self::record_phase) does. No-op
    /// for `None`.
    pub(crate) fn record_nanos(&mut self, phase: &'static str, nanos: Option<u64>) {
        if let Some(nanos) = nanos {
            match self.phase_nanos.iter_mut().find(|(name, _)| *name == phase) {
                Some((_, total)) => *total += nanos,
                None => self.phase_nanos.push((phase, nanos)),
            }
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

/// Nanoseconds `timer` has advanced since `start_nanos`, or `None` when no
/// timer is injected.
pub(crate) fn elapsed_nanos(
    timer: Option<&dyn TimeSource>,
    start_nanos: Option<u64>,
) -> Option<u64> {
    match (timer, start_nanos) {
        (Some(t), Some(start)) => Some(t.now_nanos().saturating_sub(start)),
        _ => None,
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
