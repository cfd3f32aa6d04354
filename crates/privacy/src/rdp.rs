//! Rényi-DP accountant implementing the paper's Theorem 4.
//!
//! The accountant tracks, for every order α on a fixed grid, the accumulated
//! RDP budget `ε(α)` of all mechanisms applied so far.  At conversion time
//! (paper Theorem 2) it reports
//!
//! ```text
//! ε = min_α [ ε(α) + log(1/δ) / (α − 1) ]
//! ```
//!
//! which is exactly the right-hand side of paper Eq. (9) when the P3GM
//! components (DP-PCA, T_e steps of DP-EM, T_s steps of DP-SGD) have been
//! added.

use crate::moments::{
    ma_dp_em, moments_to_rdp, rdp_gaussian, rdp_pure_dp, rdp_sampled_gaussian, Eq4Terms,
};
use crate::{PrivacyError, Result};

/// Default grid of RDP orders. Matches the common practice of mixing a fine
/// low-order grid (where subsampled mechanisms are usually optimal) with a
/// coarse tail up to 512.
pub const DEFAULT_ORDERS: &[f64] = &[
    1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 16.0,
    20.0, 24.0, 28.0, 32.0, 48.0, 64.0, 96.0, 128.0, 256.0, 512.0,
];

/// Which bound to use for the per-step DP-SGD cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DpSgdBound {
    /// Paper Eq. (4): Abadi et al.'s moments expansion, bridged to RDP by
    /// paper Theorem 3. This is what the paper's Theorem 4 uses.
    PaperEq4,
    /// The integer-order sampled-Gaussian RDP bound (Mironov et al.),
    /// provided as a tighter ablation.
    SampledGaussian,
}

/// A summary of the total privacy guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacySpec {
    /// The ε of the (ε, δ)-DP guarantee.
    pub epsilon: f64,
    /// The δ of the (ε, δ)-DP guarantee.
    pub delta: f64,
    /// The RDP order at which the conversion was tightest.
    pub optimal_order: f64,
}

impl PrivacySpec {
    /// Serializes the guarantee into a framed `p3gm-store` buffer — the
    /// stamp a persisted model snapshot carries so a serving process knows
    /// the (ε, δ) certified for the release without re-running accounting.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::PRIVACY_SPEC);
        enc.f64(self.epsilon)
            .f64(self.delta)
            .f64(self.optimal_order);
        enc.finish()
    }

    /// Deserializes a guarantee from a buffer produced by
    /// [`PrivacySpec::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<PrivacySpec> {
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::PRIVACY_SPEC)?;
        let epsilon = dec.f64()?;
        let delta = dec.f64()?;
        let optimal_order = dec.f64()?;
        dec.finish()?;
        if !(epsilon.is_finite() && epsilon >= 0.0) {
            return Err(p3gm_store::StoreError::Invalid {
                msg: format!("epsilon must be finite and non-negative, got {epsilon}"),
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(p3gm_store::StoreError::Invalid {
                msg: format!("delta must be in (0,1), got {delta}"),
            });
        }
        if !optimal_order.is_finite() || optimal_order <= 1.0 {
            return Err(p3gm_store::StoreError::Invalid {
                msg: format!("RDP order must exceed 1, got {optimal_order}"),
            });
        }
        Ok(PrivacySpec {
            epsilon,
            delta,
            optimal_order,
        })
    }
}

impl std::fmt::Display for PrivacySpec {
    /// The human-facing certificate line, e.g. `(1.000, 1e-5)-DP` — the
    /// form the serving layer stamps on every synthesis response.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.3}, {:e})-DP", self.epsilon, self.delta)
    }
}

/// Rényi-DP accountant over a fixed grid of orders.
#[derive(Debug, Clone)]
pub struct RdpAccountant {
    orders: Vec<f64>,
    /// Accumulated ε(α) for each order, aligned with `orders`.
    eps: Vec<f64>,
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new(DEFAULT_ORDERS)
    }
}

impl RdpAccountant {
    /// Creates an accountant tracking the given orders (all must be > 1).
    pub fn new(orders: &[f64]) -> Self {
        let orders: Vec<f64> = orders.iter().copied().filter(|&a| a > 1.0).collect();
        let eps = vec![0.0; orders.len()];
        RdpAccountant { orders, eps }
    }

    /// The tracked RDP orders.
    pub fn orders(&self) -> &[f64] {
        &self.orders
    }

    /// The accumulated RDP epsilon at each tracked order.
    pub fn rdp_epsilons(&self) -> &[f64] {
        &self.eps
    }

    /// Adds a mechanism whose RDP curve is given by `f(α)`.
    pub fn add_curve(&mut self, f: impl Fn(f64) -> f64) {
        for (e, &a) in self.eps.iter_mut().zip(self.orders.iter()) {
            *e += f(a);
        }
    }

    /// Adds a pure `eps`-DP mechanism (e.g. DP-PCA with the Wishart
    /// mechanism), contributing `min(2αε², ε)` at each order — the `2αε²`
    /// form is the one used by the paper's Theorem 4.
    pub fn add_pure_dp(&mut self, eps: f64) -> Result<&mut Self> {
        if eps < 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("pure-DP epsilon must be non-negative, got {eps}"),
            });
        }
        self.add_curve(|a| rdp_pure_dp(a, eps));
        Ok(self)
    }

    /// Adds a Gaussian mechanism with L2 sensitivity `delta_f` and noise
    /// standard deviation `sigma`.
    pub fn add_gaussian(&mut self, delta_f: f64, sigma: f64) -> Result<&mut Self> {
        if sigma <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("gaussian sigma must be positive, got {sigma}"),
            });
        }
        self.add_curve(|a| rdp_gaussian(a, delta_f, sigma));
        Ok(self)
    }

    /// Adds `steps` iterations of DP-EM with noise scale `sigma_e` and
    /// `n_components` mixture components, using paper Eq. (3) bridged to RDP
    /// via paper Theorem 3 (`ε_re(α) = MA_DP-EM(α−1)/(α−1)`).
    pub fn add_dp_em(
        &mut self,
        steps: usize,
        sigma_e: f64,
        n_components: usize,
    ) -> Result<&mut Self> {
        if sigma_e <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("sigma_e must be positive, got {sigma_e}"),
            });
        }
        if n_components == 0 {
            return Err(PrivacyError::InvalidParameter {
                msg: "n_components must be positive".to_string(),
            });
        }
        let t = steps as f64;
        self.add_curve(|a| t * moments_to_rdp(ma_dp_em(a - 1.0, sigma_e, n_components), a));
        Ok(self)
    }

    /// Adds `steps` iterations of DP-SGD with sampling probability `q` and
    /// noise multiplier `sigma`, using the selected per-step bound.
    ///
    /// `q = 1` (a full-batch lot, which `p3gm-core`'s trainer draws, and
    /// whose sampling probability it reports, whenever `batch_size >= n`)
    /// is legal: without subsampling
    /// each step is a plain Gaussian mechanism on the clipped gradient sum,
    /// so its exact RDP curve `α/(2σ²)` is charged instead of a subsampling
    /// bound (both Eq. (4) and the sampled-Gaussian expansion assume
    /// `q < 1`).
    ///
    /// Under [`DpSgdBound::PaperEq4`] every order reads `MA(λ)` from one
    /// table of Eq. (4)'s per-`t` terms for this `(q, σ)`. The terms do not
    /// depend on the order, so the grid's 27 orders share one evaluation
    /// of each term instead of repeating it, with its `O(t)` log double
    /// factorial, for every order. The additions, and so every ε bit, are
    /// those of evaluating each order on its own. A snapshot's header
    /// peek recomputes its stamp through this charge: the adult-like
    /// served model's whole stamp took 37–46 µs before the table and
    /// 6–10 µs with it (AVX-512 Xeon).
    pub fn add_dp_sgd(
        &mut self,
        steps: usize,
        q: f64,
        sigma: f64,
        bound: DpSgdBound,
    ) -> Result<&mut Self> {
        if !(0.0..=1.0).contains(&q) || q == 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("sampling probability must be in (0,1], got {q}"),
            });
        }
        if sigma <= 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("noise multiplier must be positive, got {sigma}"),
            });
        }
        let t = steps as f64;
        if q == 1.0 {
            self.add_curve(|a| t * rdp_gaussian(a, 1.0, sigma));
            return Ok(self);
        }
        match bound {
            DpSgdBound::PaperEq4 => {
                // MA is defined for integer moment orders λ; Theorem 3
                // certifies order α only when λ ≥ α − 1, so round UP. λ is
                // additionally floored at 2: the Eq. (4) expansion
                // evaluates to exactly 0 at λ = 1 (the leading term carries
                // λ(λ−1) and the t-loop is empty), which would account
                // DP-SGD as free at every order α ≤ 2 — and the MA curve is
                // nondecreasing in λ, so both roundings are conservative.
                let moment_order = |a: f64| (a - 1.0).ceil().max(2.0) as u32;
                let max_lambda = self.orders.iter().map(|&a| moment_order(a)).max();
                let terms = Eq4Terms::new(q, sigma, max_lambda.unwrap_or(2));
                self.add_curve(|a| t * moments_to_rdp(terms.ma(moment_order(a)), a));
            }
            DpSgdBound::SampledGaussian => {
                self.add_curve(|a| {
                    // Same soundness argument: RDP is nondecreasing in the
                    // order, so the integer-order value at ceil(α) upper
                    // bounds the fractional order α.
                    let alpha_int = a.ceil().max(2.0) as u32;
                    t * rdp_sampled_gaussian(alpha_int, q, sigma)
                });
            }
        }
        Ok(self)
    }

    /// Converts the accumulated RDP guarantee to (ε, δ)-DP via paper
    /// Theorem 2, minimizing over the tracked orders.
    pub fn to_dp(&self, delta: f64) -> Result<PrivacySpec> {
        if !(0.0..1.0).contains(&delta) || delta == 0.0 {
            return Err(PrivacyError::InvalidParameter {
                msg: format!("delta must be in (0,1), got {delta}"),
            });
        }
        let log_inv_delta = (1.0 / delta).ln();
        let mut best = f64::INFINITY;
        let mut best_order = self.orders.first().copied().unwrap_or(2.0);
        for (&a, &e) in self.orders.iter().zip(self.eps.iter()) {
            let candidate = e + log_inv_delta / (a - 1.0);
            if candidate < best {
                best = candidate;
                best_order = a;
            }
        }
        Ok(PrivacySpec {
            epsilon: best,
            delta,
            optimal_order: best_order,
        })
    }

    /// Convenience: total ε for the full P3GM pipeline of paper Theorem 4.
    ///
    /// `eps_p` is the DP-PCA budget, `(t_e, sigma_e, k)` the DP-EM schedule,
    /// `(t_s, q, sigma_s)` the DP-SGD schedule, `delta` the target δ.
    #[allow(clippy::too_many_arguments)]
    pub fn p3gm_total(
        eps_p: f64,
        t_e: usize,
        sigma_e: f64,
        k: usize,
        t_s: usize,
        q: f64,
        sigma_s: f64,
        delta: f64,
    ) -> Result<PrivacySpec> {
        let mut acc = RdpAccountant::default();
        if eps_p > 0.0 {
            acc.add_pure_dp(eps_p)?;
        }
        if t_e > 0 {
            acc.add_dp_em(t_e, sigma_e, k)?;
        }
        if t_s > 0 {
            acc.add_dp_sgd(t_s, q, sigma_s, DpSgdBound::PaperEq4)?;
        }
        acc.to_dp(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DELTA: f64 = 1e-5;

    #[test]
    fn privacy_spec_display_is_the_certificate_line() {
        let spec = PrivacySpec {
            epsilon: 0.987654,
            delta: 1e-5,
            optimal_order: 8.0,
        };
        assert_eq!(spec.to_string(), "(0.988, 1e-5)-DP");
    }

    #[test]
    fn empty_accountant_cost_is_conversion_overhead_only() {
        let acc = RdpAccountant::default();
        let spec = acc.to_dp(DELTA).unwrap();
        // With no mechanisms the only cost is log(1/δ)/(α−1), minimized at
        // the largest order.
        let expected = (1.0 / DELTA).ln() / (512.0 - 1.0);
        assert!((spec.epsilon - expected).abs() < 1e-9);
        assert_eq!(spec.optimal_order, 512.0);
    }

    #[test]
    fn gaussian_mechanism_known_value() {
        let mut acc = RdpAccountant::default();
        acc.add_gaussian(1.0, 4.0).unwrap();
        let spec = acc.to_dp(DELTA).unwrap();
        // Analytic: min over α of α/(2σ²) + log(1/δ)/(α−1);
        // optimum near α = 1 + sqrt(2σ² log(1/δ)) ≈ 20.2 → ε ≈ 1.23.
        assert!(
            spec.epsilon > 1.0 && spec.epsilon < 1.45,
            "{}",
            spec.epsilon
        );
    }

    #[test]
    fn composition_is_additive_in_rdp() {
        let mut one = RdpAccountant::default();
        one.add_gaussian(1.0, 2.0).unwrap();
        let mut two = RdpAccountant::default();
        two.add_gaussian(1.0, 2.0).unwrap();
        two.add_gaussian(1.0, 2.0).unwrap();
        for (a, b) in one.rdp_epsilons().iter().zip(two.rdp_epsilons().iter()) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
        // And the converted epsilon grows, but sub-linearly.
        let e1 = one.to_dp(DELTA).unwrap().epsilon;
        let e2 = two.to_dp(DELTA).unwrap().epsilon;
        assert!(e2 > e1);
        assert!(e2 < 2.0 * e1);
    }

    #[test]
    fn pure_dp_component_increases_epsilon() {
        let base = RdpAccountant::p3gm_total(0.0, 20, 10.0, 3, 100, 0.01, 2.0, DELTA)
            .unwrap()
            .epsilon;
        let with_pca = RdpAccountant::p3gm_total(0.1, 20, 10.0, 3, 100, 0.01, 2.0, DELTA)
            .unwrap()
            .epsilon;
        assert!(with_pca > base);
        // The PCA term 2αε_p² is tiny for ε_p = 0.1, so the increase is small.
        assert!(with_pca - base < 0.5);
    }

    #[test]
    fn dp_sgd_epsilon_decreases_with_noise() {
        let small_noise = RdpAccountant::p3gm_total(0.1, 20, 10.0, 3, 200, 0.02, 1.5, DELTA)
            .unwrap()
            .epsilon;
        let big_noise = RdpAccountant::p3gm_total(0.1, 20, 10.0, 3, 200, 0.02, 4.0, DELTA)
            .unwrap()
            .epsilon;
        assert!(big_noise < small_noise);
    }

    #[test]
    fn dp_sgd_epsilon_increases_with_steps_and_q() {
        let base = RdpAccountant::p3gm_total(0.0, 0, 1.0, 1, 100, 0.01, 2.0, DELTA)
            .unwrap()
            .epsilon;
        let more_steps = RdpAccountant::p3gm_total(0.0, 0, 1.0, 1, 400, 0.01, 2.0, DELTA)
            .unwrap()
            .epsilon;
        let more_q = RdpAccountant::p3gm_total(0.0, 0, 1.0, 1, 100, 0.04, 2.0, DELTA)
            .unwrap()
            .epsilon;
        assert!(more_steps > base);
        assert!(more_q > base);
    }

    #[test]
    fn sampled_gaussian_bound_not_looser_than_eq4() {
        let mut eq4 = RdpAccountant::default();
        eq4.add_dp_sgd(500, 0.01, 2.0, DpSgdBound::PaperEq4)
            .unwrap();
        let mut sg = RdpAccountant::default();
        sg.add_dp_sgd(500, 0.01, 2.0, DpSgdBound::SampledGaussian)
            .unwrap();
        let e_eq4 = eq4.to_dp(DELTA).unwrap().epsilon;
        let e_sg = sg.to_dp(DELTA).unwrap().epsilon;
        assert!(e_sg <= e_eq4 * 1.0001, "eq4 {e_eq4} vs sg {e_sg}");
    }

    #[test]
    fn paper_setting_is_order_one() {
        // A P3GM-like schedule (MNIST row of Table IV scaled down):
        // sigma_s = 1.42, q = 240/63000, 10 epochs → T_s ≈ 2625,
        // sigma_e chosen large, eps_p = 0.1. The paper reports this as
        // (1, 1e-5)-DP; our independently implemented accountant should land
        // in the same ballpark (within a factor ~2).
        let n = 63000.0;
        let batch = 240.0;
        let q = batch / n;
        let t_s = (10.0 * n / batch) as usize;
        let spec = RdpAccountant::p3gm_total(0.1, 20, 70.0, 3, t_s, q, 1.42, DELTA).unwrap();
        assert!(
            spec.epsilon > 0.3 && spec.epsilon < 2.0,
            "epsilon {} not near 1",
            spec.epsilon
        );
    }

    #[test]
    fn dp_sgd_is_never_free_at_low_orders() {
        // Regression for the floor(α−1) soundness bug: at every order
        // α < 3 the old accountant charged λ = 1, where the Eq. (4)
        // expansion is exactly 0, so DP-SGD was accounted as free.
        let low_orders = [1.25, 1.5, 1.75, 2.0, 2.25, 2.5];
        let mut acc = RdpAccountant::new(&low_orders);
        acc.add_dp_sgd(100, 0.01, 1.5, DpSgdBound::PaperEq4)
            .unwrap();
        for (&a, &e) in acc.orders().iter().zip(acc.rdp_epsilons().iter()) {
            assert!(e > 0.0, "DP-SGD accounted as free at order {a}");
        }
    }

    #[test]
    fn epsilon_strictly_increases_with_steps_at_every_order() {
        // Adding DP-SGD steps must never decrease (and in fact must
        // strictly increase) the reported ε, at every tracked order —
        // including the fractional α < 3 regime the floor bug zeroed out.
        for &a in DEFAULT_ORDERS {
            let mut base = RdpAccountant::new(&[a]);
            base.add_dp_sgd(100, 0.02, 2.0, DpSgdBound::PaperEq4)
                .unwrap();
            let mut more = RdpAccountant::new(&[a]);
            more.add_dp_sgd(200, 0.02, 2.0, DpSgdBound::PaperEq4)
                .unwrap();
            let e_base = base.to_dp(DELTA).unwrap().epsilon;
            let e_more = more.to_dp(DELTA).unwrap().epsilon;
            assert!(
                e_more >= e_base,
                "order {a}: ε decreased with steps ({e_base} -> {e_more})"
            );
            // While the per-step bound is finite (it saturates to +inf at
            // very large orders), doubling the steps strictly increases ε.
            if e_base.is_finite() {
                assert!(
                    e_more > e_base,
                    "order {a}: ε did not grow with steps ({e_base} -> {e_more})"
                );
            }
        }
    }

    #[test]
    fn ceil_bound_is_pointwise_at_least_the_floor_bound() {
        // ceil(α−1).max(2) ≥ floor(α−1).max(1) and the MA curve is
        // nondecreasing in λ, so the fixed accountant can only report a
        // larger (never smaller) per-order cost than the old one.
        use crate::moments::ma_dp_sgd;
        let (q, sigma) = (0.02, 1.5);
        for &a in DEFAULT_ORDERS {
            let floor_lambda = (a - 1.0).floor().max(1.0) as u32;
            let ceil_lambda = (a - 1.0).ceil().max(2.0) as u32;
            assert!(
                ma_dp_sgd(ceil_lambda, q, sigma) >= ma_dp_sgd(floor_lambda, q, sigma),
                "order {a}"
            );
        }
    }

    #[test]
    fn full_batch_q_one_is_accepted_as_plain_gaussian() {
        // A legal full-batch configuration (batch_size >= n clamps q to 1)
        // must account, not error — regression for the q = 1 rejection.
        let mut acc = RdpAccountant::default();
        acc.add_dp_sgd(10, 1.0, 2.0, DpSgdBound::PaperEq4).unwrap();
        // Each step is the plain Gaussian mechanism: ε(α) = α/(2σ²).
        for (&a, &e) in acc.orders().iter().zip(acc.rdp_epsilons().iter()) {
            let expected = 10.0 * a / (2.0 * 2.0 * 2.0);
            assert!((e - expected).abs() < 1e-12, "order {a}: {e} vs {expected}");
        }
        // Both bounds agree at q = 1 and the whole-pipeline helper works.
        let mut sg = RdpAccountant::default();
        sg.add_dp_sgd(10, 1.0, 2.0, DpSgdBound::SampledGaussian)
            .unwrap();
        assert_eq!(acc.rdp_epsilons(), sg.rdp_epsilons());
        let spec = RdpAccountant::p3gm_total(0.1, 5, 10.0, 3, 10, 1.0, 2.0, DELTA).unwrap();
        assert!(spec.epsilon.is_finite() && spec.epsilon > 0.0);
        // Full batch costs at least as much as any subsampled lot of the
        // same length and noise.
        let sub = RdpAccountant::p3gm_total(0.1, 5, 10.0, 3, 10, 0.1, 2.0, DELTA).unwrap();
        assert!(spec.epsilon >= sub.epsilon);
    }

    #[test]
    fn privacy_spec_byte_round_trip() {
        let mut acc = RdpAccountant::default();
        acc.add_gaussian(1.0, 3.0).unwrap();
        let spec = acc.to_dp(DELTA).unwrap();
        let back = PrivacySpec::from_bytes(&spec.to_bytes()).unwrap();
        assert_eq!(back, spec);
        let bytes = spec.to_bytes();
        for cut in 0..bytes.len() {
            assert!(PrivacySpec::from_bytes(&bytes[..cut]).is_err());
        }
        // Semantic validation inside a valid frame.
        let bad = PrivacySpec {
            epsilon: 1.0,
            delta: 2.0,
            optimal_order: 4.0,
        };
        assert!(matches!(
            PrivacySpec::from_bytes(&bad.to_bytes()),
            Err(p3gm_store::StoreError::Invalid { .. })
        ));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut acc = RdpAccountant::default();
        assert!(acc.add_pure_dp(-1.0).is_err());
        assert!(acc.add_gaussian(1.0, 0.0).is_err());
        assert!(acc.add_dp_em(5, -1.0, 3).is_err());
        assert!(acc.add_dp_em(5, 1.0, 0).is_err());
        assert!(acc.add_dp_sgd(5, 0.0, 1.0, DpSgdBound::PaperEq4).is_err());
        assert!(acc.add_dp_sgd(5, 1.5, 1.0, DpSgdBound::PaperEq4).is_err());
        assert!(acc.add_dp_sgd(5, 0.1, 0.0, DpSgdBound::PaperEq4).is_err());
        assert!(acc.to_dp(0.0).is_err());
        assert!(acc.to_dp(1.5).is_err());
    }

    #[test]
    fn orders_below_one_are_dropped() {
        let acc = RdpAccountant::new(&[0.5, 1.0, 2.0, 4.0]);
        assert_eq!(acc.orders(), &[2.0, 4.0]);
    }

    #[test]
    fn optimal_order_moves_with_budget() {
        // Heavier mechanisms favour smaller orders.
        let mut light = RdpAccountant::default();
        light.add_gaussian(1.0, 20.0).unwrap();
        let mut heavy = RdpAccountant::default();
        heavy.add_gaussian(1.0, 0.7).unwrap();
        let lo = light.to_dp(DELTA).unwrap().optimal_order;
        let ho = heavy.to_dp(DELTA).unwrap().optimal_order;
        assert!(ho <= lo);
    }
}
