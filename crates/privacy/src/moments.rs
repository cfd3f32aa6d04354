//! Moments-accountant and Rényi-DP bounds for the privatized components.
//!
//! The paper composes three mechanisms in Rényi DP (Theorem 4):
//!
//! * **DP-PCA** (Wishart mechanism, pure ε_p-DP) contributes `(α, 2αε_p²)`-RDP
//!   via Lemma 1 of Mironov's RDP paper.
//! * **DP-EM** contributes, per iteration, the moments bound of paper Eq. (3):
//!   `MA_DP-EM(α) ≤ (2K+1)(α² + α) / (2σ_e²)`.
//! * **DP-SGD** contributes, per iteration, the moments bound of paper
//!   Eq. (4) (Abadi et al.'s expansion for the subsampled Gaussian
//!   mechanism).
//!
//! The bridge between a moments bound and RDP is paper Theorem 3:
//! a mechanism whose α-th moment is `MA(α)` satisfies
//! `(α + 1, MA(α)/α)`-RDP.
//!
//! In addition to the paper's Eq. (4) we provide the standard
//! sampled-Gaussian-mechanism RDP bound (Mironov et al. / Wang et al.) for
//! integer orders, which is tighter and is used as an ablation in the
//! Figure 6 bench.

use p3gm_linalg::vector::log_sum_exp;

/// Moments bound for one DP-EM iteration, paper Eq. (3).
///
/// `MA_DP-EM(α) ≤ (2K + 1)(α² + α) / (2 σ_e²)` where `K` is the number of
/// mixture components (the M-step releases `K` means, `K` covariances and
/// one weight vector, i.e. `2K + 1` Gaussian-perturbed quantities of
/// sensitivity at most 1) and `σ_e` is the Gaussian noise scale.
///
/// # Panics
/// Panics if `sigma_e <= 0` or `n_components == 0`.
pub fn ma_dp_em(alpha: f64, sigma_e: f64, n_components: usize) -> f64 {
    assert!(sigma_e > 0.0, "sigma_e must be positive");
    assert!(n_components > 0, "n_components must be positive");
    let k = n_components as f64;
    (2.0 * k + 1.0) * (alpha * alpha + alpha) / (2.0 * sigma_e * sigma_e)
}

/// Moments bound for one DP-SGD iteration, paper Eq. (4) (Abadi et al.).
///
/// `lambda` is the (integer) moment order, `q` the sampling probability
/// `B/N`, and `sigma` the noise multiplier. The bound is
///
/// ```text
/// MA(λ) ≤ q²λ(λ−1)/((1−q)σ²)
///       + Σ_{t=3}^{λ+1} [ (2q)^t (t−1)!! / (2(1−q)^{t−1} σ^t)
///                        + q^t / ((1−q)^t σ^{2t})
///                        + (2q)^t exp((t²−t)/(2σ²)) (σ^t (t−1)!! + t^t)
///                          / (2(1−q)^{t−1} σ^{2t}) ]
/// ```
///
/// Terms are evaluated in log-space and the result saturates at
/// `f64::INFINITY` for orders where the expansion blows up; the accountant
/// simply never selects those orders. This is a one-order read of the
/// crate's Eq. (4) term table; the accountants, which need many orders
/// of one `(q, σ)`, build that table once and read every order from it.
///
/// # Panics
/// Panics if `q` is not in `(0, 1)` or `sigma <= 0`.
pub fn ma_dp_sgd(lambda: u32, q: f64, sigma: f64) -> f64 {
    Eq4Terms::new(q, sigma, lambda).ma(lambda)
}

/// The bracketed terms of paper Eq. (4) for one `(q, σ)`, shared by every
/// moment order.
///
/// The t-th term depends on `t`, `q` and `σ` only, and `MA(λ)` sums terms
/// `t = 3 ..= λ + 1` in increasing `t` after its leading term. So a grid
/// of orders reads one table instead of re-evaluating each term, with its
/// `O(t)` `ln((t−1)!!)`, once per order: [`Eq4Terms::ma`] performs the
/// same additions, in the same order, on the same values as a per-order
/// loop, and returns the same bits.
#[derive(Debug)]
pub(crate) struct Eq4Terms {
    q: f64,
    sigma: f64,
    max_lambda: u32,
    /// `terms[i]` is the bracketed term at `t = i + 3`, for `t` up to
    /// `max_lambda + 1` or up to the first non-finite term, whichever
    /// comes first: past a non-finite term every `MA(λ)` is `+∞`.
    terms: Vec<f64>,
}

impl Eq4Terms {
    /// The terms every order up to `max_lambda` needs.
    ///
    /// # Panics
    /// Panics if `q` is not in `(0, 1)` or `sigma <= 0`.
    pub(crate) fn new(q: f64, sigma: f64, max_lambda: u32) -> Eq4Terms {
        assert!(q > 0.0 && q < 1.0, "sampling probability must be in (0,1)");
        assert!(sigma > 0.0, "sigma must be positive");
        let ln_q = q.ln();
        let ln_2q = (2.0 * q).ln();
        let ln_1mq = (1.0 - q).ln();
        let ln_sigma = sigma.ln();
        let mut terms = Vec::new();
        for t in 3..=(u64::from(max_lambda) + 1) {
            let tf = t as f64;
            let ln_double_fact = ln_double_factorial(t - 1);

            // (2q)^t (t−1)!! / (2 (1−q)^{t−1} σ^t)
            let term1 =
                tf * ln_2q + ln_double_fact - (2.0_f64).ln() - (tf - 1.0) * ln_1mq - tf * ln_sigma;

            // q^t / ((1−q)^t σ^{2t})
            let term2 = tf * ln_q - tf * ln_1mq - 2.0 * tf * ln_sigma;

            // (2q)^t exp((t²−t)/(2σ²)) (σ^t (t−1)!! + t^t) / (2 (1−q)^{t−1} σ^{2t})
            let ln_inner = log_add_exp(tf * ln_sigma + ln_double_fact, tf * tf.ln());
            let term3 = tf * ln_2q + (tf * tf - tf) / (2.0 * sigma * sigma) + ln_inner
                - (2.0_f64).ln()
                - (tf - 1.0) * ln_1mq
                - 2.0 * tf * ln_sigma;

            let term = term1.exp() + term2.exp() + term3.exp();
            terms.push(term);
            if !term.is_finite() {
                break;
            }
        }
        Eq4Terms {
            q,
            sigma,
            max_lambda,
            terms,
        }
    }

    /// `MA(λ)` of paper Eq. (4): the leading term, then `+= term(t)` for
    /// `t = 3 ..= λ + 1`, returning `+∞` as soon as the sum is not finite.
    ///
    /// # Panics
    /// Panics if `lambda` exceeds the `max_lambda` the table was built for.
    pub(crate) fn ma(&self, lambda: u32) -> f64 {
        assert!(
            lambda <= self.max_lambda,
            "order {lambda} is past the table's {}",
            self.max_lambda
        );
        if lambda == 0 {
            return 0.0;
        }
        let (q, sigma) = (self.q, self.sigma);
        let lam = f64::from(lambda);
        // Leading term: q²λ(λ−1)/((1−q)σ²).
        let mut total = q * q * lam * (lam - 1.0) / ((1.0 - q) * sigma * sigma);
        // A table cut short ends in a non-finite term, which the sum
        // reaches before it runs out.
        let count = (lambda as usize - 1).min(self.terms.len());
        for &term in &self.terms[..count] {
            total += term;
            if !total.is_finite() {
                return f64::INFINITY;
            }
        }
        total
    }
}

/// RDP of the sampled Gaussian mechanism at an **integer** order `alpha >= 2`
/// (Mironov, Talwar & Zhang 2019, Eq. for integer α):
///
/// ```text
/// ε(α) = 1/(α−1) · log Σ_{k=0}^{α} C(α,k) (1−q)^{α−k} q^k exp(k(k−1)/(2σ²))
/// ```
///
/// This is the bound used by most production DP-SGD accountants; we expose
/// it for the composition ablation (Figure 6 discussion) alongside the
/// paper's Eq. (4).
pub fn rdp_sampled_gaussian(alpha: u32, q: f64, sigma: f64) -> f64 {
    assert!(alpha >= 2, "integer RDP order must be >= 2");
    assert!(q > 0.0 && q <= 1.0, "sampling probability must be in (0,1]");
    assert!(sigma > 0.0, "sigma must be positive");
    let a = alpha as u64;
    // log Σ_k exp( log C(α,k) + (α−k) log(1−q) + k log q + k(k−1)/(2σ²) )
    let mut log_terms = Vec::with_capacity(a as usize + 1);
    for k in 0..=a {
        let kf = k as f64;
        let log_binom = ln_binomial(a, k);
        let log_term = log_binom
            + (a - k) as f64 * (1.0 - q).max(f64::MIN_POSITIVE).ln()
            + kf * q.ln()
            + kf * (kf - 1.0) / (2.0 * sigma * sigma);
        log_terms.push(log_term);
    }
    let lse = log_sum_exp(&log_terms);
    lse / (alpha as f64 - 1.0)
}

/// RDP of the (non-subsampled) Gaussian mechanism with sensitivity `delta_f`
/// and noise standard deviation `sigma`: `ε(α) = α Δ² / (2σ²)`.
pub fn rdp_gaussian(alpha: f64, delta_f: f64, sigma: f64) -> f64 {
    assert!(sigma > 0.0, "sigma must be positive");
    alpha * delta_f * delta_f / (2.0 * sigma * sigma)
}

/// RDP of any pure `eps`-DP mechanism: `ε(α) ≤ 2αε²` (Lemma 1 in Mironov's
/// RDP paper, the form the P3GM paper uses for DP-PCA), capped at `eps`
/// because a pure-DP guarantee is itself an RDP guarantee at every order.
pub fn rdp_pure_dp(alpha: f64, eps: f64) -> f64 {
    assert!(eps >= 0.0, "epsilon must be non-negative");
    (2.0 * alpha * eps * eps).min(eps)
}

/// Converts a per-order moments bound `MA(α)` into the RDP order/epsilon
/// pair given by paper Theorem 3: the mechanism satisfies
/// `(α + 1, MA(α)/α)`-RDP.
///
/// Given a target RDP order `alpha` (so the moment order is `alpha - 1`),
/// returns `MA(alpha - 1) / (alpha - 1)`.
pub fn moments_to_rdp(ma_at_alpha_minus_one: f64, alpha: f64) -> f64 {
    assert!(alpha > 1.0, "RDP order must exceed 1");
    ma_at_alpha_minus_one / (alpha - 1.0)
}

/// Converts a total moments bound into (ε, δ)-DP via the moments-accountant
/// tail bound: `δ = exp(MA(λ) − λ ε)`, i.e. `ε = (MA(λ) + log(1/δ)) / λ`.
pub fn moments_to_eps(ma_total: f64, lambda: f64, delta: f64) -> f64 {
    assert!(lambda > 0.0, "lambda must be positive");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    (ma_total + (1.0 / delta).ln()) / lambda
}

/// Natural log of the double factorial `n!! = n (n−2)(n−4)…`.
fn ln_double_factorial(n: u64) -> f64 {
    let mut acc = 0.0;
    let mut k = n;
    while k > 1 {
        acc += (k as f64).ln();
        k -= 2;
    }
    acc
}

/// Natural log of the binomial coefficient `C(n, k)`.
fn ln_binomial(n: u64, k: u64) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Natural log of `n!` computed by direct summation (n is small here).
fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Numerically stable `log(exp(a) + exp(b))`.
fn log_add_exp(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if !hi.is_finite() {
        return hi;
    }
    hi + (lo - hi).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_em_bound_matches_formula() {
        // K = 3 components, sigma_e = 2, alpha = 4:
        // (2*3+1)*(16+4)/(2*4) = 7*20/8 = 17.5
        assert!((ma_dp_em(4.0, 2.0, 3) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn dp_em_bound_scales_with_components_and_noise() {
        let base = ma_dp_em(4.0, 2.0, 3);
        assert!(ma_dp_em(4.0, 2.0, 6) > base);
        assert!(ma_dp_em(4.0, 4.0, 3) < base);
        assert!(ma_dp_em(8.0, 2.0, 3) > base);
    }

    #[test]
    #[should_panic(expected = "sigma_e must be positive")]
    fn dp_em_rejects_bad_sigma() {
        ma_dp_em(2.0, 0.0, 3);
    }

    /// Eq. (4) evaluated for one order on its own, every term
    /// re-evaluated inside the order's loop: the reference the term table
    /// must match bit for bit.
    fn ma_dp_sgd_per_order(lambda: u32, q: f64, sigma: f64) -> f64 {
        let lam = f64::from(lambda);
        if lambda == 0 {
            return 0.0;
        }
        let one_minus_q = 1.0 - q;
        let mut total = q * q * lam * (lam - 1.0) / (one_minus_q * sigma * sigma);
        for t in 3..=(lambda as u64 + 1) {
            let tf = t as f64;
            let ln_q = q.ln();
            let ln_2q = (2.0 * q).ln();
            let ln_1mq = one_minus_q.ln();
            let ln_sigma = sigma.ln();
            let ln_double_fact = ln_double_factorial(t - 1);
            let term1 =
                tf * ln_2q + ln_double_fact - (2.0_f64).ln() - (tf - 1.0) * ln_1mq - tf * ln_sigma;
            let term2 = tf * ln_q - tf * ln_1mq - 2.0 * tf * ln_sigma;
            let ln_inner = log_add_exp(tf * ln_sigma + ln_double_fact, tf * tf.ln());
            let term3 = tf * ln_2q + (tf * tf - tf) / (2.0 * sigma * sigma) + ln_inner
                - (2.0_f64).ln()
                - (tf - 1.0) * ln_1mq
                - 2.0 * tf * ln_sigma;
            total += term1.exp() + term2.exp() + term3.exp();
            if !total.is_finite() {
                return f64::INFINITY;
            }
        }
        total
    }

    #[test]
    fn term_table_matches_the_per_order_loop_bit_for_bit() {
        // 36,864 points: q 0.001–0.99 and σ 0.5–10 (edges included) at
        // every order 0–511, covering finite sums, sums cut short by a
        // non-finite term, and tables that never overflow.
        let qs = [0.001, 0.0038, 0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 0.99];
        let sigmas = [0.5, 0.8, 1.0, 1.42, 2.0, 3.0, 5.0, 10.0];
        let mut infinite = 0;
        for &q in &qs {
            for &sigma in &sigmas {
                let terms = Eq4Terms::new(q, sigma, 511);
                for lambda in 0..=511 {
                    let want = ma_dp_sgd_per_order(lambda, q, sigma);
                    let got = terms.ma(lambda);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "q {q} sigma {sigma} lambda {lambda}: {got} vs {want}"
                    );
                    if lambda <= 64 || lambda % 37 == 0 {
                        assert_eq!(ma_dp_sgd(lambda, q, sigma).to_bits(), want.to_bits());
                    }
                    infinite += usize::from(want.is_infinite());
                }
            }
        }
        assert!(infinite > 0, "the grid must reach saturated orders");
    }

    #[test]
    #[should_panic(expected = "past the table")]
    fn term_table_rejects_orders_it_was_not_built_for() {
        Eq4Terms::new(0.01, 4.0, 8).ma(9);
    }

    #[test]
    fn dp_sgd_leading_term_dominates_for_small_q() {
        // For very small q and moderate sigma the higher-order terms are
        // negligible, so the bound is close to q²λ(λ−1)/((1−q)σ²).
        let q = 1e-4;
        let sigma = 4.0;
        let lambda = 8;
        let got = ma_dp_sgd(lambda, q, sigma);
        let leading = q * q * 8.0 * 7.0 / ((1.0 - q) * sigma * sigma);
        assert!(got >= leading);
        assert!(got < leading * 1.5, "got {got}, leading {leading}");
    }

    #[test]
    fn dp_sgd_monotone_in_q_and_sigma() {
        let a = ma_dp_sgd(8, 0.01, 4.0);
        let b = ma_dp_sgd(8, 0.02, 4.0);
        let c = ma_dp_sgd(8, 0.01, 8.0);
        assert!(b > a, "larger sampling rate must cost more");
        assert!(c < a, "larger noise must cost less");
    }

    #[test]
    fn dp_sgd_zero_order_is_zero() {
        assert_eq!(ma_dp_sgd(0, 0.01, 1.0), 0.0);
    }

    #[test]
    fn dp_sgd_saturates_instead_of_nan() {
        // Absurd order with tiny sigma: should be +inf, never NaN.
        let v = ma_dp_sgd(64, 0.5, 0.3);
        assert!(v.is_infinite() || v > 1e10);
        assert!(!v.is_nan());
    }

    #[test]
    #[should_panic(expected = "sampling probability")]
    fn dp_sgd_rejects_bad_q() {
        ma_dp_sgd(4, 1.5, 1.0);
    }

    #[test]
    fn sampled_gaussian_rdp_reduces_to_gaussian_at_q1() {
        // With q = 1 the mechanism is the plain Gaussian mechanism whose RDP
        // is α/(2σ²); the sampled bound at q=1 equals exp(α(α−1)/(2σ²)) terms
        // which reduces to (α−1)·... — check it is close to α/(2σ²)·... Here
        // we check against the known closed form: ε(α) = α/(2σ²) for q=1 is a
        // *lower* bound of the log-sum formula; the formula equals
        // 1/(α−1)·log exp(α(α−1)/(2σ²)) = α/(2σ²).
        let sigma = 2.0;
        let alpha = 8;
        let got = rdp_sampled_gaussian(alpha, 1.0, sigma);
        let expected = alpha as f64 / (2.0 * sigma * sigma);
        assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
    }

    #[test]
    fn sampled_gaussian_rdp_much_smaller_for_small_q() {
        let full = rdp_sampled_gaussian(8, 1.0, 2.0);
        let sub = rdp_sampled_gaussian(8, 0.01, 2.0);
        assert!(sub < full / 10.0);
    }

    #[test]
    fn sampled_gaussian_tighter_than_paper_eq4() {
        // The Mironov-style bound should not exceed the Abadi expansion used
        // by the paper (both are upper bounds on the same quantity; the
        // integer-order sampled-Gaussian formula is the tighter of the two in
        // this regime).
        let q = 0.01;
        let sigma = 2.0;
        let alpha = 16u32;
        let eq4_rdp = moments_to_rdp(ma_dp_sgd(alpha - 1, q, sigma), alpha as f64);
        let sg_rdp = rdp_sampled_gaussian(alpha, q, sigma);
        assert!(
            sg_rdp <= eq4_rdp * 1.0001,
            "sampled-Gaussian {sg_rdp} vs Eq.4 {eq4_rdp}"
        );
    }

    #[test]
    fn pure_dp_rdp_is_capped() {
        // Small alpha: 2αε² may be below ε; large alpha: capped at ε.
        assert!((rdp_pure_dp(1.5, 0.1) - 2.0 * 1.5 * 0.01).abs() < 1e-12);
        assert_eq!(rdp_pure_dp(1e6, 0.1), 0.1);
    }

    #[test]
    fn gaussian_rdp_formula() {
        assert!((rdp_gaussian(4.0, 1.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn moments_conversions() {
        // Theorem 3 bridge.
        assert!((moments_to_rdp(3.0, 4.0) - 1.0).abs() < 1e-12);
        // MA tail bound: eps = (MA + ln(1/delta))/lambda.
        let eps = moments_to_eps(2.0, 10.0, 1e-5);
        assert!((eps - (2.0 + (1e5_f64).ln()) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn helper_functions() {
        // 5!! = 15, 6!! = 48.
        assert!((ln_double_factorial(5) - 15.0_f64.ln()).abs() < 1e-12);
        assert!((ln_double_factorial(6) - 48.0_f64.ln()).abs() < 1e-12);
        assert_eq!(ln_double_factorial(0), 0.0);
        assert_eq!(ln_double_factorial(1), 0.0);
        // C(5,2) = 10.
        assert!((ln_binomial(5, 2) - 10.0_f64.ln()).abs() < 1e-12);
        // log_sum_exp of identical values.
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0_f64.ln()).abs() < 1e-12);
    }
}
