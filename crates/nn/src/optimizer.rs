//! The Adam optimizer over flat parameter vectors, the optimizer of every
//! network this workspace trains.

/// Exponential decay of the first-moment estimate (β₁).
const BETA1: f64 = 0.9;
/// Exponential decay of the second-moment estimate (β₂).
const BETA2: f64 = 0.999;
/// Denominator guard (ε).
const EPS: f64 = 1e-8;

/// Adam optimizer (Kingma & Ba) with the standard hyper-parameters
/// β₁ = 0.9, β₂ = 0.999, ε = 1e-8 — the optimizer the reference P3GM
/// implementation pairs with DP-SGD-style noisy gradients.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    t: u64,
    /// `beta1^t` / `beta2^t`, maintained by one multiply per step in a
    /// fixed order — the bias correction never goes through `powi`,
    /// whose expansion order is codegen's choice.
    beta1_pow: f64,
    beta2_pow: f64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Adam with learning rate `lr`.
    ///
    /// # Panics
    /// Panics if `lr` is not positive.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            t: 0,
            beta1_pow: 1.0,
            beta2_pow: 1.0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of updates applied so far.
    pub fn steps_taken(&self) -> u64 {
        self.t
    }

    /// Updates `params` in place using `grad` (same length).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn step(&mut self, params: &mut [f64], grad: &[f64]) {
        assert_eq!(
            params.len(),
            grad.len(),
            "parameter/gradient length mismatch"
        );
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
            self.beta1_pow = 1.0;
            self.beta2_pow = 1.0;
        }
        self.t += 1;
        self.beta1_pow *= BETA1;
        self.beta2_pow *= BETA2;
        let bias1 = 1.0 - self.beta1_pow;
        let bias2 = 1.0 - self.beta2_pow;
        for i in 0..params.len() {
            let g = grad[i];
            self.m[i] = BETA1 * self.m[i] + (1.0 - BETA1) * g;
            self.v[i] = BETA2 * self.v[i] + (1.0 - BETA2) * g * g;
            let m_hat = self.m[i] / bias1;
            let v_hat = self.v[i] / bias2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimizes f(x) = (x - 3)² from x = 0.
        let mut opt = Adam::new(0.1);
        let mut params = vec![0.0];
        for _ in 0..500 {
            let grad = vec![2.0 * (params[0] - 3.0)];
            opt.step(&mut params, &grad);
        }
        assert!((params[0] - 3.0).abs() < 1e-3, "x = {}", params[0]);
        assert_eq!(opt.steps_taken(), 500);
    }

    #[test]
    fn adam_handles_ill_scaled_gradients() {
        // Two coordinates with vastly different curvature; Adam's
        // per-coordinate scaling should still make progress on both.
        let mut opt = Adam::new(0.05);
        let mut params = vec![0.0, 0.0];
        for _ in 0..2000 {
            let grad = vec![2000.0 * (params[0] - 1.0), 0.02 * (params[1] - 1.0)];
            opt.step(&mut params, &grad);
        }
        assert!((params[0] - 1.0).abs() < 1e-2, "fast coord {}", params[0]);
        assert!((params[1] - 1.0).abs() < 0.2, "slow coord {}", params[1]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn step_rejects_mismatched_lengths() {
        let mut opt = Adam::new(0.1);
        let mut params = vec![0.0, 1.0];
        opt.step(&mut params, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_bad_learning_rate() {
        let _ = Adam::new(0.0);
    }
}
