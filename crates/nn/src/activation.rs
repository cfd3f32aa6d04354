//! Element-wise activation functions with derivatives, and the logistic
//! sigmoid the Bernoulli decoders and the classifiers apply to logits.

/// The activation functions used by the networks in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (no non-linearity). Used for output layers whose
    /// non-linearity lives inside the loss (logits).
    Identity,
    /// Rectified linear unit, `max(0, x)`.
    Relu,
}

impl Activation {
    /// Applies the activation to a single value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
        }
    }

    /// Derivative of the activation evaluated at the **pre-activation**
    /// value `x`.
    #[inline]
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Applies the activation element-wise to a slice, returning a new
    /// vector.
    pub fn apply_vec(self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.apply(x)).collect()
    }

    /// The stable one-byte code identifying this activation in persisted
    /// snapshots (part of the `p3gm-store` wire format — never renumber).
    /// Codes 2–4 are reserved: they named the retired sigmoid, tanh and
    /// softplus activations, and decoding rejects them.
    pub fn persist_code(self) -> u8 {
        match self {
            Activation::Identity => 0,
            Activation::Relu => 1,
        }
    }

    /// Inverse of [`Activation::persist_code`]; `None` for unknown and
    /// reserved codes.
    pub fn from_persist_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Activation::Identity),
            1 => Some(Activation::Relu),
            _ => None,
        }
    }

    /// Multiplies `grad` element-wise by the derivative evaluated at the
    /// pre-activation values `pre`, in place. This is the backward pass of
    /// an element-wise activation.
    pub fn backprop_inplace(self, pre: &[f64], grad: &mut [f64]) {
        debug_assert_eq!(pre.len(), grad.len());
        for (g, &z) in grad.iter_mut().zip(pre.iter()) {
            *g *= self.derivative(z);
        }
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 2] = [Activation::Identity, Activation::Relu];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Identity.apply(-2.5), -2.5);
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in ACTS {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{act:?} at {x}: numeric {numeric}, analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0) < 1e-12);
        assert!(!sigmoid(750.0).is_nan());
        assert!(!sigmoid(-750.0).is_nan());
    }

    #[test]
    fn apply_vec_and_backprop() {
        let pre = vec![-1.0, 0.5, 2.0];
        let out = Activation::Relu.apply_vec(&pre);
        assert_eq!(out, vec![0.0, 0.5, 2.0]);
        let mut grad = vec![1.0, 1.0, 1.0];
        Activation::Relu.backprop_inplace(&pre, &mut grad);
        assert_eq!(grad, vec![0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_derivative_at_zero_is_zero() {
        // Convention: subgradient 0 at the kink.
        assert_eq!(Activation::Relu.derivative(0.0), 0.0);
    }
}
