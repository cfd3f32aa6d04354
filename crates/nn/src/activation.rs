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

/// Numerically stable logistic sigmoid: `1 / (1 + e^−x)` for `x ≥ 0` and
/// `e^x / (1 + e^x)` below, returned without calling `exp` wherever
/// rounding already fixes the result, with the same bits on every input:
///
/// * `x > 37` gives `1.0`: `e^−37 ≈ 8.5e−17` is below `2^−53`, half an
///   ulp of 1, so `1 + e^−x` rounds to 1.
/// * `x < −37` gives `e^x`: `1 + e^x` rounds to 1 the same way, so the
///   quotient is `e^x` itself.
/// * `x < −750` gives `0.0`: `e^−750 ≈ 2e−326` is under half the least
///   subnormal (`2^−1075 ≈ 2.5e−324`), so `e^x` rounds to zero.
///
/// A trained decoder's logits mostly lie far outside ±37, where the
/// skipped `exp` would take libm's underflow and subnormal paths. NaN
/// fails every comparison and takes the last branch, as it took the
/// second branch of the formula.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x > 37.0 {
        1.0
    } else if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else if x < -750.0 {
        0.0
    } else if x < -37.0 {
        x.exp()
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-branch formula [`sigmoid`] must match bit for bit.
    fn two_branch_sigmoid(x: f64) -> f64 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    fn assert_matches_two_branch(x: f64) {
        assert_eq!(
            sigmoid(x).to_bits(),
            two_branch_sigmoid(x).to_bits(),
            "sigmoid({x:e}) (bits {:#018x})",
            x.to_bits()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200_000))]
        #[test]
        fn sigmoid_matches_the_two_branch_formula_on_any_bits(bits in any::<u64>()) {
            assert_matches_two_branch(f64::from_bits(bits));
        }
    }

    #[test]
    fn sigmoid_matches_the_two_branch_formula_around_every_threshold() {
        // ±2^20 ulps around the saturation thresholds (±37, −750) and
        // where exp(x) turns subnormal (−708.4) and rounds to zero
        // (−745.13).
        for centre in [37.0, -37.0, -708.4, -745.13, -750.0] {
            let bits = f64::to_bits(centre);
            for offset in -(1i64 << 20)..=(1 << 20) {
                assert_matches_two_branch(f64::from_bits(bits.wrapping_add_signed(offset)));
            }
        }
        // Every multiple of 1/16 in [−1100, 1100], so a threshold moved
        // anywhere in that range fails too.
        for k in -17_600..=17_600 {
            assert_matches_two_branch(k as f64 / 16.0);
        }
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
        ];
        for x in specials {
            assert_matches_two_branch(x);
        }
    }

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
