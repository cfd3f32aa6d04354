//! Loss functions returning both the value and the gradient with respect to
//! the model output (logits where applicable).

use p3gm_linalg::vector;

/// Mean-squared error `1/n Σ (y - t)²` and its gradient with respect to `y`.
pub fn mse(prediction: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
    debug_assert_eq!(prediction.len(), target.len());
    let n = prediction.len().max(1) as f64;
    let mut grad = vec![0.0; prediction.len()];
    let mut total = 0.0;
    for ((g, &y), &t) in grad.iter_mut().zip(prediction.iter()).zip(target.iter()) {
        let d = y - t;
        total += d * d;
        *g = 2.0 * d / n;
    }
    (total / n, grad)
}

/// Sum-squared error `Σ (y - t)²` and its gradient (no 1/n factor) — the
/// Gaussian-decoder reconstruction term of the ELBO uses the summed form.
pub fn sse(prediction: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
    debug_assert_eq!(prediction.len(), target.len());
    let mut grad = vec![0.0; prediction.len()];
    let mut total = 0.0;
    for ((g, &y), &t) in grad.iter_mut().zip(prediction.iter()).zip(target.iter()) {
        let d = y - t;
        total += d * d;
        *g = 2.0 * d;
    }
    (total, grad)
}

/// Bernoulli negative log-likelihood with logits, summed over dimensions:
///
/// `Σ_i [ softplus(z_i) − t_i z_i ]` which equals
/// `−Σ_i [ t_i log σ(z_i) + (1−t_i) log(1−σ(z_i)) ]`
///
/// computed in a numerically stable way. The gradient with respect to the
/// logits is `σ(z) − t`. Targets may be soft (any value in [0, 1]) — this is
/// how the VAE decoder scores continuous data normalized to the unit
/// interval, exactly as the reference implementation does for MNIST pixels.
pub fn bce_with_logits(logits: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
    debug_assert_eq!(logits.len(), target.len());
    let mut grad = vec![0.0; logits.len()];
    let mut total = 0.0;
    for ((g, &z), &t) in grad.iter_mut().zip(logits.iter()).zip(target.iter()) {
        let (loss, grad) = logistic_loss(z, t);
        total += loss;
        *g = grad;
    }
    (total, grad)
}

/// Softmax cross-entropy with an integer class label, plus gradient with
/// respect to the logits (`softmax(z) − onehot(label)`).
pub fn softmax_cross_entropy(logits: &[f64], label: usize) -> (f64, Vec<f64>) {
    debug_assert!(label < logits.len());
    let probs = vector::softmax(logits);
    let loss = -(probs[label].max(1e-300)).ln();
    let mut grad = probs;
    grad[label] -= 1.0;
    (loss, grad)
}

/// Binary logistic loss for a single logit and a 0/1 (or soft) label, with
/// its gradient `σ(z) − t` with respect to the logit.
///
/// Stable form: `softplus(z) − t z = max(z, 0) − t z + ln(1 + e)` with
/// `e = exp(−|z|)`, and the sigmoid comes from the same `e` — `1/(1+e)` for
/// `z ≥ 0`, `e/(1+e)` otherwise — which is bit-identical to
/// [`crate::activation::sigmoid`] with one `exp` instead of two.
#[inline]
pub fn logistic_loss(logit: f64, label: f64) -> (f64, f64) {
    let e = (-logit.abs()).exp();
    let loss = logit.max(0.0) - label * logit + e.ln_1p();
    let sigmoid = if logit >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    };
    (loss, sigmoid - label)
}

/// KL divergence from a diagonal Gaussian `N(µ, diag(exp(logvar)))` to the
/// standard normal `N(0, I)` (the VAE regularizer), together with the
/// gradients with respect to `µ` and `logvar`:
///
/// `KL = ½ Σ_i [ µ_i² + exp(logvar_i) − logvar_i − 1 ]`
/// `∂KL/∂µ_i = µ_i`,  `∂KL/∂logvar_i = ½ (exp(logvar_i) − 1)`.
pub fn kl_diag_gaussian_standard(mu: &[f64], logvar: &[f64]) -> (f64, Vec<f64>, Vec<f64>) {
    debug_assert_eq!(mu.len(), logvar.len());
    let mut value = 0.0;
    let mut grad_mu = vec![0.0; mu.len()];
    let mut grad_logvar = vec![0.0; logvar.len()];
    for i in 0..mu.len() {
        let v = logvar[i].exp();
        value += 0.5 * (mu[i] * mu[i] + v - logvar[i] - 1.0);
        grad_mu[i] = mu[i];
        grad_logvar[i] = 0.5 * (v - 1.0);
    }
    (value, grad_mu, grad_logvar)
}

/// KL divergence between two diagonal Gaussians
/// `N(µ₀, diag(exp(logvar₀)))` and `N(µ₁, diag(σ₁²))`, with gradients with
/// respect to `µ₀` and `logvar₀`. This is the per-component term of the
/// Hershey–Olsen MoG approximation used by P3GM's Decoding Phase.
///
/// `KL = ½ Σ_i [ log σ₁ᵢ² − logvar₀ᵢ + (exp(logvar₀ᵢ) + (µ₀ᵢ−µ₁ᵢ)²)/σ₁ᵢ² − 1 ]`
pub fn kl_diag_gaussians(
    mu0: &[f64],
    logvar0: &[f64],
    mu1: &[f64],
    var1: &[f64],
) -> (f64, Vec<f64>, Vec<f64>) {
    debug_assert_eq!(mu0.len(), logvar0.len());
    debug_assert_eq!(mu0.len(), mu1.len());
    debug_assert_eq!(mu0.len(), var1.len());
    let mut value = 0.0;
    let mut grad_mu = vec![0.0; mu0.len()];
    let mut grad_logvar = vec![0.0; logvar0.len()];
    for i in 0..mu0.len() {
        let v0 = logvar0[i].exp();
        let v1 = var1[i].max(1e-12);
        let diff = mu0[i] - mu1[i];
        value += 0.5 * (v1.ln() - logvar0[i] + (v0 + diff * diff) / v1 - 1.0);
        grad_mu[i] = diff / v1;
        grad_logvar[i] = 0.5 * (v0 / v1 - 1.0);
    }
    (value, grad_mu, grad_logvar)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let h = 1e-6;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn mse_value_and_gradient() {
        let (v, g) = mse(&[1.0, 3.0], &[0.0, 1.0]);
        assert!((v - (1.0 + 4.0) / 2.0).abs() < 1e-12);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[1] - 2.0).abs() < 1e-12);
        // Perfect prediction.
        let (v, g) = mse(&[2.0], &[2.0]);
        assert_eq!(v, 0.0);
        assert_eq!(g, vec![0.0]);
    }

    #[test]
    fn sse_value_and_gradient() {
        let (v, g) = sse(&[1.0, 3.0], &[0.0, 1.0]);
        assert!((v - 5.0).abs() < 1e-12);
        assert_eq!(g, vec![2.0, 4.0]);
    }

    #[test]
    fn bce_matches_reference_values() {
        // At logit 0 with target 0.5 the loss is ln 2 per dim.
        let (v, g) = bce_with_logits(&[0.0], &[0.5]);
        assert!((v - 2.0_f64.ln()).abs() < 1e-12);
        assert!(g[0].abs() < 1e-12);
        // Confident and correct → small loss.
        let (v, _) = bce_with_logits(&[10.0], &[1.0]);
        assert!(v < 1e-4);
        // Confident and wrong → large loss, gradient ≈ +1.
        let (v, g) = bce_with_logits(&[10.0], &[0.0]);
        assert!(v > 9.0);
        assert!((g[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        for &t in &[0.0, 0.3, 1.0] {
            for &z in &[-2.0, 0.1, 3.0] {
                let (_, g) = bce_with_logits(&[z], &[t]);
                let numeric = finite_diff(|zz| bce_with_logits(&[zz], &[t]).0, z);
                assert!((g[0] - numeric).abs() < 1e-5, "t={t} z={z}");
            }
        }
    }

    #[test]
    fn bce_is_stable_for_extreme_logits() {
        let (v, g) = bce_with_logits(&[1000.0, -1000.0], &[1.0, 0.0]);
        assert!(v.is_finite());
        assert!(g.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_ce_value_and_gradient() {
        let (v, g) = softmax_cross_entropy(&[0.0, 0.0, 0.0], 1);
        assert!((v - 3.0_f64.ln()).abs() < 1e-12);
        assert!((g[1] - (1.0 / 3.0 - 1.0)).abs() < 1e-12);
        assert!((g[0] - 1.0 / 3.0).abs() < 1e-12);
        // Gradient sums to zero.
        assert!(g.iter().sum::<f64>().abs() < 1e-12);
        // Finite-difference check on one logit.
        let logits = [0.5, -0.3, 1.2];
        let (_, g) = softmax_cross_entropy(&logits, 2);
        let numeric = finite_diff(
            |z| {
                let mut l = logits;
                l[0] = z;
                softmax_cross_entropy(&l, 2).0
            },
            logits[0],
        );
        assert!((g[0] - numeric).abs() < 1e-5);
    }

    #[test]
    fn logistic_loss_values() {
        let (v, g) = logistic_loss(0.0, 1.0);
        assert!((v - 2.0_f64.ln()).abs() < 1e-12);
        assert!((g + 0.5).abs() < 1e-12);
        let numeric = finite_diff(|z| logistic_loss(z, 0.0).0, 0.7);
        let (_, g) = logistic_loss(0.7, 0.0);
        assert!((g - numeric).abs() < 1e-5);
    }

    #[test]
    fn kl_standard_zero_at_standard_normal() {
        let (v, gm, gl) = kl_diag_gaussian_standard(&[0.0, 0.0], &[0.0, 0.0]);
        assert!(v.abs() < 1e-12);
        assert!(gm.iter().all(|x| x.abs() < 1e-12));
        assert!(gl.iter().all(|x| x.abs() < 1e-12));
    }

    #[test]
    fn kl_standard_gradients_match_finite_differences() {
        let mu = [0.4, -0.7];
        let logvar = [0.3, -0.5];
        let (_, gm, gl) = kl_diag_gaussian_standard(&mu, &logvar);
        for i in 0..2 {
            let numeric_mu = finite_diff(
                |x| {
                    let mut m = mu;
                    m[i] = x;
                    kl_diag_gaussian_standard(&m, &logvar).0
                },
                mu[i],
            );
            assert!((gm[i] - numeric_mu).abs() < 1e-5);
            let numeric_lv = finite_diff(
                |x| {
                    let mut l = logvar;
                    l[i] = x;
                    kl_diag_gaussian_standard(&mu, &l).0
                },
                logvar[i],
            );
            assert!((gl[i] - numeric_lv).abs() < 1e-5);
        }
    }

    #[test]
    fn kl_between_gaussians_zero_when_equal() {
        let mu = [0.3, -0.4];
        let logvar = [0.2_f64, -0.1];
        let var: Vec<f64> = logvar.iter().map(|l| l.exp()).collect();
        let (v, _, _) = kl_diag_gaussians(&mu, &logvar, &mu, &var);
        assert!(v.abs() < 1e-12);
    }

    #[test]
    fn kl_between_gaussians_reduces_to_standard_case() {
        let mu = [0.4, -0.7];
        let logvar = [0.3, -0.5];
        let (a, gm_a, gl_a) = kl_diag_gaussian_standard(&mu, &logvar);
        let (b, gm_b, gl_b) = kl_diag_gaussians(&mu, &logvar, &[0.0, 0.0], &[1.0, 1.0]);
        assert!((a - b).abs() < 1e-12);
        for i in 0..2 {
            assert!((gm_a[i] - gm_b[i]).abs() < 1e-12);
            assert!((gl_a[i] - gl_b[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn kl_between_gaussians_gradients_match_finite_differences() {
        let mu0 = [0.4, -0.7];
        let logvar0 = [0.3, -0.5];
        let mu1 = [1.0, 0.5];
        let var1 = [2.0, 0.7];
        let (_, gm, gl) = kl_diag_gaussians(&mu0, &logvar0, &mu1, &var1);
        for i in 0..2 {
            let numeric_mu = finite_diff(
                |x| {
                    let mut m = mu0;
                    m[i] = x;
                    kl_diag_gaussians(&m, &logvar0, &mu1, &var1).0
                },
                mu0[i],
            );
            assert!((gm[i] - numeric_mu).abs() < 1e-5);
            let numeric_lv = finite_diff(
                |x| {
                    let mut l = logvar0;
                    l[i] = x;
                    kl_diag_gaussians(&mu0, &l, &mu1, &var1).0
                },
                logvar0[i],
            );
            assert!((gl[i] - numeric_lv).abs() < 1e-5);
        }
    }

    #[test]
    fn kl_is_nonnegative() {
        let (v, _, _) = kl_diag_gaussians(&[1.0], &[0.5], &[-1.0], &[0.3]);
        assert!(v > 0.0);
        let (v, _, _) = kl_diag_gaussian_standard(&[2.0], &[1.0]);
        assert!(v > 0.0);
    }
}
