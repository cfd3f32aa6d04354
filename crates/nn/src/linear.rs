//! Fully-connected (affine) layer.

use p3gm_linalg::{vector, Matrix};
use p3gm_privacy::sampling;
use rand::Rng;

/// A fully-connected layer computing `z = W x + b`.
///
/// Weights are stored row-major as a flat vector of length
/// `out_dim * in_dim`; row `i` of `W` produces output `z[i]`.
#[derive(Debug, Clone)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    /// Row-major weights, `out_dim x in_dim`.
    pub weights: Vec<f64>,
    /// Biases, length `out_dim`.
    pub bias: Vec<f64>,
}

impl Linear {
    /// Creates a layer with He-style Gaussian initialization
    /// (`std = sqrt(2 / in_dim)`), appropriate for ReLU networks.
    pub fn new_he<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        let std = (2.0 / in_dim.max(1) as f64).sqrt();
        Self::new_with_std(rng, in_dim, out_dim, std)
    }

    /// Creates a layer with Xavier/Glorot-style initialization
    /// (`std = sqrt(1 / in_dim)`), appropriate for tanh/sigmoid networks and
    /// linear output heads.
    pub fn new_xavier<R: Rng + ?Sized>(rng: &mut R, in_dim: usize, out_dim: usize) -> Self {
        let std = (1.0 / in_dim.max(1) as f64).sqrt();
        Self::new_with_std(rng, in_dim, out_dim, std)
    }

    /// Creates a layer with Gaussian-initialized weights of the given
    /// standard deviation and zero biases.
    pub fn new_with_std<R: Rng + ?Sized>(
        rng: &mut R,
        in_dim: usize,
        out_dim: usize,
        std: f64,
    ) -> Self {
        Linear {
            in_dim,
            out_dim,
            weights: sampling::normal_vec(rng, in_dim * out_dim, std),
            bias: vec![0.0; out_dim],
        }
    }

    /// Creates a layer with all-zero weights and biases (used in tests).
    pub fn zeros(in_dim: usize, out_dim: usize) -> Self {
        Linear {
            in_dim,
            out_dim,
            weights: vec![0.0; in_dim * out_dim],
            bias: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total number of parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass: `z = W x + b`.
    ///
    /// Uses the lane-folded [`vector::dot_lanes`] kernel — the same dot
    /// product [`Linear::forward_batch`] computes through
    /// [`Matrix::matmul_transposed_flat`] — so a single-example forward is
    /// bit-identical to the corresponding row of a batched forward.
    ///
    /// # Panics
    /// Debug-asserts that `x.len() == in_dim`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.in_dim, "Linear::forward input size");
        let mut z = self.bias.clone();
        for (i, zi) in z.iter_mut().enumerate() {
            let row = &self.weights[i * self.in_dim..(i + 1) * self.in_dim];
            *zi += vector::dot_lanes(row, x);
        }
        z
    }

    /// Batched forward pass: `Z = X Wᵀ + 1 bᵀ` for a `batch x in_dim` input,
    /// computed by [`Matrix::matmul_transposed_flat`] directly against the
    /// layer's row-major weights (no transpose is materialized). That
    /// kernel is not register-tiled: it computes each output as its own
    /// lane-folded dot product of an input row with a weight row, with row
    /// chunks spread over the thread pool.
    ///
    /// Row `i` of the result is bit-identical to `forward(x.row(i))`: both
    /// reduce each dot product with the same lane fold, and the bias add is
    /// a single IEEE addition on either side.
    ///
    /// # Panics
    /// Debug-asserts that `x.cols() == in_dim`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        debug_assert_eq!(x.cols(), self.in_dim, "Linear::forward_batch input size");
        let mut z = x
            .matmul_transposed_flat(&self.weights, self.out_dim)
            .expect("weights buffer matches layer dimensions");
        for i in 0..z.rows() {
            for (o, &b) in z.row_mut(i).iter_mut().zip(self.bias.iter()) {
                *o += b;
            }
        }
        z
    }

    /// Backward pass for one example.
    ///
    /// Given the input `x` that produced the forward pass and the gradient
    /// of the loss with respect to this layer's **pre-activation output**
    /// `grad_z`, accumulates
    ///
    /// * `grad_w[i*in+j] += grad_z[i] * x[j]`
    /// * `grad_b[i]      += grad_z[i]`
    ///
    /// into the provided buffers and returns the gradient with respect to
    /// the input `x` (`Wᵀ grad_z`), which the previous layer consumes.
    pub fn backward(
        &self,
        x: &[f64],
        grad_z: &[f64],
        grad_w: &mut [f64],
        grad_b: &mut [f64],
    ) -> Vec<f64> {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(grad_z.len(), self.out_dim);
        debug_assert_eq!(grad_w.len(), self.weights.len());
        debug_assert_eq!(grad_b.len(), self.bias.len());

        let mut grad_x = vec![0.0; self.in_dim];
        for i in 0..self.out_dim {
            let g = grad_z[i];
            grad_b[i] += g;
            if g == 0.0 {
                continue;
            }
            let row = &self.weights[i * self.in_dim..(i + 1) * self.in_dim];
            let grad_w_row = &mut grad_w[i * self.in_dim..(i + 1) * self.in_dim];
            for j in 0..self.in_dim {
                grad_w_row[j] += g * x[j];
                grad_x[j] += g * row[j];
            }
        }
        grad_x
    }

    /// Batched input gradient `Δ W` for a `batch x out_dim` matrix of
    /// pre-activation gradients, one example per row.
    ///
    /// Row `i` is bit-identical to the input gradient [`Linear::backward`]
    /// returns for `delta.row(i)`: the same zero skip and the same
    /// accumulation order over outputs.
    pub(crate) fn backward_input_batch(&self, delta: &Matrix) -> Matrix {
        debug_assert_eq!(delta.cols(), self.out_dim);
        let mut out = Matrix::zeros(delta.rows(), self.in_dim);
        let mut terms = Vec::with_capacity(self.out_dim);
        for i in 0..delta.rows() {
            terms.clear();
            for (o, &g) in delta.row(i).iter().enumerate() {
                if g != 0.0 {
                    terms.push((g, &self.weights[o * self.in_dim..(o + 1) * self.in_dim]));
                }
            }
            accumulate(&terms, out.row_mut(i));
        }
        out
    }

    /// Copies the layer's parameters (weights then bias) into `out`,
    /// returning the number of values written.
    pub fn write_params(&self, out: &mut [f64]) -> usize {
        let n = self.num_params();
        out[..self.weights.len()].copy_from_slice(&self.weights);
        out[self.weights.len()..n].copy_from_slice(&self.bias);
        n
    }

    /// Reads the layer's parameters (weights then bias) from `input`,
    /// returning the number of values consumed.
    pub fn read_params(&mut self, input: &[f64]) -> usize {
        let n = self.num_params();
        let w_len = self.weights.len();
        self.weights.copy_from_slice(&input[..w_len]);
        self.bias.copy_from_slice(&input[w_len..n]);
        n
    }
}

/// `y += Σₜ sₜ xₜ` over `terms = [(sₜ, xₜ)]`, adding the terms to each
/// element in order — bit-identical to one [`vector::axpy`] per term — but
/// four terms per pass over `y`, so `y` is loaded and stored a quarter as
/// often.
pub(crate) fn accumulate(terms: &[(f64, &[f64])], y: &mut [f64]) {
    let mut quads = terms.chunks_exact(4);
    for quad in &mut quads {
        let [(s0, x0), (s1, x1), (s2, x2), (s3, x3)] = [quad[0], quad[1], quad[2], quad[3]];
        for ((((y, &a), &b), &c), &d) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
            let mut acc = *y;
            acc += s0 * a;
            acc += s1 * b;
            acc += s2 * c;
            acc += s3 * d;
            *y = acc;
        }
    }
    for &(s, x) in quads.remainder() {
        vector::axpy(s, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_known_values() {
        let mut layer = Linear::zeros(2, 2);
        layer.weights = vec![1.0, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
        layer.bias = vec![0.5, -0.5];
        let z = layer.forward(&[1.0, 1.0]);
        assert_eq!(z, vec![3.5, 6.5]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indexed loops mirror the flat gradient layout
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = Linear::new_he(&mut rng, 3, 2);
        let x = [0.3, -0.7, 1.2];
        // Loss = sum of outputs weighted by fixed coefficients.
        let coeff = [0.9, -1.4];
        let loss = |l: &Linear| -> f64 {
            let z = l.forward(&x);
            z.iter().zip(coeff.iter()).map(|(a, b)| a * b).sum()
        };

        let mut grad_w = vec![0.0; layer.weights.len()];
        let mut grad_b = vec![0.0; layer.bias.len()];
        let grad_x = layer.backward(&x, &coeff, &mut grad_w, &mut grad_b);

        let h = 1e-6;
        // Weights.
        for k in 0..layer.weights.len() {
            let mut plus = layer.clone();
            plus.weights[k] += h;
            let mut minus = layer.clone();
            minus.weights[k] -= h;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
            assert!((numeric - grad_w[k]).abs() < 1e-5, "w[{k}]");
        }
        // Biases.
        for k in 0..layer.bias.len() {
            let mut plus = layer.clone();
            plus.bias[k] += h;
            let mut minus = layer.clone();
            minus.bias[k] -= h;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * h);
            assert!((numeric - grad_b[k]).abs() < 1e-5, "b[{k}]");
        }
        // Inputs.
        for k in 0..x.len() {
            let mut xp = x;
            xp[k] += h;
            let mut xm = x;
            xm[k] -= h;
            let zp = layer.forward(&xp);
            let zm = layer.forward(&xm);
            let lp: f64 = zp.iter().zip(coeff.iter()).map(|(a, b)| a * b).sum();
            let lm: f64 = zm.iter().zip(coeff.iter()).map(|(a, b)| a * b).sum();
            let numeric = (lp - lm) / (2.0 * h);
            assert!((numeric - grad_x[k]).abs() < 1e-5, "x[{k}]");
        }
    }

    #[test]
    fn backward_accumulates() {
        let mut layer = Linear::zeros(1, 1);
        layer.weights = vec![2.0];
        let mut gw = vec![0.0];
        let mut gb = vec![0.0];
        layer.backward(&[3.0], &[1.0], &mut gw, &mut gb);
        layer.backward(&[3.0], &[1.0], &mut gw, &mut gb);
        assert_eq!(gw, vec![6.0]);
        assert_eq!(gb, vec![2.0]);
    }

    #[test]
    fn param_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new_xavier(&mut rng, 4, 3);
        let mut buf = vec![0.0; layer.num_params()];
        assert_eq!(layer.write_params(&mut buf), 15);
        let mut other = Linear::zeros(4, 3);
        assert_eq!(other.read_params(&buf), 15);
        assert_eq!(other.weights, layer.weights);
        assert_eq!(other.bias, layer.bias);
    }

    #[test]
    fn initializations_have_sane_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let he = Linear::new_he(&mut rng, 100, 50);
        let var: f64 = he.weights.iter().map(|w| w * w).sum::<f64>() / he.weights.len() as f64;
        assert!((var - 0.02).abs() < 0.005, "He variance {var}");
        assert!(he.bias.iter().all(|&b| b == 0.0));

        let xavier = Linear::new_xavier(&mut rng, 100, 50);
        let var: f64 =
            xavier.weights.iter().map(|w| w * w).sum::<f64>() / xavier.weights.len() as f64;
        assert!((var - 0.01).abs() < 0.003, "Xavier variance {var}");
    }

    #[test]
    fn dims_and_param_count() {
        let layer = Linear::zeros(7, 5);
        assert_eq!(layer.in_dim(), 7);
        assert_eq!(layer.out_dim(), 5);
        assert_eq!(layer.num_params(), 40);
    }
}
