//! Multi-layer perceptron with per-example backpropagation and flat
//! parameter/gradient vectors.
//!
//! DP-SGD needs, for **each individual example**, the norm of its gradient
//! with respect to **all** parameters of a model (to clip it) and the sum
//! of the clipped gradients. The [`Mlp`] exposes its parameters as one flat
//! `Vec<f64>`, and its batch APIs operate on contiguous `Matrix` batches,
//! one example per row, with deterministic (thread-count-independent)
//! results.
//!
//! The training path never forms a per-example gradient:
//! [`Mlp::forward_batch_cached`] and [`Mlp::backward_batch`] keep, for each
//! layer, its input rows `A` and its pre-activation gradient rows `Δ`
//! ([`BatchGradients`]). Example `i`'s gradient for a layer is the outer
//! product `δᵢ aᵢᵀ` (bias: `δᵢ`), so its squared norm is
//! `‖δᵢ‖² (‖aᵢ‖² + 1)` and a weighted sum over the batch is one product
//! `Δᵀ diag(w) A` per layer. The identity is exact for an MLP because every
//! weight is used once per example; it would not hold for a weight-shared
//! layer such as a convolution.
//!
//! [`Mlp::per_example_gradients`] still materializes the `B x P` batch, one
//! row per example. It is the reference the factored path is tested
//! against, and the input of `p3gm-privacy::clip_and_sum_gradients`.

use crate::activation::Activation;
use crate::linear::{accumulate, Linear};
use p3gm_linalg::{vector, Matrix};
use rand::Rng;

/// A fully-connected feed-forward network.
///
/// Hidden layers use `hidden_activation`; the final layer uses
/// `output_activation` (typically [`Activation::Identity`], with any output
/// non-linearity folded into the loss as logits).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
    output_activation: Activation,
}

/// Intermediate values cached during a forward pass, needed by backward.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// Input to each layer (`inputs[0]` is the network input).
    inputs: Vec<Vec<f64>>,
    /// Pre-activation output of each layer.
    pre_activations: Vec<Vec<f64>>,
    /// Post-activation output of the final layer.
    output: Vec<f64>,
}

impl MlpCache {
    /// The network output recorded in this cache.
    pub fn output(&self) -> &[f64] {
        &self.output
    }
}

/// Intermediate values of a batched forward pass, one example per row,
/// needed by [`Mlp::backward_batch`].
#[derive(Debug, Clone)]
pub struct BatchCache {
    /// Input rows of each layer (`inputs[0]` is the network input).
    inputs: Vec<Matrix>,
    /// Pre-activation rows of each layer.
    pre_activations: Vec<Matrix>,
    /// Post-activation output rows of the final layer.
    output: Matrix,
}

impl BatchCache {
    /// The network output, one row per example.
    pub fn output(&self) -> &Matrix {
        &self.output
    }
}

/// The per-example parameter gradients of a batch in factored form: each
/// layer's input rows `A` and pre-activation gradient rows `Δ` (see the
/// module docs for why this is exact for an MLP).
#[derive(Debug, Clone)]
pub struct BatchGradients {
    inputs: Vec<Matrix>,
    deltas: Vec<Matrix>,
}

impl BatchGradients {
    /// Number of examples.
    pub(crate) fn rows(&self) -> usize {
        self.deltas.first().map_or(0, Matrix::rows)
    }

    /// Number of parameters each example's gradient covers.
    pub fn num_params(&self) -> usize {
        self.inputs
            .iter()
            .zip(&self.deltas)
            .map(|(a, delta)| delta.cols() * (a.cols() + 1))
            .sum()
    }

    /// Adds example `i`'s squared gradient norm to `out[i]`: the sum over
    /// layers of `‖δᵢ‖² (‖aᵢ‖² + 1)`, which equals the squared norm of the
    /// row [`Mlp::per_example_gradients`] would produce up to rounding.
    ///
    /// # Panics
    /// Panics if `out` does not have one entry per example.
    pub fn add_squared_norms(&self, out: &mut [f64]) {
        for (a, delta) in self.inputs.iter().zip(&self.deltas) {
            assert_eq!(out.len(), delta.rows(), "one norm per example");
            for (i, norm) in out.iter_mut().enumerate() {
                *norm += vector::norm2_squared_lanes(delta.row(i))
                    * (vector::norm2_squared_lanes(a.row(i)) + 1.0);
            }
        }
    }

    /// Adds `Σᵢ wᵢ gᵢ` to `out`, where `gᵢ` is example `i`'s flat gradient
    /// in the [`Mlp::params`] layout: per layer `Δᵀ diag(w) A` for the
    /// weights and `Δᵀ w` for the biases. Each entry accumulates its
    /// examples in row order, so with unit weights the sum is bit-identical
    /// to adding the rows of [`Mlp::per_example_gradients`] in order.
    ///
    /// # Panics
    /// Panics if `weights` does not have one entry per example or `out` is
    /// not [`BatchGradients::num_params`] long.
    pub fn add_weighted_sum(&self, weights: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.num_params(), "flat gradient length");
        let mut offset = 0;
        for (a, delta) in self.inputs.iter().zip(&self.deltas) {
            assert_eq!(weights.len(), delta.rows(), "one weight per example");
            let (in_dim, out_dim) = (a.cols(), delta.cols());
            let w_len = in_dim * out_dim;
            let (grad_w, grad_b) = out[offset..offset + w_len + out_dim].split_at_mut(w_len);
            let mut terms = Vec::with_capacity(weights.len());
            for (o, grad_b_o) in grad_b.iter_mut().enumerate() {
                terms.clear();
                for (i, &w) in weights.iter().enumerate() {
                    let scaled = w * delta.get(i, o);
                    if scaled != 0.0 {
                        terms.push((scaled, a.row(i)));
                        *grad_b_o += scaled;
                    }
                }
                accumulate(&terms, &mut grad_w[o * in_dim..(o + 1) * in_dim]);
            }
            offset += w_len + out_dim;
        }
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[784, 1000, 10]`
    /// creates two `Linear` layers (`784→1000`, `1000→10`).
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        sizes: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least an input and an output size"
        );
        let layers = sizes
            .windows(2)
            .map(|w| match hidden_activation {
                Activation::Relu => Linear::new_he(rng, w[0], w[1]),
                Activation::Identity => Linear::new_xavier(rng, w[0], w[1]),
            })
            .collect();
        Mlp {
            layers,
            hidden_activation,
            output_activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().map(Linear::in_dim).unwrap_or(0)
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map(Linear::out_dim).unwrap_or(0)
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Returns all parameters as one flat vector (layer by layer, weights
    /// then biases).
    pub fn params(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.num_params()];
        let mut offset = 0;
        for layer in &self.layers {
            offset += layer.write_params(&mut out[offset..offset + layer.num_params()]);
        }
        debug_assert_eq!(offset, out.len());
        out
    }

    /// Overwrites all parameters from a flat vector produced by
    /// [`Mlp::params`].
    ///
    /// # Panics
    /// Panics if the length does not match [`Mlp::num_params`].
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "parameter length mismatch");
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_params(&params[offset..offset + layer.num_params()]);
        }
    }

    /// The activation applied after layer `layer`.
    fn activation(&self, layer: usize) -> Activation {
        if layer + 1 == self.layers.len() {
            self.output_activation
        } else {
            self.hidden_activation
        }
    }

    /// Plain forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            h = self.activation(i).apply_vec(&layer.forward(&h));
        }
        h
    }

    /// Forward pass that records the intermediate values needed by
    /// [`Mlp::backward`].
    pub fn forward_cached(&self, x: &[f64]) -> MlpCache {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let mut h = x.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            inputs.push(h.clone());
            let z = layer.forward(&h);
            h = self.activation(i).apply_vec(&z);
            pre_activations.push(z);
        }
        MlpCache {
            inputs,
            pre_activations,
            output: h,
        }
    }

    /// Backward pass for one example.
    ///
    /// `grad_output` is the gradient of the loss with respect to the
    /// network's (post-activation) output. The parameter gradient is
    /// **accumulated** into `grad_params` (flat, same layout as
    /// [`Mlp::params`]); the return value is the gradient with respect to
    /// the network input.
    pub fn backward(
        &self,
        cache: &MlpCache,
        grad_output: &[f64],
        grad_params: &mut [f64],
    ) -> Vec<f64> {
        assert_eq!(grad_params.len(), self.num_params());
        assert_eq!(grad_output.len(), self.out_dim());

        // Pre-compute flat offsets of each layer.
        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut acc = 0;
        for layer in &self.layers {
            offsets.push(acc);
            acc += layer.num_params();
        }

        let mut grad = grad_output.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            self.activation(i)
                .backprop_inplace(&cache.pre_activations[i], &mut grad);
            let start = offsets[i];
            let w_len = layer.in_dim() * layer.out_dim();
            let (gw, gb) = grad_params[start..start + layer.num_params()].split_at_mut(w_len);
            grad = layer.backward(&cache.inputs[i], &grad, gw, gb);
        }
        grad
    }

    /// Convenience: computes the per-example flat gradient for a loss whose
    /// gradient with respect to the output is supplied by `loss_grad`
    /// (a fresh zeroed buffer is allocated).
    pub fn example_gradient(&self, x: &[f64], grad_output: &[f64]) -> Vec<f64> {
        let cache = self.forward_cached(x);
        let mut grads = vec![0.0; self.num_params()];
        self.backward(&cache, grad_output, &mut grads);
        grads
    }

    /// Batched forward pass: one input per row of `x`, one output per row of
    /// the result.
    ///
    /// The batch flows through the network layer-wise: each layer is one
    /// `X Wᵀ` product ([`Linear::forward_batch`], one lane-folded dot
    /// product per output, not register-tiled) followed by an element-wise
    /// activation sweep — no per-row dispatch or allocation. Row `i` of the result is bit-identical to
    /// `forward(x.row(i))` (both paths reduce every dot product with the
    /// same lane fold), and the matrix kernel parallelizes over row chunks,
    /// so the result is also bit-identical for every thread count.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "forward_batch input width");
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = layer.forward_batch(&h);
            let act = self.activation(i);
            z.map_inplace(|v| act.apply(v));
            h = z;
        }
        h
    }

    /// [`Mlp::forward_batch`] that also keeps each layer's input and
    /// pre-activation rows for [`Mlp::backward_batch`]. Every cached row is
    /// bit-identical to the single-example [`Mlp::forward_cached`].
    pub fn forward_batch_cached(&self, x: &Matrix) -> BatchCache {
        assert_eq!(x.cols(), self.in_dim(), "forward_batch_cached input width");
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let z = layer.forward_batch(&h);
            inputs.push(std::mem::replace(&mut h, z.clone()));
            let act = self.activation(i);
            h.map_inplace(|v| act.apply(v));
            pre_activations.push(z);
        }
        BatchCache {
            inputs,
            pre_activations,
            output: h,
        }
    }

    /// Batched backward pass: given the loss gradient with respect to the
    /// network output (one row per example of `cache`), returns every
    /// example's parameter gradient in factored form and, when
    /// `input_gradient` is set, the gradient with respect to the network
    /// input. Without it the first layer's input gradient is never
    /// computed.
    ///
    /// Row `i` of every `Δ`, and of the input gradient, is bit-identical to
    /// what [`Mlp::backward`] computes for example `i`. The pass is serial:
    /// callers parallelize over chunks of examples.
    pub fn backward_batch(
        &self,
        cache: BatchCache,
        grad_outputs: &Matrix,
        input_gradient: bool,
    ) -> (BatchGradients, Option<Matrix>) {
        assert_eq!(
            grad_outputs.shape(),
            cache.output.shape(),
            "grad_outputs shape"
        );
        let BatchCache {
            inputs,
            pre_activations,
            ..
        } = cache;
        let mut deltas = Vec::with_capacity(self.layers.len());
        let mut upstream = Some(grad_outputs.clone());
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let mut delta = upstream
                .take()
                .expect("every layer above the first passes one on");
            self.activation(i)
                .backprop_inplace(pre_activations[i].as_slice(), delta.as_mut_slice());
            if i > 0 || input_gradient {
                upstream = Some(layer.backward_input_batch(&delta));
            }
            deltas.push(delta);
        }
        deltas.reverse();
        (BatchGradients { inputs, deltas }, upstream)
    }

    /// Per-example parameter gradients for a batch: row `i` of the returned
    /// `B x P` matrix is the flat gradient of example `i` given the loss
    /// gradient `grad_outputs.row(i)` with respect to the network output.
    ///
    /// This materializes what [`Mlp::backward_batch`] keeps factored; it is
    /// the reference for that path and the input of `p3gm-privacy`'s
    /// `clip_and_sum_gradients`.
    ///
    /// The forward passes run batched ([`Mlp::forward_batch_cached`]), then
    /// each example's backward pass runs independently on parallel row
    /// chunks over the cached rows. Cached rows are bit-identical to a
    /// single-example [`Mlp::forward_cached`], and the backward op sequence
    /// is unchanged, so each gradient row equals [`Mlp::example_gradient`]
    /// exactly — and the batch is bit-identical for every thread count.
    pub fn per_example_gradients(&self, x: &Matrix, grad_outputs: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "per_example_gradients input");
        assert_eq!(grad_outputs.cols(), self.out_dim());
        assert_eq!(x.rows(), grad_outputs.rows(), "batch size mismatch");
        let n_params = self.num_params();
        let cache = self.forward_batch_cached(x);

        let mut offsets = Vec::with_capacity(self.layers.len());
        let mut acc = 0;
        for layer in &self.layers {
            offsets.push(acc);
            acc += layer.num_params();
        }

        let mut grads = Matrix::zeros(x.rows(), n_params);
        let rows_per_chunk = p3gm_parallel::default_chunk_len(x.rows());
        p3gm_parallel::par_chunks_mut(
            grads.as_mut_slice(),
            rows_per_chunk * n_params.max(1),
            |chunk_index, grad_chunk| {
                let base = chunk_index * rows_per_chunk;
                for (local, grad_row) in grad_chunk.chunks_mut(n_params.max(1)).enumerate() {
                    let i = base + local;
                    let mut grad = grad_outputs.row(i).to_vec();
                    for (l, layer) in self.layers.iter().enumerate().rev() {
                        self.activation(l)
                            .backprop_inplace(cache.pre_activations[l].row(i), &mut grad);
                        let start = offsets[l];
                        let w_len = layer.in_dim() * layer.out_dim();
                        let (gw, gb) =
                            grad_row[start..start + layer.num_params()].split_at_mut(w_len);
                        grad = layer.backward(cache.inputs[l].row(i), &grad, gw, gb);
                    }
                }
            },
        );
        grads
    }

    /// Serializes the network into a framed `p3gm-store` buffer: the two
    /// activation codes, then per layer its dimensions, weights and biases
    /// as `f64` bit patterns (bit-exact round trip).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::MLP);
        enc.u8(self.hidden_activation.persist_code())
            .u8(self.output_activation.persist_code())
            .usize(self.layers.len());
        for layer in &self.layers {
            enc.usize(layer.in_dim())
                .usize(layer.out_dim())
                .f64_slice(&layer.weights)
                .f64_slice(&layer.bias);
        }
        enc.finish()
    }

    /// Deserializes a network from a buffer produced by [`Mlp::to_bytes`].
    ///
    /// Validates the layer chain (each layer's input width must match the
    /// previous layer's output width) and every buffer length; malformed
    /// input returns a typed [`p3gm_store::StoreError`], never panics.
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<Mlp> {
        use p3gm_store::StoreError;
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::MLP)?;
        let hidden_activation =
            Activation::from_persist_code(dec.u8()?).ok_or_else(|| StoreError::Invalid {
                msg: "unknown hidden-activation code".to_string(),
            })?;
        let output_activation =
            Activation::from_persist_code(dec.u8()?).ok_or_else(|| StoreError::Invalid {
                msg: "unknown output-activation code".to_string(),
            })?;
        let n_layers = dec.usize()?;
        if n_layers == 0 {
            return Err(StoreError::Invalid {
                msg: "an MLP needs at least one layer".to_string(),
            });
        }
        let mut layers = Vec::with_capacity(n_layers.min(1024));
        let mut prev_out: Option<usize> = None;
        for index in 0..n_layers {
            let in_dim = dec.usize()?;
            let out_dim = dec.usize()?;
            let weights = dec.f64_vec()?;
            let bias = dec.f64_vec()?;
            if in_dim.checked_mul(out_dim) != Some(weights.len()) || bias.len() != out_dim {
                return Err(StoreError::Invalid {
                    msg: format!("layer {index} buffers inconsistent with {in_dim}->{out_dim}"),
                });
            }
            if weights.iter().chain(bias.iter()).any(|v| !v.is_finite()) {
                return Err(StoreError::Invalid {
                    msg: format!("layer {index} contains non-finite parameters"),
                });
            }
            if let Some(prev) = prev_out {
                if prev != in_dim {
                    return Err(StoreError::Invalid {
                        msg: format!(
                            "layer {index} input width {in_dim} does not chain onto {prev}"
                        ),
                    });
                }
            }
            prev_out = Some(out_dim);
            let mut layer = Linear::zeros(in_dim, out_dim);
            layer.weights = weights;
            layer.bias = bias;
            layers.push(layer);
        }
        dec.finish()?;
        Ok(Mlp {
            layers,
            hidden_activation,
            output_activation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// Mean-squared error `1/n Σ (y - t)²` and its gradient with respect
    /// to `y`: the regression loss of the gradient checks below.
    fn mse(prediction: &[f64], target: &[f64]) -> (f64, Vec<f64>) {
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
    fn shapes_and_param_count() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[4, 8, 3], Activation::Relu, Activation::Identity);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.num_layers(), 2);
        assert_eq!(mlp.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(mlp.forward(&[0.1, 0.2, 0.3, 0.4]).len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least an input and an output")]
    fn rejects_single_size() {
        let mut r = rng();
        let _ = Mlp::new(&mut r, &[4], Activation::Relu, Activation::Identity);
    }

    #[test]
    fn params_roundtrip() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[3, 5, 2], Activation::Relu, Activation::Identity);
        let p = mlp.params();
        let mut other = Mlp::new(&mut r, &[3, 5, 2], Activation::Relu, Activation::Identity);
        other.set_params(&p);
        let x = [0.5, -0.5, 1.0];
        let a = mlp.forward(&x);
        let b = other.forward(&x);
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn forward_cached_output_matches_forward() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[3, 6, 2], Activation::Relu, Activation::Identity);
        let x = [0.2, -0.4, 0.9];
        let cache = mlp.forward_cached(&x);
        let direct = mlp.forward(&x);
        for (a, b) in cache.output().iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[3, 5, 2], Activation::Relu, Activation::Identity);
        let x = [0.3, -0.2, 0.8];
        let target = [0.7, -0.4];

        // Loss: MSE between output and target.
        let loss_of = |m: &Mlp| -> f64 {
            let y = m.forward(&x);
            mse(&y, &target).0
        };

        let cache = mlp.forward_cached(&x);
        let (_, grad_out) = mse(cache.output(), &target);
        let mut grads = vec![0.0; mlp.num_params()];
        mlp.backward(&cache, &grad_out, &mut grads);

        let params = mlp.params();
        let h = 1e-5;
        // Spot-check a spread of parameters (checking all ~30 is fine too).
        for k in (0..params.len()).step_by(3) {
            let mut plus = mlp.clone();
            let mut p = params.clone();
            p[k] += h;
            plus.set_params(&p);
            let mut minus = mlp.clone();
            let mut p = params.clone();
            p[k] -= h;
            minus.set_params(&p);
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * h);
            assert!(
                (numeric - grads[k]).abs() < 1e-4,
                "param {k}: numeric {numeric} vs analytic {}",
                grads[k]
            );
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_differences() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[3, 4, 1], Activation::Relu, Activation::Identity);
        let x = [0.3, 0.6, -0.1];
        let cache = mlp.forward_cached(&x);
        let grad_out = [1.0];
        let mut grads = vec![0.0; mlp.num_params()];
        let grad_x = mlp.backward(&cache, &grad_out, &mut grads);
        let h = 1e-6;
        for k in 0..x.len() {
            let mut xp = x;
            xp[k] += h;
            let mut xm = x;
            xm[k] -= h;
            let numeric = (mlp.forward(&xp)[0] - mlp.forward(&xm)[0]) / (2.0 * h);
            assert!((numeric - grad_x[k]).abs() < 1e-5, "x[{k}]");
        }
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let mut r = rng();
        let mut mlp = Mlp::new(&mut r, &[2, 8, 1], Activation::Relu, Activation::Identity);
        // Fit the function y = x0 + 2*x1 on a few points.
        let data = [
            ([0.0, 0.0], 0.0),
            ([1.0, 0.0], 1.0),
            ([0.0, 1.0], 2.0),
            ([1.0, 1.0], 3.0),
            ([0.5, 0.5], 1.5),
        ];
        let total_loss = |m: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| mse(&m.forward(x), &[*y]).0)
                .sum::<f64>()
        };
        let before = total_loss(&mlp);
        for _ in 0..300 {
            let mut grads = vec![0.0; mlp.num_params()];
            for (x, y) in &data {
                let cache = mlp.forward_cached(x);
                let (_, g) = mse(cache.output(), &[*y]);
                mlp.backward(&cache, &g, &mut grads);
            }
            for g in &mut grads {
                *g /= data.len() as f64;
            }
            let mut params = mlp.params();
            for (p, g) in params.iter_mut().zip(&grads) {
                *p -= 0.05 * g;
            }
            mlp.set_params(&params);
        }
        let after = total_loss(&mlp);
        assert!(
            after < before * 0.1,
            "training failed to reduce loss: {before} -> {after}"
        );
    }

    #[test]
    fn example_gradient_matches_manual_backward() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[2, 3, 2], Activation::Relu, Activation::Identity);
        let x = [0.4, -0.6];
        let g_out = [1.0, -1.0];
        let auto = mlp.example_gradient(&x, &g_out);
        let cache = mlp.forward_cached(&x);
        let mut manual = vec![0.0; mlp.num_params()];
        mlp.backward(&cache, &g_out, &mut manual);
        assert_eq!(auto, manual);
    }

    #[test]
    fn forward_batch_matches_row_forward() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[3, 7, 2], Activation::Relu, Activation::Identity);
        let x = Matrix::from_fn(9, 3, |i, j| ((i * 3 + j) as f64 * 0.77).sin());
        let batch = mlp.forward_batch(&x);
        assert_eq!(batch.shape(), (9, 2));
        for (i, row) in x.row_iter().enumerate() {
            assert_eq!(batch.row(i), mlp.forward(row).as_slice());
        }
    }

    #[test]
    fn per_example_gradients_match_example_gradient() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[3, 5, 2], Activation::Relu, Activation::Identity);
        let x = Matrix::from_fn(6, 3, |i, j| ((i + 2 * j) as f64 * 0.41).cos());
        let gouts = Matrix::from_fn(6, 2, |i, j| ((i * 2 + j) as f64 * 0.19).sin());
        let batch = mlp.per_example_gradients(&x, &gouts);
        assert_eq!(batch.shape(), (6, mlp.num_params()));
        for i in 0..6 {
            let single = mlp.example_gradient(x.row(i), gouts.row(i));
            assert_eq!(batch.row(i), single.as_slice(), "example {i}");
        }
    }

    #[test]
    fn byte_round_trip_reproduces_forward_bitwise() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[4, 9, 3], Activation::Identity, Activation::Relu);
        let back = Mlp::from_bytes(&mlp.to_bytes()).unwrap();
        assert_eq!(back.num_params(), mlp.num_params());
        assert_eq!(back.params(), mlp.params());
        let x = [0.3, -0.9, 0.1, 0.7];
        assert_eq!(back.forward(&x), mlp.forward(&x));
    }

    #[test]
    fn from_bytes_rejects_malformed_buffers() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[3, 5, 2], Activation::Relu, Activation::Identity);
        let bytes = mlp.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Mlp::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut corrupted = bytes.clone();
        corrupted[bytes.len() - 10] ^= 0x01;
        assert!(Mlp::from_bytes(&corrupted).is_err());
        // A broken layer chain (3->5 followed by 4->2) is rejected.
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::MLP);
        enc.u8(1).u8(0).usize(2);
        enc.usize(3)
            .usize(5)
            .f64_slice(&[0.0; 15])
            .f64_slice(&[0.0; 5]);
        enc.usize(4)
            .usize(2)
            .f64_slice(&[0.0; 8])
            .f64_slice(&[0.0; 2]);
        assert!(matches!(
            Mlp::from_bytes(&enc.finish()),
            Err(p3gm_store::StoreError::Invalid { .. })
        ));
        // Non-finite parameters inside a valid frame are rejected: they
        // would otherwise make every forward pass silently emit NaN.
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::MLP);
        enc.u8(1).u8(0).usize(1);
        let mut weights = [0.0; 6];
        weights[3] = f64::NAN;
        enc.usize(3)
            .usize(2)
            .f64_slice(&weights)
            .f64_slice(&[0.0; 2]);
        assert!(matches!(
            Mlp::from_bytes(&enc.finish()),
            Err(p3gm_store::StoreError::Invalid { .. })
        ));
    }

    /// Activation codes 2–4 are reserved (the retired sigmoid, tanh and
    /// softplus): a buffer naming one is invalid in either position.
    #[test]
    fn from_bytes_rejects_reserved_activation_codes() {
        for (hidden, output) in [(3, 0), (1, 3), (2, 0), (1, 4)] {
            let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::MLP);
            enc.u8(hidden).u8(output).usize(1);
            enc.usize(3)
                .usize(2)
                .f64_slice(&[0.0; 6])
                .f64_slice(&[0.0; 2]);
            assert!(
                matches!(
                    Mlp::from_bytes(&enc.finish()),
                    Err(p3gm_store::StoreError::Invalid { .. })
                ),
                "codes ({hidden}, {output})"
            );
        }
    }

    #[test]
    fn per_example_gradients_bit_identical_across_thread_counts() {
        let mut r = rng();
        let mlp = Mlp::new(&mut r, &[4, 8, 3], Activation::Relu, Activation::Identity);
        let x = Matrix::from_fn(33, 4, |i, j| ((i * 5 + j) as f64 * 0.13).sin());
        let gouts = Matrix::from_fn(33, 3, |i, j| ((i + j) as f64 * 0.29).cos());
        let reference = p3gm_parallel::with_threads(1, || mlp.per_example_gradients(&x, &gouts));
        for threads in [2, 4] {
            let batch =
                p3gm_parallel::with_threads(threads, || mlp.per_example_gradients(&x, &gouts));
            assert_eq!(batch.as_slice(), reference.as_slice());
        }
    }
}
