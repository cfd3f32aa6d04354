//! Microkernel correctness: every register-tiled / lane-folded kernel must
//! match a retained naive scalar reference over arbitrary shapes, including
//! ragged tails smaller than one tile.
//!
//! Two classes of agreement are asserted:
//!
//! * **Bitwise** where the tiling preserves the scalar accumulation order.
//!   `Matrix::matmul` register tiles reorder the *loop nest*, but every
//!   output element still sums its `k` terms with one accumulator in
//!   strictly increasing `k` order — exactly the naive i-k-j triple loop —
//!   so the comparison is `to_bits` equality. Likewise `matmul_transposed`
//!   is defined as `vector::dot_lanes` per element, and a batched MLP
//!   forward row is defined as the single-example forward.
//! * **Error-bounded** where a kernel deliberately uses a different — but
//!   still fixed — summation order (lane folds, chunked reductions). Any
//!   two summation orders of the terms `t_i` differ by at most
//!   `2 (n-1) ε Σ|t_i|` to first order, so the tolerance scales with the
//!   sum of absolute terms — a tight ULP-level bound that still fails
//!   loudly on genuine kernel bugs.
//!
//! The symmetric eigensolver (tridiagonal QL) is checked the same way
//! against the cyclic Jacobi method it replaced, kept here as
//! [`jacobi_reference`]: the two share no code, so agreement on
//! eigenvalues and on well-separated eigenspaces pins both.
//!
//! DP-SGD's factored clipping (`Mlp::backward_batch` +
//! `clip_and_sum_batch`) is checked against the materialized reference
//! `clip_and_sum_gradients(per_example_gradients(..))`, and the one-`exp`
//! logistic loss bitwise against the two-`exp` formula it replaced.

use p3gm::linalg::{stats, vector, Matrix, SymmetricEigen};
use p3gm::mixture::Gmm;
use p3gm::nn::activation::{sigmoid, Activation};
use p3gm::nn::dpsgd::clip_and_sum_batch;
use p3gm::nn::loss::{bce_with_logits, logistic_loss};
use p3gm::nn::mlp::Mlp;
use p3gm::privacy::mechanisms::{clip_and_sum_gradients, clip_and_sum_gradients_counted};
use proptest::prelude::*;

/// Strategy: a matrix with the given shape and bounded values.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |values| Matrix::from_vec(rows, cols, values).unwrap())
}

/// Naive scalar reference: i-k-j matmul with one accumulator per output
/// element in increasing-k order (what the tiled kernel must reproduce
/// bit for bit).
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Reference symmetric eigen-decomposition by the cyclic Jacobi method:
/// eigenvalues in descending order with their unit eigenvectors as the
/// columns of the returned matrix. Slow (several O(n³) sweeps) but simple
/// and independent of the production tridiagonal-QL solver.
fn jacobi_reference(a: &Matrix) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * a.max_abs().max(f64::MIN_POSITIVE);
    let off_diagonal_norm = |m: &Matrix| {
        let mut acc = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    acc += m.get(i, j) * m.get(i, j);
                }
            }
        }
        acc.sqrt()
    };
    for _sweep in 0..100 {
        if off_diagonal_norm(&m) <= tol {
            break;
        }
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let theta = 0.5 * (m.get(q, q) - m.get(p, p)) / apq;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // M ← Gᵀ M G, then V ← V G.
                for k in 0..n {
                    let (mkp, mkq) = (m.get(k, p), m.get(k, q));
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let (mpk, mqk) = (m.get(p, k), m.get(q, k));
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                for k in 0..n {
                    let (vkp, vkq) = (v.get(k, p), v.get(k, q));
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    assert!(
        off_diagonal_norm(&m) <= tol * 1e3,
        "Jacobi reference did not converge"
    );
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m.get(j, j).total_cmp(&m.get(i, i)));
    let values = order.iter().map(|&i| m.get(i, i)).collect();
    let vectors = Matrix::from_fn(n, n, |row, col| v.get(row, order[col]));
    (values, vectors)
}

/// Checks the production eigensolver on the symmetric `a` against
/// [`jacobi_reference`]:
/// * eigenvalues agree within `1e-10 · max|aᵢⱼ|`;
/// * `VΛVᵀ = A` within `1e-9 · max|aᵢⱼ|` and `VᵀV = I` within `1e-9`;
/// * the top-k projectors `VₖVₖᵀ` agree within `1e-8` for every k whose
///   eigenvalue gap `λₖ − λₖ₊₁` exceeds `1e-3 · max|aᵢⱼ|` (below that the
///   k-dimensional eigenspace is ill-determined and may differ).
fn check_against_jacobi(a: &Matrix) {
    let n = a.rows();
    let scale = a.max_abs();
    let eig = SymmetricEigen::new(a).unwrap();
    let (ref_values, ref_vectors) = jacobi_reference(a);
    for (i, (&got, &want)) in eig.eigenvalues.iter().zip(&ref_values).enumerate() {
        assert!(
            (got - want).abs() <= 1e-10 * scale,
            "n = {n}: eigenvalue {i} is {got}, Jacobi gives {want}"
        );
    }
    let residual = eig.reconstruct().sub(a).unwrap().max_abs();
    assert!(residual <= 1e-9 * scale, "n = {n}: ‖VΛVᵀ − A‖ = {residual}");
    let v = &eig.eigenvectors;
    let gram = v.transpose().matmul(v).unwrap();
    let orthogonality = gram.sub(&Matrix::identity(n)).unwrap().max_abs();
    assert!(
        orthogonality <= 1e-9,
        "n = {n}: ‖VᵀV − I‖ = {orthogonality}"
    );

    // D = Σ_{i<k} (vᵢvᵢᵀ − wᵢwᵢᵀ), grown one eigenpair at a time.
    let mut projector_gap = Matrix::zeros(n, n);
    for k in 1..n {
        let (vk, wk) = (v.col(k - 1), ref_vectors.col(k - 1));
        for r in 0..n {
            for c in 0..n {
                let d = projector_gap.get(r, c) + vk[r] * vk[c] - wk[r] * wk[c];
                projector_gap.set(r, c, d);
            }
        }
        if eig.eigenvalues[k - 1] - eig.eigenvalues[k] > 1e-3 * scale {
            let diff = projector_gap.max_abs();
            assert!(diff <= 1e-8, "n = {n}: top-{k} projectors differ by {diff}");
        }
    }
}

/// A symmetric `n x n` matrix with entries in `[-1, 1]`, generically
/// indefinite with distinct eigenvalues.
fn random_symmetric(n: usize, seed: u64) -> Matrix {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    a.symmetrize();
    a
}

/// `Q diag(λ) Qᵀ` for a random orthogonal `Q` (a product of `n` Householder
/// reflections) and eigenvalues drawn with repetition from five values in
/// `[-1, 1]`, so most spectra have repeated and negative eigenvalues.
fn repeated_spectrum(n: usize, seed: u64) -> Matrix {
    use rand::{Rng, SeedableRng};
    const LEVELS: [f64; 5] = [-1.0, -0.25, 0.0, 0.5, 1.0];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut q = Matrix::identity(n);
    for _ in 0..n {
        let u: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let uu = vector::norm2_squared(&u);
        // Q ← Q (I − 2uuᵀ/uᵀu)
        for r in 0..n {
            let qu = vector::dot(q.row(r), &u);
            for (c, &uc) in u.iter().enumerate() {
                q.set(r, c, q.get(r, c) - 2.0 * qu * uc / uu);
            }
        }
    }
    let lambda: Vec<f64> = (0..n).map(|_| LEVELS[rng.gen_range(0..5usize)]).collect();
    let mut a = q
        .matmul(&Matrix::from_diagonal(&lambda))
        .and_then(|ql| ql.matmul_transposed(&q))
        .unwrap();
    a.symmetrize();
    a
}

/// First-order bound on the difference between two fixed summation orders
/// of the same terms: `2 (n-1) ε Σ|t_i|`, padded with a tiny absolute term
/// for sums near zero.
fn reorder_tol(n_terms: usize, abs_sum: f64) -> f64 {
    2.0 * n_terms as f64 * f64::EPSILON * abs_sum + 1e-300
}

/// An MLP with the given layer sizes whose hidden and output activations
/// are drawn from ReLU, tanh and identity, and a batch of `rows` inputs and
/// output gradients for it.
fn mlp_and_batch(sizes: &[usize], rows: usize, seed: u64) -> (Mlp, Matrix, Matrix) {
    use rand::{Rng, SeedableRng};
    const ACTIVATIONS: [Activation; 3] = [Activation::Relu, Activation::Tanh, Activation::Identity];
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let hidden = ACTIVATIONS[rng.gen_range(0..3usize)];
    let output = ACTIVATIONS[rng.gen_range(0..3usize)];
    let mlp = Mlp::new(&mut rng, sizes, hidden, output);
    let x = Matrix::from_fn(rows, mlp.in_dim(), |_, _| rng.gen_range(-2.0..2.0));
    let grad_outputs = Matrix::from_fn(rows, mlp.out_dim(), |_, _| rng.gen_range(-1.0..1.0));
    (mlp, x, grad_outputs)
}

/// Checks the factored per-example gradients of `mlp` against the
/// materialized `B x P` batch:
/// * input-gradient rows are bit-identical to the single-example backward;
/// * per-example squared norms agree within `1e-12` relative;
/// * the unclipped sum is bit-identical while the reference folds rows
///   sequentially (at most 64 rows), and within the reordering bound
///   otherwise;
/// * clipped sums at every `clip_norms` entry are within the reordering
///   bound over the clipped column mass, and clipped counts are equal
///   whenever no norm lies within `1e-9` relative of the clip norm.
fn check_factored_clipping(mlp: &Mlp, x: &Matrix, grad_outputs: &Matrix, clip_norms: &[f64]) {
    let rows = x.rows();
    let materialized = mlp.per_example_gradients(x, grad_outputs);
    let n_params = materialized.cols();
    let (factored, input_grad) =
        mlp.backward_batch(mlp.forward_batch_cached(x), grad_outputs, true);
    let input_grad = input_grad.expect("requested");
    let mut param_grads = vec![0.0; n_params];
    for i in 0..rows {
        let single = mlp.backward(
            &mlp.forward_cached(x.row(i)),
            grad_outputs.row(i),
            &mut param_grads,
        );
        for (a, b) in input_grad.row(i).iter().zip(&single) {
            assert_eq!(a.to_bits(), b.to_bits(), "input gradient row {i}");
        }
    }

    let mut squared = vec![0.0; rows];
    factored.add_squared_norms(&mut squared);
    let norms: Vec<f64> = (0..rows)
        .map(|i| {
            let want = vector::norm2_squared_lanes(materialized.row(i));
            assert!(
                (squared[i] - want).abs() <= 1e-12 * want + 1e-300,
                "row {i}: ghost norm² {} vs materialized {want}",
                squared[i]
            );
            want.sqrt()
        })
        .collect();

    let (unclipped, count) = clip_and_sum_batch(&[&factored], None);
    assert_eq!(count, 0);
    let column_sums = materialized.column_sums();
    for (j, (&got, &want)) in unclipped.iter().zip(&column_sums).enumerate() {
        if rows <= 64 {
            assert_eq!(got.to_bits(), want.to_bits(), "unclipped entry {j}");
        } else {
            let abs_mass: f64 = materialized.row_iter().map(|r| r[j].abs()).sum();
            assert!(
                (got - want).abs() <= reorder_tol(rows, abs_mass),
                "unclipped entry {j}"
            );
        }
    }

    for &clip in clip_norms {
        let (sum, count) = clip_and_sum_batch(&[&factored], Some(clip));
        let (reference, reference_count) = clip_and_sum_gradients_counted(&materialized, clip);
        let mut abs_mass = vec![0.0; n_params];
        for (row, &norm) in materialized.row_iter().zip(&norms) {
            let factor = if norm > clip { clip / norm } else { 1.0 };
            for (m, v) in abs_mass.iter_mut().zip(row) {
                *m += (factor * v).abs();
            }
        }
        for j in 0..n_params {
            let tol = reorder_tol(rows + n_params, abs_mass[j]);
            assert!(
                (sum[j] - reference[j]).abs() <= tol,
                "C = {clip}, entry {j}: factored {} vs materialized {} (tol {tol})",
                sum[j],
                reference[j]
            );
        }
        if norms.iter().all(|&n| (n - clip).abs() > 1e-9 * clip) {
            assert_eq!(count, reference_count, "clipped count at C = {clip}");
        }
    }
}

/// The two-`exp` logistic loss `bce_with_logits` and `logistic_loss` used
/// before deriving the sigmoid from the softplus term's `exp(−|z|)`.
fn logistic_reference(z: f64, t: f64) -> (f64, f64) {
    (
        z.max(0.0) - t * z + (-z.abs()).exp().ln_1p(),
        sigmoid(z) - t,
    )
}

/// Bitwise equality, with every NaN equal to every NaN.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

fn assert_logistic_matches_reference(z: f64, t: f64) {
    let (loss, grad) = logistic_loss(z, t);
    let (want_loss, want_grad) = logistic_reference(z, t);
    assert!(same_bits(loss, want_loss), "loss at z = {z:e}, t = {t}");
    assert!(same_bits(grad, want_grad), "gradient at z = {z:e}, t = {t}");
    let (total, grads) = bce_with_logits(&[z], &[t]);
    assert!(same_bits(total, 0.0 + want_loss) && same_bits(grads[0], want_grad));
}

#[test]
fn logistic_loss_matches_the_two_exp_formula_at_special_values() {
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        1.0,
        36.0,
        708.0,
        709.8,
        745.0,
        746.0,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    for z in specials {
        for z in [z, -z] {
            for t in [0.0, 0.3, 1.0] {
                assert_logistic_matches_reference(z, t);
            }
        }
    }
}

/// Factored clipping at the high-dimensional workload's shapes: the
/// encoder-variance network (206→48→10) and the decoder (10→48→206) on a
/// 64-row lot, from tight to vacuous clip norms.
#[test]
fn factored_clipping_matches_materialized_at_workload_shapes() {
    for (seed, sizes) in [(3, [206, 48, 10]), (4, [10, 48, 206])] {
        let (mlp, x, grad_outputs) = mlp_and_batch(&sizes, 64, seed);
        check_factored_clipping(&mlp, &x, &grad_outputs, &[1e-3, 0.05, 1.0, 1e6]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Factored clipping matches the materialized reference on random MLPs
    /// of 1–3 layers with widths 1–48 and lots of 1–70 rows, at a clip norm
    /// between the two middle row norms and at one scaled from the median.
    #[test]
    fn factored_clipping_matches_materialized(
        seed in 0u64..1_000_000,
        layers in 1usize..4,
        rows in 1usize..71,
        clip_exponent in -3.0..3.0f64,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sizes: Vec<usize> = (0..=layers).map(|_| rng.gen_range(1..49usize)).collect();
        let (mlp, x, grad_outputs) = mlp_and_batch(&sizes, rows, seed);
        let mut norms: Vec<f64> = mlp
            .per_example_gradients(&x, &grad_outputs)
            .row_iter()
            .map(vector::norm2)
            .collect();
        norms.sort_by(f64::total_cmp);
        let mid = norms.len() / 2;
        let between = (norms[mid.saturating_sub(1)] * norms[mid]).sqrt().max(1e-12);
        let scaled = norms[mid].max(1e-12) * 10f64.powf(clip_exponent);
        check_factored_clipping(&mlp, &x, &grad_outputs, &[between, scaled]);
    }

    /// The one-`exp` logistic loss is bitwise the two-`exp` formula on
    /// arbitrary bit patterns and across the finite range of `exp`.
    #[test]
    fn logistic_loss_matches_the_two_exp_formula(
        bits in any::<u64>(),
        z in -800.0..800.0f64,
        t in 0.0..1.0f64,
    ) {
        assert_logistic_matches_reference(f64::from_bits(bits), t);
        assert_logistic_matches_reference(z, t);
    }

    /// The register-tiled matmul is bit-identical to the naive scalar
    /// triple loop on arbitrary shapes (tiling never splits the k
    /// accumulation).
    #[test]
    fn matmul_matches_naive_bitwise(m in 1usize..40, k in 1usize..24, n in 1usize..40, seed in 0u64..1_000) {
        let a = Matrix::from_fn(m, k, |i, j| (((seed + 1) as f64) * ((i * k + j + 1) as f64) * 0.13).sin() * 5.0);
        let b = Matrix::from_fn(k, n, |i, j| (((seed + 7) as f64) * ((i * n + j + 1) as f64) * 0.29).cos() * 5.0);
        let tiled = a.matmul(&b).unwrap();
        let reference = naive_matmul(&a, &b);
        for (x, y) in tiled.as_slice().iter().zip(reference.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `matmul_transposed` is, per element, exactly the lane-folded dot of
    /// the two rows — and within a reordering bound of the naive
    /// sequential dot.
    #[test]
    fn matmul_transposed_matches_lane_dot_and_naive(m in 1usize..40, k in 1usize..24, n in 1usize..40, seed in 0u64..1_000) {
        let a = Matrix::from_fn(m, k, |i, j| (((seed + 3) as f64) * ((i * k + j + 1) as f64) * 0.17).sin() * 5.0);
        let b = Matrix::from_fn(n, k, |i, j| (((seed + 11) as f64) * ((i * k + j + 1) as f64) * 0.23).cos() * 5.0);
        let out = a.matmul_transposed(&b).unwrap();
        prop_assert_eq!(out.shape(), (m, n));
        for i in 0..m {
            for j in 0..n {
                let lanes = vector::dot_lanes(a.row(i), b.row(j));
                prop_assert_eq!(out.get(i, j).to_bits(), lanes.to_bits());
                let naive = vector::dot(a.row(i), b.row(j));
                let abs_sum: f64 = a.row(i).iter().zip(b.row(j)).map(|(x, y)| (x * y).abs()).sum();
                prop_assert!((lanes - naive).abs() <= reorder_tol(k, abs_sum));
            }
        }
    }

    /// The tiled upper-triangle + mirror gram kernel matches the naive
    /// full `AᵀA` within the chunked-reduction reordering bound, and is
    /// exactly symmetric.
    #[test]
    fn gram_matches_naive(a in matrix(37, 13)) {
        let gram = a.gram();
        for j in 0..a.cols() {
            for l in 0..a.cols() {
                prop_assert_eq!(gram.get(j, l).to_bits(), gram.get(l, j).to_bits());
                let naive: f64 = (0..a.rows()).map(|i| a.get(i, j) * a.get(i, l)).sum();
                let abs_sum: f64 = (0..a.rows()).map(|i| (a.get(i, j) * a.get(i, l)).abs()).sum();
                prop_assert!((gram.get(j, l) - naive).abs() <= reorder_tol(a.rows(), abs_sum));
            }
        }
    }

    /// The lane-folded dot/norm kernels match their sequential references
    /// within the reordering bound, on lengths straddling the lane width.
    #[test]
    fn lane_kernels_match_sequential(values in proptest::collection::vec(-10.0..10.0f64, 140), len in 1usize..70) {
        let a: Vec<f64> = values[..len].to_vec();
        let b: Vec<f64> = values[len..2 * len].to_vec();
        let abs_dot: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        prop_assert!((vector::dot_lanes(&a, &b) - vector::dot(&a, &b)).abs() <= reorder_tol(a.len(), abs_dot));
        // Norms have non-negative terms: same bound, no cancellation slack needed.
        prop_assert!(
            (vector::norm2_squared_lanes(&a) - vector::norm2_squared(&a)).abs()
                <= reorder_tol(a.len(), vector::norm2_squared(&a))
        );
        prop_assert!(
            (vector::squared_distance_lanes(&a, &b) - vector::squared_distance(&a, &b)).abs()
                <= reorder_tol(a.len(), vector::squared_distance(&a, &b))
        );
    }

    /// The fused clip-and-sum matches the naive per-row copy → clip → add
    /// reference: per-row clip factors agree to a few ULPs and the chunked
    /// sum reorders, so each component carries a reordering bound scaled
    /// by the absolute column mass.
    #[test]
    fn clip_and_sum_matches_naive(grads in matrix(53, 9), clip in 0.2..5.0f64) {
        let fused = clip_and_sum_gradients(&grads, clip);
        let mut reference = vec![0.0f64; grads.cols()];
        let mut abs_mass = vec![0.0f64; grads.cols()];
        for i in 0..grads.rows() {
            let mut row = grads.row(i).to_vec();
            vector::clip_norm(&mut row, clip);
            for (j, &v) in row.iter().enumerate() {
                reference[j] += v;
                abs_mass[j] += v.abs();
            }
        }
        for j in 0..grads.cols() {
            // The lane-folded norm perturbs each row's clip factor by
            // O(d·ε) relatively, then the chunked sum reorders: both
            // effects stay within the reordering bound over the clipped
            // column mass (with the norm's d terms included).
            let tol = reorder_tol(grads.rows() + grads.cols(), abs_mass[j]);
            prop_assert!(
                (fused[j] - reference[j]).abs() <= tol,
                "column {}: fused {} vs naive {} (tol {})", j, fused[j], reference[j], tol
            );
        }
    }

    /// The batched E-step matches the naive per-row, per-component
    /// reference (log weight + Cholesky-solve log density) within a
    /// modest tolerance — the batch path whitens with a precomputed
    /// `L⁻¹` instead of solving, so agreement is relative, not bitwise —
    /// and its exp-normalized rows match the single-row responsibilities.
    #[test]
    fn batched_e_step_matches_naive(data in matrix(31, 3), w in 0.1..0.9f64, var in 0.3..2.0f64) {
        let means = Matrix::from_rows(&[
            vec![-1.0, 0.2, 0.5],
            vec![1.5, -0.4, -0.5],
        ]).unwrap();
        let gmm = Gmm::isotropic(vec![w, 1.0 - w], means, var).unwrap();
        let logs = gmm.log_densities_batch(&data);
        let resp = gmm.responsibilities_batch(&data);
        for i in 0..data.rows() {
            let x = data.row(i);
            for k in 0..2 {
                let naive = gmm.weights()[k].max(1e-300).ln() + gmm.component_log_density(k, x);
                let got = logs.get(i, k);
                prop_assert!(
                    (got - naive).abs() <= 1e-9 * naive.abs().max(1.0),
                    "log density ({}, {}): {} vs {}", i, k, got, naive
                );
            }
            let single = gmm.responsibilities(x);
            prop_assert!((resp.get(i, 0) - single[0]).abs() <= 1e-9);
            prop_assert!((resp.get(i, 1) - single[1]).abs() <= 1e-9);
            prop_assert!((resp.get(i, 0) + resp.get(i, 1) - 1.0).abs() <= 1e-12);
        }
    }

    /// The tridiagonal-QL eigensolver agrees with the Jacobi reference on
    /// random symmetric (indefinite) matrices up to 48×48.
    #[test]
    fn eigen_matches_jacobi_on_random_symmetric(n in 1usize..49, seed in 0u64..1_000_000) {
        check_against_jacobi(&random_symmetric(n, seed));
    }

    /// ...and on spectra with repeated eigenvalues, where only the
    /// projectors onto whole eigenspaces are determined.
    #[test]
    fn eigen_matches_jacobi_on_repeated_spectra(n in 1usize..49, seed in 0u64..1_000_000) {
        check_against_jacobi(&repeated_spectrum(n, seed));
    }

    /// A batched MLP forward row is bit-identical to the single-example
    /// forward (both reduce with the same lane-folded dot and add the bias
    /// with one IEEE addition), including on widths smaller than a lane.
    #[test]
    fn forward_batch_matches_row_forward_bitwise(x in matrix(19, 5), seed in 0u64..1_000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&mut rng, &[5, 7, 3], Activation::Relu, Activation::Sigmoid);
        let batch = mlp.forward_batch(&x);
        for i in 0..x.rows() {
            let single = mlp.forward(x.row(i));
            for (b, s) in batch.row(i).iter().zip(single.iter()) {
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
        }
    }
}

/// The DP-PCA input of the high-dimensional workload: the covariance of
/// 800 prepared MNIST-like rows (14×14 pixels plus a one-hot label, 206
/// columns, scaled by 1/√d as the private pipeline does) plus the Wishart
/// noise of an ε = 0.1 release.
#[test]
fn eigen_matches_jacobi_on_wishart_noised_covariance() {
    use p3gm::core::synthesis::LabelledSynthesizer;
    use p3gm::privacy::mechanisms::wishart_noise;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let images = p3gm::datasets::images::mnist_like(&mut rng, 800, 14);
    let (_, prepared) =
        LabelledSynthesizer::prepare(&images.features, &images.labels, images.n_classes).unwrap();
    let d = prepared.cols();
    assert_eq!(d, 206);
    let scaled = prepared.scale(1.0 / (d as f64).sqrt());
    let covariance = stats::covariance_matrix(&scaled, None).unwrap();
    let noise = wishart_noise(&mut rng, d, scaled.rows(), 0.1).unwrap();
    check_against_jacobi(&covariance.add(&noise).unwrap());
}
