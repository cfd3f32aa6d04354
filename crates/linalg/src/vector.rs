//! Slice-level vector kernels.
//!
//! These free functions are the innermost loops of the neural-network and
//! classifier crates, so they avoid allocation wherever possible and operate
//! directly on `&[f64]` / `&mut [f64]`.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ; in release builds the
/// shorter length is used (standard `zip` semantics), which would silently
/// produce wrong results — callers are expected to guarantee matching
/// lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// The SIMD lane width shared by every lane-folded kernel in this
/// workspace: reductions split their input into groups of `LANES` strided
/// partial accumulators, then fold the lanes **in lane order** followed by
/// the ragged tail **in element order**. The fold order is a pure function
/// of the input length, so lane-folded results are bit-identical across
/// thread counts and across hardware (Rust never contracts `a * b + c`
/// into a fused multiply-add unless `mul_add` is spelled out).
pub const LANES: usize = 4;

/// Dot product with [`LANES`] fixed-order partial accumulators.
///
/// Shaped for autovectorization: the main loop walks `LANES`-wide chunks of
/// both slices and keeps one accumulator per lane, so LLVM turns it into
/// packed multiply/add without any reassociation license. The result
/// generally differs from [`dot`] in the last few ULPs (different — but
/// still fixed — summation order).
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot_lanes: length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        for l in 0..LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    // Lane partials fold in lane order, then the tail in element order.
    let mut s = 0.0;
    for &l in &acc {
        s += l;
    }
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        s += x * y;
    }
    s
}

/// Squared Euclidean norm with [`LANES`] fixed-order partial accumulators;
/// the lane-folded sibling of [`norm2_squared`] (same fold order as
/// [`dot_lanes`]).
#[inline]
pub fn norm2_squared_lanes(a: &[f64]) -> f64 {
    dot_lanes(a, a)
}

/// Squared Euclidean distance with [`LANES`] fixed-order partial
/// accumulators; the lane-folded sibling of [`squared_distance`].
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn squared_distance_lanes(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance_lanes: length mismatch");
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
        for l in 0..LANES {
            let d = ca[l] - cb[l];
            acc[l] += d * d;
        }
    }
    let mut s = 0.0;
    for &l in &acc {
        s += l;
    }
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Squared Euclidean norm.
#[inline]
pub fn norm2_squared(a: &[f64]) -> f64 {
    dot(a, a)
}

/// L1 norm (sum of absolute values).
#[inline]
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

/// Squared Euclidean distance between two points.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "squared_distance: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two points.
#[inline]
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    squared_distance(a, b).sqrt()
}

/// `y += alpha * x` (the BLAS `axpy` primitive).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a vector in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise sum of two slices into a new vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x + y).collect()
}

/// Element-wise difference of two slices into a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x - y).collect()
}

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance of a slice (divides by `n`). Returns `0.0` for slices
/// with fewer than one element.
pub fn variance(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Sum of a slice.
#[inline]
pub fn sum(a: &[f64]) -> f64 {
    a.iter().sum()
}

/// Index of the maximum element (first occurrence). Returns `None` for an
/// empty slice or a slice that is all NaN.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Clips the L2 norm of `x` to at most `max_norm`, in place, returning the
/// original norm.
///
/// This is the gradient-clipping operator `ψ_C` of DP-SGD (paper §II-D):
/// `ψ_C(g) = g * min(1, C / ||g||₂)`.
pub fn clip_norm(x: &mut [f64], max_norm: f64) -> f64 {
    let n = norm2(x);
    if n > max_norm && n > 0.0 {
        let factor = max_norm / n;
        scale(factor, x);
    }
    n
}

/// Numerically-stable log-sum-exp of a slice.
///
/// Returns negative infinity for an empty slice.
pub fn log_sum_exp(a: &[f64]) -> f64 {
    if a.is_empty() {
        return f64::NEG_INFINITY;
    }
    let max = a.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max.is_infinite() {
        return max;
    }
    let sum: f64 = a.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Softmax of a slice, computed in a numerically stable way.
pub fn softmax(a: &[f64]) -> Vec<f64> {
    if a.is_empty() {
        return Vec::new();
    }
    let lse = log_sum_exp(a);
    a.iter().map(|&x| (x - lse).exp()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(norm2_squared(&[3.0, 4.0]), 25.0);
        assert_eq!(norm1(&[-1.0, 2.0, -3.0]), 6.0);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert!((distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_scale_add_sub() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, 2.5]);
        assert_eq!(add(&[1.0], &[2.0]), vec![3.0]);
        assert_eq!(sub(&[1.0], &[2.0]), vec![-1.0]);
    }

    #[test]
    fn summary_statistics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(sum(&[1.0, 2.0]), 3.0);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[f64::NAN, 2.0]), Some(1));
        assert_eq!(argmax(&[f64::NAN]), None);
    }

    #[test]
    fn clip_norm_behaviour() {
        let mut g = vec![3.0, 4.0];
        let orig = clip_norm(&mut g, 1.0);
        assert!((orig - 5.0).abs() < 1e-12);
        assert!((norm2(&g) - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((g[0] / g[1] - 0.75).abs() < 1e-12);

        // Below the bound: unchanged.
        let mut small = vec![0.1, 0.1];
        clip_norm(&mut small, 1.0);
        assert_eq!(small, vec![0.1, 0.1]);

        // Zero vector stays zero.
        let mut zero = vec![0.0, 0.0];
        clip_norm(&mut zero, 1.0);
        assert_eq!(zero, vec![0.0, 0.0]);
    }

    #[test]
    fn log_sum_exp_stability() {
        // Large values should not overflow.
        let v = vec![1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_sums_to_one() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        assert!(softmax(&[]).is_empty());
    }
}
