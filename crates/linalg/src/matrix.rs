//! Dense row-major `f64` matrix.
//!
//! [`Matrix`] is the workspace's single batch representation: one contiguous
//! `Vec<f64>` plus a shape. Every hot path — per-example DP-SGD gradients,
//! the (DP-)EM E-step, PCA covariance accumulation, the classifier suite —
//! operates on these contiguous batches, and the heavy kernels
//! ([`Matrix::matmul`], [`Matrix::gram`]) tile their inner loops for cache
//! locality and parallelize over row chunks through `p3gm-parallel` with
//! deterministic (thread-count-independent) results. Row-list
//! (`Vec<Vec<f64>>`) adapters exist only for the I/O boundary:
//! [`Matrix::from_rows`] in, [`Matrix::to_rows`] out.

use crate::error::LinalgError;
use crate::Result;

/// Register-tile height of the matmul/gram microkernels: output rows
/// processed together so their accumulators stay in registers.
const TILE_MR: usize = 4;
/// Register-tile width of the matmul/gram microkernels: output columns
/// processed together as `[f64; TILE_NR]` accumulator rows — two AVX-512
/// vectors (or four AVX2 vectors) per output row once autovectorized.
const TILE_NR: usize = 16;
/// k-block length of the matmul microkernel, sized so a block of `other`
/// rows stays resident in L1 while the tile sweeps across the output.
const TILE_KC: usize = 256;

/// A dense, row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m.set(i, i, v);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument {
                msg: format!(
                    "buffer of length {} cannot form a {}x{} matrix",
                    data.len(),
                    rows,
                    cols
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// Returns an error if the rows are ragged or the input is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidArgument {
                msg: "rows have inconsistent lengths".to_string(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds (consistent with slice
    /// indexing).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Returns the `row`-th row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        let start = row * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Returns the `row`-th row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        let start = row * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copies the `col`-th column into a new vector.
    pub fn col(&self, col: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, col)).collect()
    }

    /// Returns an iterator over the rows (as slices).
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns an iterator over contiguous blocks of `rows_per_chunk` rows,
    /// each as one flat row-major slice (the view the parallel kernels hand
    /// to worker threads).
    pub fn rows_chunks(&self, rows_per_chunk: usize) -> impl Iterator<Item = &[f64]> {
        self.data.chunks(rows_per_chunk.max(1) * self.cols.max(1))
    }

    /// Returns the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the underlying row-major buffer mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies the matrix out as a list of rows.
    ///
    /// This is an I/O-boundary adapter (serialization, report rendering);
    /// compute paths should stay on the contiguous buffer.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.row_iter().map(<[f64]>::to_vec).collect()
    }

    /// Returns a new matrix that is the transpose of `self`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// The kernel is a register-tiled microkernel: groups of `TILE_MR`
    /// output rows sweep `TILE_NR`-wide column tiles whose accumulators
    /// live in `[f64; TILE_NR]` arrays (packed vector registers after
    /// autovectorization), with the shared dimension blocked by
    /// `TILE_KC` so the active rows of `other` stay in L1. Every output
    /// element still accumulates its `k` terms in strictly increasing `k`
    /// order with a single accumulator, so the result is bit-identical to
    /// the naive i-k-j scalar product — and, because work is parallelized
    /// over independent output-row chunks, bit-identical for every thread
    /// count.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.rows == 0 || other.cols == 0 {
            return Ok(out);
        }
        let out_cols = other.cols;
        let rows_per_chunk = p3gm_parallel::default_tile(self.rows, TILE_MR);
        p3gm_parallel::par_chunks_mut(
            out.as_mut_slice(),
            rows_per_chunk * out_cols,
            |chunk_index, out_chunk| {
                let row_base = chunk_index * rows_per_chunk;
                let chunk_rows = out_chunk.len() / out_cols;
                let mut local = 0;
                while local < chunk_rows {
                    let height = TILE_MR.min(chunk_rows - local);
                    let out_rows = &mut out_chunk[local * out_cols..(local + height) * out_cols];
                    match height {
                        4 => matmul_row_block::<4>(self, other, row_base + local, out_rows),
                        3 => matmul_row_block::<3>(self, other, row_base + local, out_rows),
                        2 => matmul_row_block::<2>(self, other, row_base + local, out_rows),
                        _ => matmul_row_block::<1>(self, other, row_base + local, out_rows),
                    }
                    local += height;
                }
            },
        );
        Ok(out)
    }

    /// Matrix product with a transposed right-hand side, `self * otherᵀ`,
    /// without materializing the transpose.
    ///
    /// Each output element is the lane-folded dot product of a row of
    /// `self` with a row of `other` — bit-identical to
    /// [`crate::vector::dot_lanes`] on the same rows, and therefore
    /// bit-identical for every thread count (lane partials fold in lane
    /// order, the ragged tail in element order; see the `vector` docs).
    /// This is the batched kernel behind the PCA inverse transform and the
    /// `nn` crate's batched linear layers, whose row-major weights are
    /// naturally the transposed operand.
    pub fn matmul_transposed(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_transposed",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        self.matmul_transposed_flat(other.as_slice(), other.rows)
    }

    /// [`Matrix::matmul_transposed`] against a borrowed row-major buffer of
    /// `b_rows` rows of `self.cols()` values each (the layout of a linear
    /// layer's weights), so callers that keep weights in a plain `Vec<f64>`
    /// can use the batched kernel without copying into a `Matrix`.
    pub fn matmul_transposed_flat(&self, b: &[f64], b_rows: usize) -> Result<Matrix> {
        if b.len() != b_rows * self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul_transposed",
                lhs: self.shape(),
                rhs: (b_rows, b.len().checked_div(b_rows).unwrap_or(0)),
            });
        }
        let mut out = Matrix::zeros(self.rows, b_rows);
        if self.rows == 0 || b_rows == 0 || self.cols == 0 {
            // Empty shared dimension: every dot product is the empty sum.
            return Ok(out);
        }
        let out_cols = b_rows;
        let rows_per_chunk = p3gm_parallel::default_tile(self.rows, TILE_MR);
        p3gm_parallel::par_chunks_mut(
            out.as_mut_slice(),
            rows_per_chunk * out_cols,
            |chunk_index, out_chunk| {
                let row_base = chunk_index * rows_per_chunk;
                for (local, out_row) in out_chunk.chunks_mut(out_cols).enumerate() {
                    let a_row = self.row(row_base + local);
                    for (o, b_row) in out_row.iter_mut().zip(b.chunks_exact(self.cols)) {
                        *o = crate::vector::dot_lanes(a_row, b_row);
                    }
                }
            },
        );
        Ok(out)
    }

    /// Matrix-vector product `self * v`: one lane-folded dot product per
    /// row (see [`crate::vector::dot_lanes`]).
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .row_iter()
            .map(|row| crate::vector::dot_lanes(row, v))
            .collect())
    }

    /// Vector-matrix product `v^T * self`, returned as a vector of length
    /// `self.cols()`. The branch-free inner loop is a row-wise axpy that
    /// vectorizes cleanly; rows accumulate in ascending order.
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.rows != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "vecmat",
                lhs: (1, v.len()),
                rhs: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, row) in self.row_iter().enumerate() {
            let vi = v[i];
            for (o, &r) in out.iter_mut().zip(row.iter()) {
                *o += vi * r;
            }
        }
        Ok(out)
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        // Write into a preallocated buffer: the indexed loop compiles to a
        // straight vectorizable sweep, with no iterator-collect growth
        // checks in the hot path.
        let mut data = vec![0.0f64; self.data.len()];
        for ((o, &a), &b) in data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * scalar).collect(),
        }
    }

    /// In-place element-wise update `self += alpha * other` (the matrix
    /// `axpy` primitive the chunked reductions fold partial batches with).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Column-wise sums over the rows, accumulated with the deterministic
    /// chunked reduction (fixed chunk boundaries, in-order fold), so the
    /// result is bit-identical for every thread count.
    pub fn column_sums(&self) -> Vec<f64> {
        let chunk_len = p3gm_parallel::default_chunk_len(self.rows);
        p3gm_parallel::par_map_reduce(
            self.rows,
            chunk_len,
            |range| {
                let mut acc = vec![0.0; self.cols];
                for i in range {
                    for (a, &x) in acc.iter_mut().zip(self.row(i).iter()) {
                        *a += x;
                    }
                }
                acc
            },
            |mut a, b| {
                for (x, &y) in a.iter_mut().zip(b.iter()) {
                    *x += y;
                }
                a
            },
        )
        .unwrap_or_else(|| vec![0.0; self.cols])
    }

    /// Adds `scalar` to every diagonal entry in place (useful for ridge
    /// regularization and for repairing nearly-singular noisy covariances).
    pub fn add_diagonal(&mut self, scalar: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += scalar;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Extracts the diagonal as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        self.diagonal().iter().sum()
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns a sub-matrix consisting of the listed rows (in order).
    pub fn select_rows(&self, indices: &[usize]) -> Result<Matrix> {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            if i >= self.rows {
                return Err(LinalgError::InvalidArgument {
                    msg: format!("row index {i} out of bounds for {} rows", self.rows),
                });
            }
            data.extend_from_slice(self.row(i));
        }
        Ok(Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        })
    }

    /// Returns a sub-matrix consisting of the listed columns (in order).
    pub fn select_cols(&self, indices: &[usize]) -> Result<Matrix> {
        for &j in indices {
            if j >= self.cols {
                return Err(LinalgError::InvalidArgument {
                    msg: format!("column index {j} out of bounds for {} columns", self.cols),
                });
            }
        }
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            for (jj, &j) in indices.iter().enumerate() {
                out.set(i, jj, self.get(i, j));
            }
        }
        Ok(out)
    }

    /// Stacks two matrices vertically (`self` on top of `other`).
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Stacks two matrices horizontally (`self` to the left of `other`).
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        Ok(out)
    }

    /// Computes `self^T * self` (the Gram matrix), a common step when forming
    /// covariance matrices.
    ///
    /// Row chunks accumulate `d x d` partial Gram matrices in parallel
    /// using the same register tiles as [`Matrix::matmul`]; the partials
    /// are folded in
    /// chunk order, so the result is deterministic for every thread count.
    /// Only the upper triangle is accumulated — the Gram matrix is exactly
    /// symmetric because `a[i][j] * a[i][l]` and `a[i][l] * a[i][j]` are
    /// the same product summed in the same row order — and mirrored into
    /// the lower triangle once after the fold, halving the FLOPs.
    pub fn gram(&self) -> Matrix {
        let d = self.cols;
        let chunk_len = p3gm_parallel::default_chunk_len(self.rows);
        let mut out = p3gm_parallel::par_map_reduce(
            self.rows,
            chunk_len,
            |range| {
                let mut partial = Matrix::zeros(d, d);
                gram_chunk(self, range, &mut partial);
                partial
            },
            |mut a, b| {
                a.axpy(1.0, &b).expect("partial Gram shapes match");
                a
            },
        )
        .unwrap_or_else(|| Matrix::zeros(d, d));
        for j in 1..d {
            for l in 0..j {
                let upper = out.data[l * d + j];
                out.data[j * d + l] = upper;
            }
        }
        out
    }

    /// Returns `true` if every element of `self` is within `tol` of the
    /// corresponding element of `other`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Serializes the matrix into a framed `p3gm-store` buffer (shape
    /// followed by the row-major `f64` bit patterns; bit-exact round trip).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::MATRIX);
        enc.usize(self.rows).usize(self.cols).f64_slice(&self.data);
        enc.finish()
    }

    /// Deserializes a matrix from a buffer produced by [`Matrix::to_bytes`].
    ///
    /// Truncated, corrupted, wrong-tag and wrong-version buffers return a
    /// typed [`p3gm_store::StoreError`]; this never panics.
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<Matrix> {
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::MATRIX)?;
        let rows = dec.usize()?;
        let cols = dec.usize()?;
        let data = dec.f64_vec()?;
        dec.finish()?;
        match rows.checked_mul(cols) {
            Some(n) if n == data.len() => Ok(Matrix { rows, cols, data }),
            _ => Err(p3gm_store::StoreError::Invalid {
                msg: format!(
                    "matrix shape {rows}x{cols} inconsistent with {} stored values",
                    data.len()
                ),
            }),
        }
    }

    /// Symmetrizes the matrix in place: `A <- (A + A^T)/2`.
    ///
    /// Used after adding (possibly asymmetric) noise to covariance matrices.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, avg);
                self.set(j, i, avg);
            }
        }
    }
}

/// The matmul microkernel: computes `R` consecutive output rows of `a * b`
/// (rows `a_base..a_base + R`) into `out_rows` (row-major, `b.cols()` values
/// per row).
///
/// The output sweeps [`TILE_NR`]-wide column tiles whose accumulators live
/// in `[f64; TILE_NR]` arrays — packed vector registers once LLVM
/// autovectorizes the fixed-bound inner loops — and the shared dimension is
/// blocked by [`TILE_KC`] so the active rows of `b` stay L1-resident.
/// Accumulator tiles are loaded from and stored back to `out_rows` at
/// k-block boundaries, so every output element still sums its `k` terms in
/// strictly increasing `k` order: bit-identical to the naive scalar kernel.
fn matmul_row_block<const R: usize>(a: &Matrix, b: &Matrix, a_base: usize, out_rows: &mut [f64]) {
    let k_dim = a.cols;
    let n = b.cols;
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| a.row(a_base + r));
    let mut k0 = 0;
    loop {
        let k_len = TILE_KC.min(k_dim - k0);
        let mut j0 = 0;
        while j0 + TILE_NR <= n {
            let mut acc = [[0.0f64; TILE_NR]; R];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                acc_row.copy_from_slice(&out_rows[r * n + j0..r * n + j0 + TILE_NR]);
            }
            for k in 0..k_len {
                let b_row = &b.row(k0 + k)[j0..j0 + TILE_NR];
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = a_rows[r][k0 + k];
                    for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out_rows[r * n + j0..r * n + j0 + TILE_NR].copy_from_slice(acc_row);
            }
            j0 += TILE_NR;
        }
        // Ragged column tail narrower than one tile.
        if j0 < n {
            let w = n - j0;
            let mut acc = [[0.0f64; TILE_NR]; R];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                acc_row[..w].copy_from_slice(&out_rows[r * n + j0..r * n + n]);
            }
            for k in 0..k_len {
                let b_row = &b.row(k0 + k)[j0..];
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let av = a_rows[r][k0 + k];
                    for (o, &bv) in acc_row[..w].iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate() {
                out_rows[r * n + j0..r * n + n].copy_from_slice(&acc_row[..w]);
            }
        }
        k0 += k_len;
        if k0 >= k_dim {
            break;
        }
    }
}

/// The gram microkernel: accumulates the `R`-row × `w`-column output tile at
/// `(j0, l0)` of `rowsᵀ rows` into `partial`, where `rows` is a chunk of
/// row-major `d`-wide rows.
///
/// The tile's accumulators stay in registers while all chunk rows stream
/// through once; rows are visited in ascending order per tile, so each
/// output element accumulates its per-row terms in the same order as the
/// scalar kernel.
fn gram_tile<const R: usize>(
    rows: &[f64],
    d: usize,
    j0: usize,
    l0: usize,
    w: usize,
    partial: &mut Matrix,
) {
    let mut acc = [[0.0f64; TILE_NR]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row[..w].copy_from_slice(&partial.row(j0 + r)[l0..l0 + w]);
    }
    if w == TILE_NR {
        for row in rows.chunks_exact(d) {
            let b_row = &row[l0..l0 + TILE_NR];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = row[j0 + r];
                for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    } else {
        for row in rows.chunks_exact(d) {
            let b_row = &row[l0..l0 + w];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = row[j0 + r];
                for (o, &bv) in acc_row[..w].iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        partial.row_mut(j0 + r)[l0..l0 + w].copy_from_slice(&acc_row[..w]);
    }
}

/// Accumulates one chunk of rows into an upper-triangle-only partial Gram
/// matrix using [`gram_tile`] register tiles; only tiles whose column range
/// reaches the diagonal are computed (the mirror happens once after the
/// chunk fold).
fn gram_chunk(a: &Matrix, range: std::ops::Range<usize>, partial: &mut Matrix) {
    let d = a.cols;
    let rows = &a.data[range.start * d..range.end * d];
    let mut j0 = 0;
    while j0 < d {
        let height = TILE_MR.min(d - j0);
        // Start at the tile column containing the diagonal element (j0, j0).
        let mut l0 = (j0 / TILE_NR) * TILE_NR;
        while l0 < d {
            let w = TILE_NR.min(d - l0);
            match height {
                4 => gram_tile::<4>(rows, d, j0, l0, w, partial),
                3 => gram_tile::<3>(rows, d, j0, l0, w, partial),
                2 => gram_tile::<2>(rows, d, j0, l0, w, partial),
                _ => gram_tile::<1>(rows, d, j0, l0, w, partial),
            }
            l0 += TILE_NR;
        }
        j0 += height;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construct_and_index() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn identity_and_diagonal() {
        let eye = Matrix::identity(3);
        assert_eq!(eye.trace(), 3.0);
        assert_eq!(eye.diagonal(), vec![1.0, 1.0, 1.0]);
        let d = Matrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(1, 1), 3.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = a.transpose();
        let p = a.matmul(&b).unwrap();
        // [[14, 32], [32, 77]]
        assert!(p.approx_eq(
            &Matrix::from_rows(&[vec![14.0, 32.0], vec![32.0, 77.0]]).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = sample();
        let p = a.matmul(&Matrix::identity(3)).unwrap();
        assert!(p.approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 0.0, 0.0]).unwrap(), vec![1.0, 4.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0]).is_err());
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let sum = a.add(&a).unwrap();
        assert_eq!(sum.get(1, 2), 12.0);
        let diff = a.sub(&a).unwrap();
        assert_eq!(diff.frobenius_norm(), 0.0);
        assert!(a.add(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn scale_map_and_diag_update() {
        let a = sample();
        assert_eq!(a.scale(2.0).get(0, 0), 2.0);
        assert_eq!(a.map(|x| x + 1.0).get(0, 0), 2.0);
        let mut sq = Matrix::identity(2);
        sq.add_diagonal(0.5);
        assert_eq!(sq.get(0, 0), 1.5);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = sample();
        let r = a.select_rows(&[1]).unwrap();
        assert_eq!(r.shape(), (1, 3));
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        let c = a.select_cols(&[2, 0]).unwrap();
        assert_eq!(c.row(0), &[3.0, 1.0]);
        assert!(a.select_rows(&[5]).is_err());
        assert!(a.select_cols(&[5]).is_err());
    }

    #[test]
    fn stacking() {
        let a = sample();
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 3));
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.get(0, 3), 1.0);
        assert!(a.vstack(&Matrix::zeros(1, 2)).is_err());
        assert!(a.hstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = sample();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        m.symmetrize();
        assert_eq!(m.get(0, 1), m.get(1, 0));
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn from_fn_builds_expected() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(1, 1), 11.0);
    }

    #[test]
    fn to_rows_roundtrips_from_rows() {
        let m = sample();
        let rows = m.to_rows();
        assert_eq!(rows, vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert!(Matrix::from_rows(&rows).unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn rows_chunks_cover_the_buffer() {
        let m = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let chunks: Vec<&[f64]> = m.rows_chunks(2).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].len(), 6);
        assert_eq!(chunks[2].len(), 3);
        assert_eq!(chunks[1][0], 6.0);
    }

    #[test]
    fn axpy_and_column_sums() {
        let mut a = sample();
        let b = sample();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.get(1, 2), 18.0);
        assert!(a.axpy(1.0, &Matrix::zeros(1, 1)).is_err());
        assert_eq!(sample().column_sums(), vec![5.0, 7.0, 9.0]);
        assert_eq!(Matrix::zeros(0, 2).column_sums(), vec![0.0, 0.0]);
    }

    #[test]
    fn byte_round_trip_is_bit_exact() {
        let m = Matrix::from_fn(7, 5, |i, j| ((i * 5 + j) as f64 * 0.37).sin() * 1e-3);
        let bytes = m.to_bytes();
        let back = Matrix::from_bytes(&bytes).unwrap();
        assert_eq!(back.shape(), m.shape());
        assert_eq!(back.as_slice(), m.as_slice());
        // Empty matrices round-trip too.
        let empty = Matrix::zeros(0, 3);
        assert_eq!(
            Matrix::from_bytes(&empty.to_bytes()).unwrap().shape(),
            (0, 3)
        );
    }

    #[test]
    fn from_bytes_rejects_corruption_and_truncation() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Matrix::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut corrupted = bytes.clone();
        corrupted[bytes.len() / 2] ^= 0x10;
        assert!(Matrix::from_bytes(&corrupted).is_err());
        // A shape that disagrees with the stored data length is rejected
        // even with a valid frame.
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::MATRIX);
        enc.usize(2).usize(3).f64_slice(&[1.0; 5]);
        assert!(matches!(
            Matrix::from_bytes(&enc.finish()),
            Err(p3gm_store::StoreError::Invalid { .. })
        ));
    }

    #[test]
    fn parallel_kernels_are_bit_identical_across_thread_counts() {
        let a = Matrix::from_fn(67, 41, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.37 - 1.1);
        let b = Matrix::from_fn(41, 29, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.23 - 0.7);
        let reference =
            p3gm_parallel::with_threads(1, || (a.matmul(&b).unwrap(), a.gram(), a.column_sums()));
        for threads in [2, 4, 8] {
            let (product, gram, sums) = p3gm_parallel::with_threads(threads, || {
                (a.matmul(&b).unwrap(), a.gram(), a.column_sums())
            });
            assert_eq!(product.as_slice(), reference.0.as_slice());
            assert_eq!(gram.as_slice(), reference.1.as_slice());
            assert_eq!(sums, reference.2);
        }
    }
}
