//! Feature scaling.
//!
//! The P3GM pipeline scales tabular features into `[0, 1]`, so the
//! decoder's Bernoulli likelihood applies and DP-PCA's unit-ball assumption
//! is easy to satisfy.

use crate::{PreprocessError, Result};
use p3gm_linalg::{stats, Matrix};

/// Scales every feature into `[0, 1]` via `(x − min) / (max − min)`.
///
/// Constant features map to 0.5. `inverse_transform` restores the original
/// units.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler on the rows of `data`.
    pub fn fit(data: &Matrix) -> Result<Self> {
        let (mins, maxs) = stats::column_min_max(data)
            .map_err(|e| PreprocessError::InvalidData { msg: e.to_string() })?;
        Ok(MinMaxScaler { mins, maxs })
    }

    /// Per-feature minima observed at fit time.
    pub fn mins(&self) -> &[f64] {
        &self.mins
    }

    /// Per-feature maxima observed at fit time.
    pub fn maxs(&self) -> &[f64] {
        &self.maxs
    }

    /// Transforms one row into `[0, 1]` (values outside the fitted range are
    /// clamped).
    pub fn transform_row(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.check_width(x.len())?;
        Ok(x.iter()
            .zip(self.mins.iter().zip(self.maxs.iter()))
            .map(|(&v, (&lo, &hi))| {
                if hi > lo {
                    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else {
                    0.5
                }
            })
            .collect())
    }

    /// Transforms every row of a matrix (parallel over row chunks).
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        self.check_width(data.cols())?;
        Ok(map_rows(data, |r, out| {
            for ((o, &v), (&lo, &hi)) in out
                .iter_mut()
                .zip(r.iter())
                .zip(self.mins.iter().zip(self.maxs.iter()))
            {
                *o = if hi > lo {
                    ((v - lo) / (hi - lo)).clamp(0.0, 1.0)
                } else {
                    0.5
                };
            }
        }))
    }

    /// Maps a `[0, 1]` row back to the original units.
    pub fn inverse_transform_row(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.check_width(x.len())?;
        Ok(x.iter()
            .zip(self.mins.iter().zip(self.maxs.iter()))
            .map(|(&v, (&lo, &hi))| {
                if hi > lo {
                    lo + v.clamp(0.0, 1.0) * (hi - lo)
                } else {
                    lo
                }
            })
            .collect())
    }

    /// Inverse-transforms every row of a matrix (parallel over row chunks).
    pub fn inverse_transform(&self, data: &Matrix) -> Result<Matrix> {
        self.check_width(data.cols())?;
        Ok(map_rows(data, |r, out| {
            for ((o, &v), (&lo, &hi)) in out
                .iter_mut()
                .zip(r.iter())
                .zip(self.mins.iter().zip(self.maxs.iter()))
            {
                *o = if hi > lo {
                    lo + v.clamp(0.0, 1.0) * (hi - lo)
                } else {
                    lo
                };
            }
        }))
    }

    fn check_width(&self, len: usize) -> Result<()> {
        if len != self.mins.len() {
            return Err(PreprocessError::InvalidData {
                msg: format!("expected {} features, got {}", self.mins.len(), len),
            });
        }
        Ok(())
    }

    /// Serializes the fitted scaler into a framed `p3gm-store` buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::MIN_MAX_SCALER);
        enc.f64_slice(&self.mins).f64_slice(&self.maxs);
        enc.finish()
    }

    /// Deserializes a scaler from a buffer produced by
    /// [`MinMaxScaler::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<MinMaxScaler> {
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::MIN_MAX_SCALER)?;
        let mins = dec.f64_vec()?;
        let maxs = dec.f64_vec()?;
        dec.finish()?;
        if mins.len() != maxs.len() || mins.is_empty() {
            return Err(p3gm_store::StoreError::Invalid {
                msg: format!(
                    "min/max vectors of lengths {}/{} do not form a scaler",
                    mins.len(),
                    maxs.len()
                ),
            });
        }
        if mins.iter().chain(maxs.iter()).any(|v| !v.is_finite()) {
            return Err(p3gm_store::StoreError::Invalid {
                msg: "scaler bounds must be finite".to_string(),
            });
        }
        Ok(MinMaxScaler { mins, maxs })
    }
}

/// Applies an infallible per-row kernel `f(input_row, output_row)` to every
/// row, filling a fresh output matrix on parallel row chunks (callers
/// validate widths up front). Rows are independent, so the result is
/// bit-identical for every thread count.
fn map_rows(data: &Matrix, f: impl Fn(&[f64], &mut [f64]) + Sync) -> Matrix {
    let cols = data.cols();
    let mut out = Matrix::zeros(data.rows(), cols);
    let rows_per_chunk = p3gm_parallel::default_chunk_len(data.rows());
    p3gm_parallel::par_chunks_mut(
        out.as_mut_slice(),
        rows_per_chunk * cols.max(1),
        |chunk_index, out_chunk| {
            let base = chunk_index * rows_per_chunk;
            for (local, out_row) in out_chunk.chunks_mut(cols.max(1)).enumerate() {
                f(data.row(base + local), out_row);
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 10.0, 5.0],
            vec![2.0, 20.0, 5.0],
            vec![4.0, 40.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let scaler = MinMaxScaler::fit(&data()).unwrap();
        let t = scaler.transform(&data()).unwrap();
        let (mins, maxs) = stats_minmax(&t);
        assert!(mins.iter().all(|&m| m >= 0.0));
        assert!(maxs.iter().all(|&m| m <= 1.0));
        assert_eq!(t.get(0, 0), 0.0);
        assert_eq!(t.get(2, 0), 1.0);
        // Constant feature maps to 0.5.
        assert_eq!(t.get(1, 2), 0.5);
        assert_eq!(scaler.mins()[1], 10.0);
        assert_eq!(scaler.maxs()[1], 40.0);
    }

    #[test]
    fn minmax_roundtrip() {
        let scaler = MinMaxScaler::fit(&data()).unwrap();
        let t = scaler.transform(&data()).unwrap();
        let back = scaler.inverse_transform(&t).unwrap();
        for (orig, rec) in data().row_iter().zip(back.row_iter()) {
            // Constant columns lose information (come back as the min).
            assert!((orig[0] - rec[0]).abs() < 1e-12);
            assert!((orig[1] - rec[1]).abs() < 1e-12);
            assert!((rec[2] - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn minmax_clamps_out_of_range() {
        let scaler = MinMaxScaler::fit(&data()).unwrap();
        let t = scaler.transform_row(&[-10.0, 100.0, 5.0]).unwrap();
        assert_eq!(t[0], 0.0);
        assert_eq!(t[1], 1.0);
        assert!(scaler.transform_row(&[1.0]).is_err());
        assert!(scaler.inverse_transform_row(&[1.0]).is_err());
    }

    #[test]
    fn byte_round_trips_are_bit_exact() {
        let minmax = MinMaxScaler::fit(&data()).unwrap();
        let back = MinMaxScaler::from_bytes(&minmax.to_bytes()).unwrap();
        assert_eq!(back.mins(), minmax.mins());
        assert_eq!(back.maxs(), minmax.maxs());

        // Truncation and cross-type confusion are typed errors.
        let bytes = minmax.to_bytes();
        assert!(MinMaxScaler::from_bytes(&bytes[..10]).is_err());
        let other = p3gm_store::Encoder::new(p3gm_store::tags::MATRIX).finish();
        assert!(matches!(
            MinMaxScaler::from_bytes(&other),
            Err(p3gm_store::StoreError::WrongTag { .. })
        ));
    }

    #[test]
    fn fitting_empty_data_fails() {
        assert!(MinMaxScaler::fit(&Matrix::zeros(0, 2)).is_err());
    }

    fn stats_minmax(m: &Matrix) -> (Vec<f64>, Vec<f64>) {
        stats::column_min_max(m).unwrap()
    }

    use p3gm_linalg::stats;
}
