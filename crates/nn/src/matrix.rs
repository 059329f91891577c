//! Row-major matrices sized for 256-unit MLPs, with the plain scalar
//! products the per-sample reference [`crate::Mlp::forward`] /
//! [`crate::Mlp::backward`] run.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub(crate) fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// `y = W x` for a column vector `x` (length = cols): a strict-order
    /// dot product per row. A layer stores `Wᵀ`, so on a layer's weights
    /// this is the per-sample backward's hand-off `δ·W`; the batched
    /// hand-off [`crate::simd::gemm_rt`] is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| {
                let mut acc = 0.0;
                for (w, xi) in row.iter().zip(x) {
                    acc += w * xi;
                }
                acc
            })
            .collect()
    }

    /// `y = Wᵀ x` for a column vector `x` (length = rows): each output
    /// accumulates over rows in ascending order, as the batched forward
    /// [`crate::simd::gemm_kt`] does.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub(crate) fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (row, &xr) in self.data.chunks_exact(self.cols).zip(x) {
            for (yi, w) in y.iter_mut().zip(row) {
                *yi += xr * w;
            }
        }
        y
    }

    /// Rank-1 accumulate: `self += a · bᵀ` (outer product), used for
    /// weight gradients.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn add_outer(&mut self, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows);
        assert_eq!(b.len(), self.cols);
        for (row, &ar) in self.data.chunks_exact_mut(self.cols).zip(a) {
            for (r, bi) in row.iter_mut().zip(b) {
                *r += ar * bi;
            }
        }
    }

    /// The `cols × rows` transpose.
    pub(crate) fn transposed(&self) -> Matrix {
        let mut data = vec![0.0; self.data.len()];
        transpose_into(&self.data, self.rows, self.cols, &mut data);
        Matrix {
            rows: self.cols,
            cols: self.rows,
            data,
        }
    }

    /// Raw data slice.
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// `wt[k·rows + n] = w[n·cols + k]`, walked in square tiles: a tile's
/// reads and writes each stay within `TILE` cache lines, where a plain
/// row sweep writes every element of a 256-wide layer to another line
/// (2 KiB apart, a handful of L1 sets).
pub(crate) fn transpose_into(w: &[f64], rows: usize, cols: usize, wt: &mut [f64]) {
    const TILE: usize = 8;
    assert_eq!(w.len(), rows * cols);
    assert_eq!(wt.len(), rows * cols);
    for n0 in (0..rows).step_by(TILE) {
        let n1 = (n0 + TILE).min(rows);
        for k0 in (0..cols).step_by(TILE) {
            let k1 = (k0 + TILE).min(cols);
            for k in k0..k1 {
                let dst = &mut wt[k * rows + n0..k * rows + n1];
                for (d, n) in dst.iter_mut().zip(n0..n1) {
                    *d = w[n * cols + k];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_known_values() {
        let mut m = Matrix::zeros(2, 3);
        // [[1,2,3],[4,5,6]]
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            m.data_mut()[i] = *v;
        }
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(m.data(), &[3.0, 4.0, 6.0, 8.0]);
        m.add_outer(&[1.0, 0.0], &[1.0, 0.0]);
        assert_eq!(m.data(), &[4.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn xavier_bounds_and_determinism() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let a = Matrix::xavier(8, 8, &mut r1);
        let b = Matrix::xavier(8, 8, &mut r2);
        assert_eq!(a, b);
        let bound = (6.0 / 16.0f64).sqrt();
        assert!(a.data().iter().all(|&v| v.abs() <= bound));
        assert!(a.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    #[should_panic]
    fn matvec_dimension_checked() {
        let m = Matrix::zeros(2, 3);
        let _ = m.matvec(&[1.0, 2.0]);
    }
}
