//! Row-major matrices sized for 256-unit MLPs.

use crate::simd;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// `y = W x` for a column vector `x` (length = cols).
    ///
    /// The deliberately scalar row-major reference kernel (a strict-order
    /// dot product per row). A layer stores `Wᵀ`, so on a layer's weights
    /// this is the per-sample backward's hand-off `δ·W`; the batched
    /// hand-off [`crate::simd::gemm_rt`] is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
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

    /// `y = Wᵀ x` for a column vector `x` (length = rows).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec_t`] accumulated into a zeroed caller buffer.
    ///
    /// Vectorized across columns; each output element still accumulates
    /// over rows in ascending order, so the result is bit-identical to
    /// the scalar loop at any kernel width.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub(crate) fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "matvec_t output mismatch");
        let width = simd::picked();
        for (row, &xr) in self.data.chunks_exact(self.cols).zip(x) {
            simd::axpy(y, xr, row, width);
        }
    }

    /// Rank-1 accumulate: `self += a · bᵀ` (outer product), used for
    /// weight gradients. Vectorized across columns (independent
    /// elements, so bit-identical at any kernel width).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_outer(&mut self, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows);
        assert_eq!(b.len(), self.cols);
        let width = simd::picked();
        for (row, &ar) in self.data.chunks_exact_mut(self.cols).zip(a) {
            simd::axpy(row, ar, b, width);
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
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill with zeros.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
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
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 8.0);
        m.add_outer(&[1.0, 0.0], &[1.0, 0.0]);
        assert_eq!(m.get(0, 0), 4.0);
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
        assert!(a.norm() > 0.0);
    }

    #[test]
    #[should_panic]
    fn matvec_dimension_checked() {
        let m = Matrix::zeros(2, 3);
        let _ = m.matvec(&[1.0, 2.0]);
    }

    #[test]
    fn map_and_clear() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 1.0], &[1.5, 1.5]);
        assert_eq!(m.data(), &[1.5; 4]);
        m.clear();
        assert_eq!(m.norm(), 0.0);
    }
}
