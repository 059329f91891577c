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
    /// This is the deliberately scalar row-major reference kernel (a
    /// strict-order dot product per row); the SIMD path lives in the
    /// k-major [`crate::SoaMlp`] layout and is bit-identical to this.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec`] into a caller-owned buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        for (yr, row) in y.iter_mut().zip(self.data.chunks_exact(self.cols)) {
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *yr = acc;
        }
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
    fn matvec_t_into(&self, x: &[f64], y: &mut [f64]) {
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
