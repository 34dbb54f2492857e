//! Dense row-major matrix type and basic arithmetic.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64`.
///
/// Rows are contiguous in memory, which makes row extraction (the dominant
/// operation in the paper's row-subset selection) free of strided access.
///
/// # Example
///
/// ```
/// use pathrep_linalg::Matrix;
///
/// # fn main() -> Result<(), pathrep_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = a.matmul(&a.transpose())?;
/// assert_eq!(b[(0, 0)], 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows`×`cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a closure `f(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the rows have unequal
    /// lengths, and [`LinalgError::Empty`] if `rows` is empty or the rows
    /// have zero length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(LinalgError::Empty);
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            if r.len() != ncols {
                return Err(LinalgError::ShapeMismatch {
                    op: "from_rows",
                    lhs: (nrows, ncols),
                    rhs: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix that owns `data` laid out row-major.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (1, data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= nrows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let start = i * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Sets column `j` from a slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols()` or `v.len() != nrows()`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.cols && v.len() == self.rows);
        for (i, &x) in v.iter().enumerate() {
            self[(i, j)] = x;
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let r = self.row(i);
            for (j, &x) in r.iter().enumerate() {
                t[(j, i)] = x;
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Uses an i-k-j loop order so the innermost loop walks both operands
    /// contiguously, parallelized over blocks of output rows (every output
    /// row is accumulated start-to-finish by one worker, so the result is
    /// bit-identical at any `PATHREP_THREADS` setting).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when
    /// `self.ncols() != other.nrows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        pathrep_obs::work::record(
            "matmul",
            (2 * m * n * k) as u64,
            (8 * (m * k + k * n + m * n)) as u64,
            (m * k + k * n + m * n) as u64,
        );
        let mut c = Matrix::zeros(self.rows, other.cols);
        let row_flops = 2 * self.cols * other.cols;
        pathrep_par::for_each_unit_chunk_mut(&mut c.data, other.cols, row_flops, |first, block| {
            for (di, c_row) in block.chunks_exact_mut(other.cols).enumerate() {
                let a_row = self.row(first + di);
                for (k, &aik) in a_row.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let b_row = other.row(k);
                    for (cj, &bj) in c_row.iter_mut().zip(b_row.iter()) {
                        *cj += aik * bj;
                    }
                }
            }
        });
        Ok(c)
    }

    /// Computes `self * x` for a vector `x`, parallelized over blocks of
    /// rows (each `y[i]` is one independent dot product, so the result is
    /// bit-identical at any thread count).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let (m, n) = (self.rows, self.cols);
        pathrep_obs::work::record(
            "matvec",
            (2 * m * n) as u64,
            (8 * (m * n + n + m)) as u64,
            (m * n + n + m) as u64,
        );
        let mut y = vec![0.0; self.rows];
        pathrep_par::for_each_unit_chunk_mut(&mut y, 1, 2 * self.cols, |first, block| {
            for (di, yi) in block.iter_mut().enumerate() {
                *yi = crate::vecops::dot(self.row(first + di), x);
            }
        });
        Ok(y)
    }

    /// Computes `selfᵀ * x` without forming the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != nrows()`.
    pub fn matvec_t(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_t",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        let (m, n) = (self.rows, self.cols);
        pathrep_obs::work::record(
            "matvec",
            (2 * m * n) as u64,
            (8 * (m * n + n + m)) as u64,
            (m * n + n + m) as u64,
        );
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (yj, &aij) in y.iter_mut().zip(self.row(i).iter()) {
                *yj += xi * aij;
            }
        }
        Ok(y)
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on unequal shapes.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on unequal shapes.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Builds a new matrix from the given row indices of `self`, in order.
    ///
    /// Duplicate indices are allowed (useful for bootstrap-style uses).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Builds a new matrix from the given column indices of `self`, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (k, &j) in indices.iter().enumerate() {
                dst[k] = src[j];
            }
        }
        out
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = Vec::with_capacity((self.rows + other.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Places `self` to the left of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
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

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (entrywise ∞-norm).
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of entries on the main diagonal.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// `true` when every entry of `self - other` is within `tol` in absolute
    /// value. Shapes must match; mismatched shapes return `false`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  [")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > max_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i.trace(), 3.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn from_vec_checks_len() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_small() {
        let a = sample();
        let b = a.transpose();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 14.0);
        assert_eq!(c[(0, 1)], 32.0);
        assert_eq!(c[(1, 1)], 77.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = sample();
        let i3 = Matrix::identity(3);
        assert!(a.matmul(&i3).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = sample();
        assert!(a.matmul(&a).is_err());
    }

    #[test]
    fn matvec_and_transposed() {
        let a = sample();
        let y = a.matvec(&[1.0, 0.0, -1.0]).unwrap();
        assert_eq!(y, vec![-2.0, -2.0]);
        let z = a.matvec_t(&[1.0, 1.0]).unwrap();
        assert_eq!(z, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = sample();
        let r = a.select_rows(&[1, 0, 1]);
        assert_eq!(r.shape(), (3, 3));
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(r.row(2), &[4.0, 5.0, 6.0]);
        let c = a.select_cols(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
    }

    #[test]
    fn stacking() {
        let a = sample();
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 3));
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h[(1, 5)], 6.0);
        assert!(a.vstack(&a.transpose()).is_err());
        assert!(a.hstack(&a.transpose()).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = sample();
        let s = a.add(&a).unwrap();
        assert!(s.approx_eq(&a.scale(2.0), 1e-15));
        let d = s.sub(&a).unwrap();
        assert!(d.approx_eq(&a, 1e-15));
    }

    #[test]
    fn from_diag_places_entries() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 2)], 3.0);
    }

    #[test]
    fn set_col_writes_column() {
        let mut a = sample();
        a.set_col(1, &[-1.0, -2.0]);
        assert_eq!(a.col(1), vec![-1.0, -2.0]);
    }
}
