//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` with `L` lower triangular.
///
/// Used for covariance factorizations (Monte-Carlo sampling of correlated
/// variation) and for solving the normal equations of small refit problems.
///
/// # Example
///
/// ```
/// use pathrep_linalg::{Matrix, cholesky::Cholesky};
///
/// # fn main() -> Result<(), pathrep_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::compute(&a)?;
/// let x = ch.solve(&[8.0, 7.0])?;
/// let b = a.matvec(&x)?;
/// assert!((b[0] - 8.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix. Only the lower triangle
    /// of `a` is read.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` has zero size.
    /// * [`LinalgError::NotPositiveDefinite`] if a non-positive pivot occurs.
    pub fn compute(a: &Matrix) -> Result<Self> {
        if a.nrows() == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let _span = pathrep_obs::span!("cholesky");
        let n = a.nrows();
        {
            // Classic i/j/k factorization: n(n+1)(n+2)/3 flops over the
            // lower triangle, reading A's triangle and writing L's.
            let nu = n as u64;
            pathrep_obs::work::record(
                "cholesky",
                nu * (nu + 1) * (nu + 2) / 3,
                8 * nu * (nu + 1),
                nu * (nu + 1),
            );
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { minor: i });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factors `a + jitter·I`, retrying with ×10 larger jitter up to
    /// `attempts` times. Useful for covariance matrices that are positive
    /// semi-definite up to rounding.
    ///
    /// # Errors
    ///
    /// Returns the final [`LinalgError::NotPositiveDefinite`] when all
    /// attempts fail, and shape errors as [`Cholesky::compute`] does.
    pub fn compute_with_jitter(a: &Matrix, jitter: f64, attempts: usize) -> Result<Self> {
        let mut eps = jitter;
        let mut last = Self::compute(a);
        for _ in 0..attempts {
            if last.is_ok() {
                return last;
            }
            let mut aj = a.clone();
            for i in 0..a.nrows() {
                aj[(i, i)] += eps;
            }
            last = Self::compute(&aj);
            eps *= 10.0;
        }
        last
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward then backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a wrong-length right-hand
    /// side.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.nrows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        {
            // Forward + backward substitution: n² flops each pass over
            // the triangle of L, plus the right-hand-side vector.
            let nu = n as u64;
            pathrep_obs::work::record(
                "cholesky",
                2 * nu * nu,
                8 * (nu * (nu + 1) + 2 * nu),
                nu * (nu + 1) + 2 * nu,
            );
        }
        let mut y = b.to_vec();
        // L y = b
        for i in 0..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Computes `L v` (for sampling: turns iid normals into correlated ones).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] on a wrong-length input.
    pub fn l_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        self.l.matvec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let ch = Cholesky::compute(&a).unwrap();
        let back = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
        // Known factor of this classic example.
        assert!((ch.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((ch.l()[(1, 0)] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn solve_matches_direct() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let ch = Cholesky::compute(&a).unwrap();
        let x = ch.solve(&[3.0, 3.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::compute(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 PSD matrix: plain Cholesky fails, jitter succeeds.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::compute(&a).is_err());
        let ch = Cholesky::compute_with_jitter(&a, 1e-12, 8).unwrap();
        let back = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-5));
    }

    #[test]
    fn non_square_rejected() {
        assert!(matches!(
            Cholesky::compute(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
    }
}
