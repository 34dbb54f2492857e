//! Compressed-sparse-row matrices with a deterministic accumulation
//! contract.
//!
//! The paper's measurement matrix factors as `A = G·Σ` where `G` (paths ×
//! segments) and `Σ` (segments × variation variables) are both naturally
//! block-sparse: a path touches few segments and a segment's gates sit in
//! few variation regions. [`SparseMatrix`] keeps that structure end-to-end
//! so the 100k-gate pipeline never materialises an `n×n_vars` dense array.
//!
//! # Determinism contract
//!
//! Every operation here is bit-identical at any `PATHREP_THREADS` setting:
//!
//! * Parallelism only ever splits **output rows** into contiguous chunks
//!   (`pathrep_par::for_each_unit_chunk_mut` / `map_indexed`), so each
//!   output element is written by exactly one worker.
//! * Each output element accumulates its terms in a fixed order — CSR
//!   column order for `matvec`, `k`-ascending for the products — which is
//!   the same order the dense kernels in [`crate::matrix`] use (their
//!   `i-k-j` loops skip explicit zeros), so sparse results match the dense
//!   ones bit-for-bit on identical inputs.
//! * Model-based work counters ([`pathrep_obs::work`]) are computed from
//!   `nnz` and the shapes alone and recorded once, up front — identical
//!   across thread counts by construction.
//!
//! # Canonical-zero policy
//!
//! Stored values are dropped iff they compare equal to zero (`v == 0.0`,
//! which drops both `+0.0` and `-0.0` — IEEE 754 compares them equal).
//! NaN never compares equal to zero and is therefore always **kept**: a
//! poisoned accumulation stays visible in the structure instead of
//! silently vanishing. This is the same policy as `pathrep-ssta`'s
//! `SparseVec`, so nnz-dependent work counters agree between the two
//! layers for algebraically equal inputs.

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// The canonical-zero predicate: `true` for `+0.0` and `-0.0`, `false`
/// for everything else including NaN (see the module docs).
#[inline]
pub fn is_canonical_zero(v: f64) -> bool {
    v == 0.0
}

/// A sparse matrix in compressed-sparse-row (CSR) form. Column indices
/// within each row are strictly ascending; stored values follow the
/// module-level canonical-zero policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes row `r`'s slice of
    /// `col_idx`/`vals`; length `rows + 1`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate `(row, col)` entries are summed **in input order** (the
    /// sort is stable), so the accumulation order is part of the API: two
    /// calls with the same triplet sequence produce bit-identical values.
    /// Merged sums that are canonical zeros are dropped.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] when a triplet indexes outside
    /// `rows × cols`.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        if triplets.iter().any(|&(r, c, _)| r >= rows || c >= cols) {
            return Err(LinalgError::InvalidArgument {
                what: "sparse triplet index out of bounds",
            });
        }
        let mut sorted = triplets.to_vec();
        // Stable by (row, col): duplicates keep their input order so the
        // merge below sums them in input order.
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut vals = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let (r, c, mut v) = sorted[i];
            i += 1;
            while i < sorted.len() && sorted[i].0 == r && sorted[i].1 == c {
                v += sorted[i].2;
                i += 1;
            }
            if !is_canonical_zero(v) {
                row_ptr[r + 1] += 1;
                col_idx.push(c);
                vals.push(v);
            }
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// Compresses a dense matrix, dropping canonical zeros.
    pub fn from_dense(a: &Matrix) -> Self {
        let (rows, cols) = a.shape();
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for r in 0..rows {
            for (c, &v) in a.row(r).iter().enumerate() {
                if !is_canonical_zero(v) {
                    col_idx.push(c);
                    vals.push(v);
                }
            }
            row_ptr[r + 1] = col_idx.len();
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Expands to a dense matrix (absent entries become `+0.0`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let row = out.row_mut(r);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                row[self.col_idx[k]] = self.vals[k];
            }
        }
        out
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Fraction of entries that are stored; 0 for an empty shape.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Row `r`'s `(column indices, values)` slices, columns ascending.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows()`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.vals[span])
    }

    /// The stored value at `(r, c)`, or `0.0` when absent.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Frobenius norm; sequential sum in storage order (deterministic).
    pub fn norm_fro(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Diagonal of `A·Aᵀ` — per-row squared norms, each accumulated in
    /// CSR column order. This is the Gram diagonal the sketched predictor
    /// needs without ever forming the `n×n` Gram matrix.
    pub fn gram_diag(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| {
                let (_, vals) = self.row(r);
                vals.iter().map(|v| v * v).sum()
            })
            .collect()
    }

    /// Transpose (CSC view materialised as CSR of `Aᵀ`). The counting
    /// pass scans rows in order, so within each transposed row the
    /// entries appear in ascending (new) column order — deterministic and
    /// already canonical.
    pub fn transpose(&self) -> Self {
        let nnz = self.nnz();
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let dst = cursor[c];
                cursor[c] += 1;
                col_idx[dst] = r;
                vals[dst] = self.vals[k];
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Extracts rows `idx` as a dense `idx.len() × cols` matrix (the
    /// reduced blocks Algorithm 2 hands to the predictor are small and
    /// dense by nature).
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] on an out-of-range index.
    pub fn select_rows_dense(&self, idx: &[usize]) -> Result<Matrix> {
        if idx.iter().any(|&r| r >= self.rows) {
            return Err(LinalgError::InvalidArgument {
                what: "row selection index out of bounds",
            });
        }
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            let row = out.row_mut(i);
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                row[self.col_idx[k]] = self.vals[k];
            }
        }
        Ok(out)
    }

    /// Sparse matrix–vector product `y = A·x`.
    ///
    /// Each `y[r]` accumulates in CSR column order; rows are chunked
    /// across workers, so the result is bit-identical at any thread
    /// count. Work model: `2·nnz` flops, `8·(3·nnz + rows)` bytes
    /// (values + indices + gathered `x` + streamed `y`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `x.len() != ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "spmv",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        let _span = pathrep_obs::span!("spmv");
        let nnz = self.nnz() as u64;
        let rows = self.rows as u64;
        pathrep_obs::work::record("spmv", 2 * nnz, 8 * (3 * nnz + rows), nnz + rows);
        let mut y = vec![0.0f64; self.rows];
        if self.rows == 0 {
            return Ok(y);
        }
        let row_flops = 2 * (self.nnz() / self.rows).max(1);
        pathrep_par::for_each_unit_chunk_mut(&mut y, 1, row_flops, |first, chunk| {
            for (i, yi) in chunk.iter_mut().enumerate() {
                let r = first + i;
                let mut acc = 0.0;
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    acc += self.vals[k] * x[self.col_idx[k]];
                }
                *yi = acc;
            }
        });
        Ok(y)
    }

    /// Sparse × dense product `C = A·B` (`m×k` CSR times `k×n` dense,
    /// dense result).
    ///
    /// Output rows are chunked across workers; each `C[r, j]` accumulates
    /// over `A`'s row-`r` entries in CSR (k-ascending) order — the same
    /// order as the dense `i-k-j` matmul with its explicit-zero skip, so
    /// the product is bit-identical to [`Matrix::matmul`] on the dense
    /// expansion. Work model: `2·nnz·n` flops.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on an inner-dimension mismatch;
    /// [`LinalgError::Empty`] when either operand has a zero dimension.
    pub fn matmul_dense(&self, b: &Matrix) -> Result<Matrix> {
        let (bk, bn) = b.shape();
        if bk != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm",
                lhs: (self.rows, self.cols),
                rhs: (bk, bn),
            });
        }
        if self.rows == 0 || self.cols == 0 || bn == 0 {
            return Err(LinalgError::Empty);
        }
        let _span = pathrep_obs::span!("spmm");
        let nnz = self.nnz() as u64;
        let (bn_u, rows_u) = (bn as u64, self.rows as u64);
        pathrep_obs::work::record(
            "spmm",
            2 * nnz * bn_u,
            8 * (2 * nnz + nnz * bn_u + rows_u * bn_u),
            nnz + rows_u * bn_u,
        );
        let mut c = Matrix::zeros(self.rows, bn);
        let row_flops = 2 * (self.nnz() / self.rows).max(1) * bn;
        pathrep_par::for_each_unit_chunk_mut(c.as_mut_slice(), bn, row_flops, |first, chunk| {
            for (local, crow) in chunk.chunks_mut(bn).enumerate() {
                let r = first + local;
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    let v = self.vals[k];
                    let brow = b.row(self.col_idx[k]);
                    for (cj, bj) in crow.iter_mut().zip(brow) {
                        *cj += v * bj;
                    }
                }
            }
        });
        Ok(c)
    }

    /// Dense × sparse product `C = L·A` (`p×m` dense times `m×k` CSR,
    /// dense result) — the `QᵀA` step of the sketched SVD.
    ///
    /// Output rows are chunked across workers; each `C[i, c]`
    /// accumulates over `j` ascending (skipping `L[i, j] == 0.0` exactly
    /// like the dense matmul skips explicit zeros), so the result is
    /// bit-identical to [`Matrix::matmul`] on the dense expansion. Work
    /// model: `2·p·nnz` flops.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on an inner-dimension mismatch;
    /// [`LinalgError::Empty`] when either operand has a zero dimension.
    pub fn premul_dense(&self, l: &Matrix) -> Result<Matrix> {
        let (p, lm) = l.shape();
        if lm != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm",
                lhs: (p, lm),
                rhs: (self.rows, self.cols),
            });
        }
        if p == 0 || self.rows == 0 || self.cols == 0 {
            return Err(LinalgError::Empty);
        }
        let _span = pathrep_obs::span!("spmm");
        let nnz = self.nnz() as u64;
        let (p_u, cols_u) = (p as u64, self.cols as u64);
        pathrep_obs::work::record(
            "spmm",
            2 * p_u * nnz,
            8 * (2 * nnz + p_u * nnz + p_u * cols_u),
            nnz + p_u * cols_u,
        );
        let mut c = Matrix::zeros(p, self.cols);
        let row_flops = 2 * self.nnz();
        pathrep_par::for_each_unit_chunk_mut(c.as_mut_slice(), self.cols, row_flops, |first, chunk| {
            for (local, crow) in chunk.chunks_mut(self.cols).enumerate() {
                let i = first + local;
                let lrow = l.row(i);
                for (r, &lv) in lrow.iter().enumerate() {
                    if lv == 0.0 {
                        continue;
                    }
                    for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                        crow[self.col_idx[k]] += lv * self.vals[k];
                    }
                }
            }
        });
        Ok(c)
    }

    /// Sparse × sparse product `C = A·B`, both CSR — the `A = G·Σ`
    /// assembly step.
    ///
    /// Each output row gathers its partial products in `k`-ascending
    /// order, stable-sorts by column (duplicates keep the `k` order), and
    /// merges — so every `C[i, j]` accumulates in exactly the dense
    /// `i-k-j` order and the product matches [`Matrix::matmul`] on the
    /// dense expansions bit-for-bit (modulo entries that merge to a
    /// canonical zero, which are dropped here and `+0.0` there). Rows are
    /// computed by `pathrep_par::map_indexed`, which returns them in row
    /// order regardless of thread count.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on an inner-dimension mismatch.
    pub fn matmul_sparse(&self, b: &SparseMatrix) -> Result<SparseMatrix> {
        if self.cols != b.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "spmm",
                lhs: (self.rows, self.cols),
                rhs: (b.rows, b.cols),
            });
        }
        let _span = pathrep_obs::span!("spmm");
        // Deterministic work model: one multiply-add per partial product.
        let products: u64 = self
            .col_idx
            .iter()
            .map(|&c| (b.row_ptr[c + 1] - b.row_ptr[c]) as u64)
            .sum();
        pathrep_obs::work::record(
            "spmm",
            2 * products,
            8 * (2 * (self.nnz() as u64 + b.nnz() as u64) + 2 * products),
            products,
        );
        let row_flops = 2 * (products as usize / self.rows.max(1)).max(1);
        let built: Vec<(Vec<usize>, Vec<f64>)> =
            pathrep_par::map_indexed(self.rows, row_flops, |r| {
                let mut pairs: Vec<(usize, f64)> = Vec::new();
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    let v = self.vals[k];
                    let mid = self.col_idx[k];
                    for kb in b.row_ptr[mid]..b.row_ptr[mid + 1] {
                        pairs.push((b.col_idx[kb], v * b.vals[kb]));
                    }
                }
                // Stable: duplicate columns keep k-ascending order.
                pairs.sort_by_key(|&(c, _)| c);
                let mut cols_out = Vec::new();
                let mut vals_out = Vec::new();
                let mut it = pairs.into_iter();
                if let Some((mut cc, mut cv)) = it.next() {
                    for (c2, v2) in it {
                        if c2 == cc {
                            cv += v2;
                        } else {
                            if !is_canonical_zero(cv) {
                                cols_out.push(cc);
                                vals_out.push(cv);
                            }
                            cc = c2;
                            cv = v2;
                        }
                    }
                    if !is_canonical_zero(cv) {
                        cols_out.push(cc);
                        vals_out.push(cv);
                    }
                }
                (cols_out, vals_out)
            });
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        for (rc, rv) in built {
            col_idx.extend_from_slice(&rc);
            vals.extend_from_slice(&rv);
            row_ptr.push(col_idx.len());
        }
        Ok(SparseMatrix {
            rows: self.rows,
            cols: b.cols,
            row_ptr,
            col_idx,
            vals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).expect("test matrix")
    }

    #[test]
    fn from_triplets_merges_duplicates_in_input_order() {
        let a = SparseMatrix::from_triplets(2, 3, &[(1, 2, 0.5), (0, 0, 1.0), (1, 2, 0.25)])
            .expect("valid triplets");
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 2), 0.75);
        let (cols, _) = a.row(1);
        assert_eq!(cols, &[2]);
    }

    #[test]
    fn canonical_zero_policy_drops_both_signed_zeros_and_cancellations() {
        let a = SparseMatrix::from_triplets(
            1,
            4,
            &[(0, 0, 0.0), (0, 1, -0.0), (0, 2, 2.0), (0, 2, -2.0), (0, 3, 1.0)],
        )
        .expect("valid triplets");
        // +0.0, -0.0 and the exact cancellation all canonicalise away.
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 3), 1.0);
    }

    #[test]
    fn canonical_zero_policy_keeps_nan_visible() {
        let a = SparseMatrix::from_triplets(1, 2, &[(0, 0, f64::NAN)]).expect("valid triplets");
        assert_eq!(a.nnz(), 1, "NaN must not be silently dropped");
        assert!(a.get(0, 0).is_nan());
    }

    #[test]
    fn out_of_bounds_triplet_is_rejected() {
        let err = SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidArgument { .. }));
    }

    #[test]
    fn dense_round_trip_preserves_values() {
        let d = dense(&[&[1.0, 0.0, 3.0], &[0.0, 0.0, 0.0], &[-2.0, 4.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 4);
        assert!(s.to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn transpose_round_trips_and_sorts_columns() {
        let d = dense(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        let t = s.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert!(t.to_dense().approx_eq(&d.transpose(), 0.0));
        assert!(t.transpose().to_dense().approx_eq(&d, 0.0));
    }

    #[test]
    fn matvec_matches_dense_bitwise() {
        let d = dense(&[&[1.5, 0.0, -2.0], &[0.0, 0.25, 4.0], &[3.0, 0.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        let x = [0.5, -1.0, 2.25];
        let ys = s.matvec(&x).expect("spmv");
        let yd = d.matvec(&x).expect("dense matvec");
        for (a, b) in ys.iter().zip(&yd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matvec_rejects_length_mismatch() {
        let s = SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).expect("valid");
        assert!(matches!(
            s.matvec(&[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch { op: "spmv", .. })
        ));
    }

    #[test]
    fn matmul_dense_matches_dense_bitwise() {
        let d = dense(&[&[1.0, 0.0, 2.0], &[0.0, -3.0, 0.5]]);
        let b = dense(&[&[0.5, 1.0], &[2.0, -1.0], &[0.25, 3.0]]);
        let s = SparseMatrix::from_dense(&d);
        let cs = s.matmul_dense(&b).expect("spmm");
        let cd = d.matmul(&b).expect("dense matmul");
        for (a, b) in cs.as_slice().iter().zip(cd.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn premul_dense_matches_dense_bitwise() {
        let d = dense(&[&[1.0, 0.0, 2.0], &[0.0, -3.0, 0.5], &[4.0, 0.0, 0.0]]);
        let l = dense(&[&[0.5, 0.0, 2.0], &[1.0, -1.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        let cs = s.premul_dense(&l).expect("premul");
        let cd = l.matmul(&d).expect("dense matmul");
        for (a, b) in cs.as_slice().iter().zip(cd.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matmul_sparse_matches_dense() {
        let g = dense(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]);
        let sig = dense(&[&[0.5, 0.0, 0.0, 2.0], &[0.0, 1.5, 0.0, 0.0], &[0.25, 0.0, -1.0, 0.0]]);
        let a = SparseMatrix::from_dense(&g)
            .matmul_sparse(&SparseMatrix::from_dense(&sig))
            .expect("sparse product");
        let ad = g.matmul(&sig).expect("dense product");
        assert!(a.to_dense().approx_eq(&ad, 0.0));
    }

    #[test]
    fn matmul_sparse_shape_mismatch() {
        let a = SparseMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).expect("valid");
        let b = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).expect("valid");
        assert!(matches!(
            a.matmul_sparse(&b),
            Err(LinalgError::ShapeMismatch { op: "spmm", .. })
        ));
    }

    #[test]
    fn gram_diag_matches_row_norms() {
        let d = dense(&[&[3.0, 0.0, 4.0], &[0.0, 2.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.gram_diag(), vec![25.0, 4.0]);
        assert_eq!(s.norm_fro(), 29.0f64.sqrt());
    }

    #[test]
    fn select_rows_dense_extracts_and_validates() {
        let d = dense(&[&[1.0, 0.0], &[0.0, 2.0], &[3.0, 4.0]]);
        let s = SparseMatrix::from_dense(&d);
        let sel = s.select_rows_dense(&[2, 0]).expect("valid selection");
        assert!(sel.approx_eq(&dense(&[&[3.0, 4.0], &[1.0, 0.0]]), 0.0));
        assert!(matches!(
            s.select_rows_dense(&[3]),
            Err(LinalgError::InvalidArgument { .. })
        ));
    }
}
