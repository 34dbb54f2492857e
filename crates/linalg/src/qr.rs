//! Householder QR factorization, with and without column pivoting.
//!
//! QR with column pivoting (Businger–Golub) is the subset-selection engine of
//! the paper's Algorithm 2: applied to `U_rᵀ` (the leading right factor of
//! the SVD), the first `r` pivot columns identify the `r` most linearly
//! independent rows of `A`, i.e. the representative paths.

use crate::vecops;
use crate::{LinalgError, Matrix, Result};

/// Model-based work of one Householder application over a `width`-column
/// panel with reflector length `vlen` (implicit head plus tail):
/// `(flops, bytes, elements)`. Two passes (gather `s = β·Vᵀ·panel`, then
/// the rank-1 update) give `4·width·vlen` flops and two panel traversals.
fn householder_work(width: usize, vlen: usize) -> (u64, u64, u64) {
    let panel = (width * vlen) as u64;
    let vlen = vlen as u64;
    (4 * panel, 16 * panel + 8 * vlen, panel + vlen)
}

/// Householder QR factorization `A·P = Q·R` (P = identity when unpivoted).
///
/// # Example
///
/// ```
/// use pathrep_linalg::{Matrix, qr::Qr};
///
/// # fn main() -> Result<(), pathrep_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]])?;
/// let qr = Qr::compute(&a)?;
/// let back = qr.q_thin().matmul(&qr.r())?;
/// assert!(back.approx_eq(&a, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorization: R in the upper triangle, Householder vectors
    /// (with implicit unit first entry) below the diagonal.
    qr: Matrix,
    /// Householder scalars β_k such that H_k = I − β_k v vᵀ.
    betas: Vec<f64>,
    /// Column permutation: `perm[k]` is the original column index placed at
    /// position `k`.
    perm: Vec<usize>,
}

impl Qr {
    /// Factors `a` without pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty matrix.
    pub fn compute(a: &Matrix) -> Result<Self> {
        Self::factor(a, false)
    }

    /// Factors `a` with Businger–Golub column pivoting, producing a
    /// rank-revealing factorization: `|r_00| ≥ |r_11| ≥ …`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty matrix.
    pub fn compute_pivoted(a: &Matrix) -> Result<Self> {
        Self::factor(a, true)
    }

    fn factor(a: &Matrix, pivot: bool) -> Result<Self> {
        let _span = pathrep_obs::span!("qr_factor");
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        pathrep_obs::counter_add(
            if pivot {
                "linalg.qr.pivoted_calls"
            } else {
                "linalg.qr.calls"
            },
            1,
        );
        let mut qr = a.clone();
        let kmax = m.min(n);
        let mut betas = vec![0.0; kmax];
        let mut perm: Vec<usize> = (0..n).collect();

        // Work accounting: mirror the model counts streamed into
        // `obs::work` so the ledger record can stamp this factorization's
        // own totals (deterministic — never wall-time-derived).
        let mut wk_flops = (2 * m * n) as u64;
        let mut wk_bytes = (8 * m * n) as u64;
        pathrep_obs::work::record("qr_factor", wk_flops, wk_bytes, (m * n) as u64);

        // Squared column norms for pivot choice, down-dated as we go.
        // Accumulated in a row-major sweep (contiguous reads); each entry
        // still sums rows in ascending order, so the values are bit-for-bit
        // those of the classic per-column loop.
        let mut colnorm2 = vec![0.0; n];
        for i in 0..m {
            for (c, &x) in colnorm2.iter_mut().zip(qr.row(i)) {
                *c += x * x;
            }
        }
        let colnorm2_orig = colnorm2.clone();

        for k in 0..kmax {
            if pivot {
                // Pick the remaining column with the largest residual norm.
                let (pj, max) = Self::select_pivot(&colnorm2, k)?;
                // Guard against down-dating drift: recompute when the running
                // value has decayed far below the original.
                if max <= 1e-14 * colnorm2_orig[perm[pj]].max(1.0) {
                    pathrep_obs::counter_add("linalg.qr.norm_recomputes", 1);
                    let panel = ((m - k) * (n - k)) as u64;
                    pathrep_obs::work::record("qr_factor", 2 * panel, 8 * panel, panel);
                    wk_flops += 2 * panel;
                    wk_bytes += 8 * panel;
                    for c in colnorm2[k..].iter_mut() {
                        *c = 0.0;
                    }
                    for i in k..m {
                        let row = &qr.row(i)[k..];
                        for (c, &x) in colnorm2[k..].iter_mut().zip(row) {
                            *c += x * x;
                        }
                    }
                }
                let (pj, _) = Self::select_pivot(&colnorm2, k)?;
                if pj != k {
                    pathrep_obs::counter_add("linalg.qr.pivot_swaps", 1);
                    for i in 0..m {
                        let t = qr[(i, k)];
                        qr[(i, k)] = qr[(i, pj)];
                        qr[(i, pj)] = t;
                    }
                    colnorm2.swap(k, pj);
                    perm.swap(k, pj);
                }
            }

            // Build the Householder reflector for column k.
            let normx = {
                let col: Vec<f64> = (k..m).map(|i| qr[(i, k)]).collect();
                vecops::norm2(&col)
            };
            if normx == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -normx } else { normx };
            let v0 = qr[(k, k)] - alpha;
            // Normalize so the first component of v is implicitly 1.
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            betas[k] = -v0 / alpha;
            qr[(k, k)] = alpha;

            // Apply H_k to the trailing columns.
            let vtail: Vec<f64> = ((k + 1)..m).map(|i| qr[(i, k)]).collect();
            Self::apply_householder(qr.as_mut_slice(), n, k, k + 1, n, betas[k], &vtail);
            if k + 1 < n {
                let (hf, hb, _) = householder_work(n - (k + 1), m - k);
                wk_flops += hf;
                wk_bytes += hb;
            }

            if pivot {
                // Down-date residual column norms.
                for j in (k + 1)..n {
                    let r = qr[(k, j)];
                    colnorm2[j] = (colnorm2[j] - r * r).max(0.0);
                }
            }
        }
        if pivot && pathrep_obs::ledger::collecting() {
            // Rank-revealing diagnostics: the pivot magnitudes |r_kk| decay
            // monotonically; their decay ratio is Algorithm 2's practical
            // conditioning signal for the selected path subset.
            const HEAD: usize = 16;
            let pivots: Vec<f64> = (0..kmax.min(HEAD)).map(|k| qr[(k, k)].abs()).collect();
            let first = (0..kmax).map(|k| qr[(k, k)].abs()).next().unwrap_or(0.0);
            let last = (0..kmax).map(|k| qr[(k, k)].abs()).last().unwrap_or(0.0);
            pathrep_obs::ledger::record("linalg", "qr_pivoted", |f| {
                f.int("rows", m as u64)
                    .int("cols", n as u64)
                    .num("pivot_max", first)
                    .num("pivot_min", last)
                    .num(
                        "pivot_decay",
                        if first > 0.0 { last / first } else { 0.0 },
                    )
                    .nums("pivot_head", &pivots)
                    // Model-based work of this factorization (deterministic,
                    // so t1/t4 ledgers stay byte-identical); achieved
                    // GFLOP/s is wall-time-derived and lives in the
                    // attribution report, never here.
                    .int("work_flops", wk_flops)
                    .int("work_bytes", wk_bytes)
                    .num(
                        "work_intensity",
                        if wk_bytes > 0 {
                            wk_flops as f64 / wk_bytes as f64
                        } else {
                            0.0
                        },
                    );
            });
        }
        Ok(Qr { qr, betas, perm })
    }

    /// Index (absolute) and value of the largest entry of `colnorm2[k..]`.
    /// Ties keep the *last* maximum, matching `Iterator::max_by`, so the
    /// pivot sequence on finite data is unchanged from the historical
    /// implementation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] when any candidate norm is NaN or
    /// infinite — a poisoned norm would make the pivot choice arbitrary, so
    /// the factorization refuses to proceed.
    fn select_pivot(colnorm2: &[f64], k: usize) -> Result<(usize, f64)> {
        let mut best = k;
        let mut best_v = colnorm2[k];
        let mut finite = best_v.is_finite();
        for (off, &v) in colnorm2[k..].iter().enumerate().skip(1) {
            finite &= v.is_finite();
            if vecops::cmp_nan_smallest(v, best_v) != std::cmp::Ordering::Less {
                best = k + off;
                best_v = v;
            }
        }
        if !finite {
            return Err(LinalgError::NonFinite {
                op: "qr pivot selection",
            });
        }
        Ok((best, best_v))
    }

    /// Applies the Householder reflector `H = I − β v vᵀ` — `v` has an
    /// implicit 1 at row `h` and explicit tail `vtail` (rows `h+1..`) — to
    /// columns `j0..j1` of the row-major `data` with row stride `stride`.
    ///
    /// Runs as two row-major sweeps (gather all coefficients
    /// `s_j = β·(vᵀ·col_j)`, then the rank-1 update), parallel over disjoint
    /// column ranges. Per column the accumulation order (rows ascending) is
    /// exactly the classic per-column loop's, so results are bit-identical
    /// at every thread count; workers write disjoint columns and only share
    /// the read-only `vtail`.
    fn apply_householder(
        data: &mut [f64],
        stride: usize,
        h: usize,
        j0: usize,
        j1: usize,
        beta: f64,
        vtail: &[f64],
    ) {
        if beta == 0.0 || j0 >= j1 {
            return;
        }
        let width = j1 - j0;
        let (wf, wb, we) = householder_work(width, vtail.len() + 1);
        pathrep_obs::work::record("qr_factor", wf, wb, we);
        let mut s: Vec<f64> = data[h * stride + j0..h * stride + j1].to_vec();
        // Gather pass: workers own disjoint chunks of `s` and read `data`
        // through a shared borrow — safe slices keep the stride-1 inner
        // loops vectorizable (raw-pointer views would force the compiler
        // to assume `s` aliases `data`).
        {
            let data_ro: &[f64] = data;
            let col_flops = 2 * (vtail.len() + 1);
            pathrep_par::for_each_unit_chunk_mut(&mut s, 1, col_flops, |first, schunk| {
                let len = schunk.len();
                for (di, &vi) in vtail.iter().enumerate() {
                    let row = (h + 1 + di) * stride + j0 + first;
                    for (sj, &x) in schunk.iter_mut().zip(&data_ro[row..row + len]) {
                        *sj += vi * x;
                    }
                }
                for sj in schunk.iter_mut() {
                    *sj *= beta;
                }
            });
        }
        // Update pass: every touched row is written wholly by one worker
        // reading the frozen `s`; per element it is the same single update
        // as the column-partitioned original, so results are bit-identical.
        let rows = &mut data[h * stride..(h + 1 + vtail.len()) * stride];
        pathrep_par::for_each_unit_chunk_mut(rows, stride, 2 * width, |first, block| {
            for (dk, row) in block.chunks_exact_mut(stride).enumerate() {
                let r = first + dk;
                if r == 0 {
                    for (&sj, x) in s.iter().zip(&mut row[j0..j1]) {
                        *x -= sj;
                    }
                } else {
                    let vi = vtail[r - 1];
                    for (&sj, x) in s.iter().zip(&mut row[j0..j1]) {
                        *x -= sj * vi;
                    }
                }
            }
        });
    }

    /// The upper-triangular factor `R` (`min(m,n)` × `n`).
    pub fn r(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let k = m.min(n);
        Matrix::from_fn(k, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// The thin orthogonal factor `Q` (`m` × `min(m,n)`).
    ///
    /// Applies `H_{k-1}`, …, `H_0` to the identity's leading columns. When
    /// `H_h` is applied, columns `< h` are still identity columns with no
    /// entry in rows `h..`, which `H_h` maps to themselves, so only columns
    /// `h..k` are updated (LAPACK `dorg2r`). On finite factors that skips
    /// exact no-ops, bit for bit. A non-finite reflector entry would have
    /// spread NaN into those columns through `0 · ∞`; now it stays out of
    /// them. The sketched SVD, the one library caller, rejects non-finite
    /// input before it factors anything.
    pub fn q_thin(&self) -> Matrix {
        let (m, n) = self.qr.shape();
        let k = m.min(n);
        let mut q = Matrix::from_fn(m, k, |i, j| if i == j { 1.0 } else { 0.0 });
        for h in (0..k).rev() {
            if self.betas[h] == 0.0 {
                continue;
            }
            let vtail: Vec<f64> = ((h + 1)..m).map(|i| self.qr[(i, h)]).collect();
            Self::apply_householder(q.as_mut_slice(), k, h, h, k, self.betas[h], &vtail);
        }
        q
    }

    /// The column permutation. `perm()[k]` is the original index of the
    /// column standing at position `k` of the factored matrix. For the
    /// unpivoted factorization this is the identity.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Numerical rank from the diagonal of R: the count of `|r_kk|` above
    /// `tol * |r_00|`. Only meaningful for the *pivoted* factorization.
    pub fn rank(&self, tol: f64) -> usize {
        let k = self.qr.nrows().min(self.qr.ncols());
        if k == 0 {
            return 0;
        }
        let r00 = self.qr[(0, 0)].abs();
        if r00 == 0.0 {
            return 0;
        }
        (0..k)
            .take_while(|&i| self.qr[(i, i)].abs() > tol * r00)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, -1.0, 4.0],
            &[1.0, 4.0, -2.0],
            &[1.0, 4.0, 2.0],
            &[1.0, -1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn reconstruction_unpivoted() {
        let a = tall();
        let qr = Qr::compute(&a).unwrap();
        let back = qr.q_thin().matmul(&qr.r()).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let a = tall();
        let q = Qr::compute(&a).unwrap().q_thin();
        let qtq = q.transpose().matmul(&q).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(3), 1e-12));
    }

    #[test]
    fn nan_input_is_rejected_not_mispivoted() {
        // Regression: pivot selection used to treat a NaN column norm as
        // "equal" to everything, silently steering the factorization by
        // whatever order the scan happened to visit. Poisoned input must
        // now surface as an explicit error from both pivot sites (the
        // initial selection and the recomputed-norm selection).
        let mut a = tall();
        a[(2, 1)] = f64::NAN;
        match Qr::compute_pivoted(&a) {
            Err(LinalgError::NonFinite { op }) => {
                assert!(op.contains("pivot"), "unexpected op: {op}")
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        let mut b = tall();
        b[(0, 0)] = f64::INFINITY;
        assert!(matches!(
            Qr::compute_pivoted(&b),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn reconstruction_pivoted() {
        let a = tall();
        let qr = Qr::compute_pivoted(&a).unwrap();
        let ap = a.select_cols(qr.perm());
        let back = qr.q_thin().matmul(&qr.r()).unwrap();
        assert!(back.approx_eq(&ap, 1e-12));
    }

    #[test]
    fn pivoted_diagonal_is_nonincreasing() {
        let a = Matrix::from_rows(&[
            &[1e-6, 5.0, 1.0],
            &[2e-6, -3.0, 2.0],
            &[1e-6, 1.0, 7.0],
        ])
        .unwrap();
        let qr = Qr::compute_pivoted(&a).unwrap();
        let r = qr.r();
        for i in 1..3 {
            assert!(
                r[(i, i)].abs() <= r[(i - 1, i - 1)].abs() + 1e-12,
                "diagonal must be non-increasing"
            );
        }
        // The tiny first column must be pivoted last.
        assert_eq!(qr.perm()[2], 0);
    }

    #[test]
    fn rank_detects_deficiency() {
        // Third column = first + second.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 2.0],
            &[2.0, 1.0, 3.0],
        ])
        .unwrap();
        let qr = Qr::compute_pivoted(&a).unwrap();
        assert_eq!(qr.rank(1e-10), 2);
    }

    #[test]
    fn empty_rejected() {
        assert!(Qr::compute(&Matrix::zeros(0, 3)).is_err());
    }

    #[test]
    fn wide_matrix_factors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let qr = Qr::compute_pivoted(&a).unwrap();
        let ap = a.select_cols(qr.perm());
        let back = qr.q_thin().matmul(&qr.r()).unwrap();
        assert!(back.approx_eq(&ap, 1e-12));
    }
}
