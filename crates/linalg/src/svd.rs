//! Singular value decomposition (Golub–Reinsch) and the *effective rank*.
//!
//! The paper's approximate selection (Section 4.2) is driven by the singular
//! value spectrum of the sensitivity matrix `A`: the **effective rank** is
//! the index at which the cumulative singular-value energy reaches
//! `(1 − η)` of the total, and it lower-bounds how few representative paths
//! can predict the rest within tolerance.

use crate::vecops::pythag;
use crate::{LinalgError, Matrix, Result};

/// Maximum implicit-QR sweeps per singular value before giving up.
const MAX_SWEEPS: usize = 75;

/// Thin singular value decomposition `A = U·diag(s)·Vᵀ`.
///
/// For an `m`×`n` input with `k = min(m, n)`, `U` is `m`×`k`, `s` has `k`
/// non-negative entries sorted in non-increasing order, and `V` is `n`×`k`.
///
/// # Example
///
/// ```
/// use pathrep_linalg::{Matrix, svd::Svd};
///
/// # fn main() -> Result<(), pathrep_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]])?;
/// let svd = Svd::compute(&a)?;
/// assert!(svd.reconstruct()?.approx_eq(&a, 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    s: Vec<f64>,
    /// `None` when built by [`Svd::compute_left`].
    v: Option<Matrix>,
}

impl Svd {
    /// Assembles a left-only decomposition from precomputed factors — the
    /// crate-internal exit point of the sketched SVD
    /// ([`crate::sketch::sketched_svd`]), which builds `U` and `s` from a
    /// reduced sketch rather than a Golub–Reinsch run. Behaves exactly
    /// like a [`Svd::compute_left`] result: [`Svd::v`] panics,
    /// reconstruction errors.
    pub(crate) fn from_left_parts(u: Matrix, s: Vec<f64>) -> Self {
        Svd { u, s, v: None }
    }

    /// Computes the thin SVD of `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] for an empty matrix.
    /// * [`LinalgError::NoConvergence`] if the implicit-QR phase exceeds its
    ///   sweep budget (never observed on finite input).
    pub fn compute(a: &Matrix) -> Result<Self> {
        let _span = pathrep_obs::span!("svd");
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        pathrep_obs::counter_add("linalg.svd.calls", 1);
        let wk0 = pathrep_obs::work::thread_tally("svd");
        // SVD(Aᵀ) = V Σ Uᵀ: a wide input swaps the factors.
        let (u, s, v) = if m >= n {
            golub_reinsch(a, true, true)?
        } else {
            let (v, s, u) = golub_reinsch(&a.transpose(), true, true)?;
            (u, s, v)
        };
        let svd = Svd {
            u: u.expect("golub_reinsch returns U when asked"),
            s,
            v: Some(v.expect("golub_reinsch returns V when asked")),
        };
        svd.record_health(m, n, pathrep_obs::work::thread_tally("svd").since(wk0));
        Ok(svd)
    }

    /// Computes the singular values and **left** singular vectors only.
    ///
    /// `U` and `s` are bit-identical to [`Svd::compute`]'s — the right-hand
    /// accumulation and the `V`-side plane rotations never feed back into
    /// the `U`/`s` arithmetic, so skipping them changes nothing except the
    /// cost. Subset selection (Algorithm 2) pivots on `U` and reads the
    /// spectrum but never touches `V`, which makes this the hot-path entry
    /// point: for a tall `m`×`n` input it skips `O(n³)` accumulation flops
    /// plus the `V` share of every QR-iteration rotation sweep. A wide input
    /// runs on `Aᵀ`, whose right factor is `U`, and skips that run's left
    /// accumulation and left rotations instead.
    ///
    /// [`Svd::v`] panics and [`Svd::reconstruct`] returns an error on the
    /// result.
    ///
    /// # Errors
    ///
    /// Same as [`Svd::compute`].
    pub fn compute_left(a: &Matrix) -> Result<Self> {
        let _span = pathrep_obs::span!("svd");
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }
        pathrep_obs::counter_add("linalg.svd.calls", 1);
        let wk0 = pathrep_obs::work::thread_tally("svd");
        // Wide input: A's left vectors are the transpose's right vectors,
        // so the transpose's run skips its own left-hand side instead.
        let (u, s) = if m >= n {
            let (u, s, _) = golub_reinsch(a, true, false)?;
            (u, s)
        } else {
            let (_, s, u) = golub_reinsch(&a.transpose(), false, true)?;
            (u, s)
        };
        let svd = Svd {
            u: u.expect("golub_reinsch returns the requested factor"),
            s,
            v: None,
        };
        svd.record_health(m, n, pathrep_obs::work::thread_tally("svd").since(wk0));
        Ok(svd)
    }

    /// Appends a `linalg/svd` numerical-health ledger record: the
    /// condition-number estimate `s_max/s_min`, the head/tail split of the
    /// singular-value energy, the leading spectrum values and this
    /// invocation's model-based work (flops/bytes/intensity — all
    /// deterministic, never wall-time-derived). No-op unless
    /// `PATHREP_OBS_LEDGER` is set.
    fn record_health(&self, m: usize, n: usize, work: pathrep_obs::work::WorkTally) {
        if !pathrep_obs::ledger::collecting() {
            return;
        }
        let smax = self.s.first().copied().unwrap_or(0.0);
        let smin = self.s.last().copied().unwrap_or(0.0);
        let total: f64 = self.s.iter().sum();
        // Head = leading 8 values: enough to see spectrum decay without
        // storing hundreds of entries per factorization.
        const HEAD: usize = 8;
        let head: f64 = self.s.iter().take(HEAD).sum();
        let head_frac = if total > 0.0 { head / total } else { 0.0 };
        pathrep_obs::ledger::record("linalg", "svd", |f| {
            f.int("rows", m as u64)
                .int("cols", n as u64)
                .num("smax", smax)
                .num("smin", smin)
                .num("cond", if smin > 0.0 { smax / smin } else { f64::INFINITY })
                .num("head_energy", head_frac)
                .num("tail_energy", 1.0 - head_frac)
                .nums("spectrum_head", &self.s[..self.s.len().min(HEAD * 2)])
                .int("work_flops", work.flops)
                .int("work_bytes", work.bytes)
                .num("work_intensity", work.intensity());
        });
    }

    /// Left singular vectors (`m` × `k`).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Singular values, non-negative and non-increasing.
    pub fn singular_values(&self) -> &[f64] {
        &self.s
    }

    /// Right singular vectors (`n` × `k`).
    ///
    /// # Panics
    ///
    /// Panics if the decomposition was built by [`Svd::compute_left`],
    /// which skips the right-hand side.
    pub fn v(&self) -> &Matrix {
        self.v
            .as_ref()
            .expect("right singular vectors were not computed (use Svd::compute)")
    }

    fn v_checked(&self) -> Result<&Matrix> {
        self.v.as_ref().ok_or(LinalgError::InvalidArgument {
            what: "right singular vectors were not computed (use Svd::compute)",
        })
    }

    /// Numerical rank: the number of singular values above `tol · s_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.s.first().copied().unwrap_or(0.0);
        if smax <= 0.0 {
            return 0;
        }
        self.s.iter().take_while(|&&x| x > tol * smax).count()
    }

    /// The paper's **effective rank** for energy threshold `η` (Section 4.2):
    /// the smallest `k` with `Σ_{i<k} s_i ≥ (1 − η)·Σ_i s_i`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] unless `0 ≤ η < 1`.
    pub fn effective_rank(&self, eta: f64) -> Result<usize> {
        if !(0.0..1.0).contains(&eta) {
            return Err(LinalgError::InvalidArgument {
                what: "effective-rank threshold eta must lie in [0, 1)",
            });
        }
        let total: f64 = self.s.iter().sum();
        if total == 0.0 {
            return Ok(0);
        }
        let target = (1.0 - eta) * total;
        let mut acc = 0.0;
        for (k, &sv) in self.s.iter().enumerate() {
            acc += sv;
            if acc >= target - 1e-15 * total {
                return Ok(k + 1);
            }
        }
        Ok(self.s.len())
    }

    /// Singular values normalized by their sum (`λ_i / Σλ`), the quantity
    /// plotted in the paper's Figure 2.
    pub fn normalized_singular_values(&self) -> Vec<f64> {
        let total: f64 = self.s.iter().sum();
        if total == 0.0 {
            return vec![0.0; self.s.len()];
        }
        self.s.iter().map(|&x| x / total).collect()
    }

    /// Rebuilds `U·diag(s)·Vᵀ`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] for a [`Svd::compute_left`]
    /// decomposition (no `V`); otherwise mirrors [`Matrix::matmul`].
    pub fn reconstruct(&self) -> Result<Matrix> {
        let v = self.v_checked()?;
        let k = self.s.len();
        let mut us = self.u.clone();
        for j in 0..k {
            for i in 0..us.nrows() {
                us[(i, j)] *= self.s[j];
            }
        }
        us.matmul(&v.transpose())
    }
}

#[inline]
fn same_sign(a: f64, b: f64) -> f64 {
    if b >= 0.0 {
        a.abs()
    } else {
        -a.abs()
    }
}

/// Shared shape of the Golub–Reinsch Householder/accumulation updates: for
/// every column `j` in `j0..j1` of the row-major `data` (row stride
/// `stride`) forms `s_j = Σ_k wvec[k] · data[(w0+k, j)]`, maps it through
/// `finish`, and adds `finish(s_j) · uvec[k]` to rows `u0..u0+uvec.len()`.
///
/// Runs as two row-major sweeps, parallel over disjoint column ranges.
/// Per column the accumulation order (rows ascending) matches the classic
/// per-column loops exactly, so results are bit-identical at every thread
/// count; workers share only the read-only gathered vectors.
fn two_pass_col_update(
    data: &mut [f64],
    stride: usize,
    j0: usize,
    j1: usize,
    w0: usize,
    wvec: &[f64],
    u0: usize,
    uvec: &[f64],
    finish: impl Fn(f64) -> f64 + Sync,
) {
    if j0 >= j1 {
        return;
    }
    let width = j1 - j0;
    {
        let (wu, wl, ul) = (width as u64, wvec.len() as u64, uvec.len() as u64);
        pathrep_obs::work::record(
            "svd",
            wu * (2 * wl + 2 * ul + 1),
            8 * wu * (wl + 2 * ul),
            wu * (wl + ul),
        );
    }
    let mut s = vec![0.0_f64; width];
    // Gather pass: workers own disjoint chunks of `s` and read `data`
    // through a shared borrow — safe slices throughout, so the stride-1
    // inner loops stay vectorizable (a shared raw-pointer view here would
    // force the compiler to assume `s` aliases `data`).
    {
        let data_ro: &[f64] = data;
        let col_flops = 2 * wvec.len();
        pathrep_par::for_each_unit_chunk_mut(&mut s, 1, col_flops, |first, schunk| {
            let len = schunk.len();
            for (dk, &wk) in wvec.iter().enumerate() {
                let row = (w0 + dk) * stride + j0 + first;
                for (sj, &x) in schunk.iter_mut().zip(&data_ro[row..row + len]) {
                    *sj += wk * x;
                }
            }
        });
    }
    for sj in s.iter_mut() {
        *sj = finish(*sj);
    }
    // Update pass: each target row is written wholly by one worker, reading
    // the now-frozen `s`; per element it is the same single fused update as
    // the column-partitioned original, so results are bit-identical.
    let rows = &mut data[u0 * stride..(u0 + uvec.len()) * stride];
    pathrep_par::for_each_unit_chunk_mut(rows, stride, 2 * width, |first, block| {
        for (dk, row) in block.chunks_exact_mut(stride).enumerate() {
            let uk = uvec[first + dk];
            for (&sj, x) in s.iter().zip(&mut row[j0..j1]) {
                *x += sj * uk;
            }
        }
    });
}

/// One plane rotation `(x, z) ← (x·c + z·s, z·c − x·s)` on columns `jx`
/// and `jz`: `(jx, jz, c, s)`.
type ColRotation = (usize, usize, f64, f64);

/// Applies a sweep's worth of plane rotations to every row of the
/// row-major `data` in one pass, parallel over row blocks.
///
/// Rotations within a sweep only interact through shared columns, and both
/// the rotation-by-rotation original and this per-row batch apply them in
/// the same list order to every element — so the arithmetic per element is
/// identical bit for bit. Batching matters because each rotation touches
/// just two elements per row: applied one by one, a sweep streams the
/// whole matrix from memory once *per rotation*; batched, once per sweep.
fn rotate_cols_batch(data: &mut [f64], stride: usize, rots: &[ColRotation]) {
    if rots.is_empty() {
        return;
    }
    {
        let rows = (data.len() / stride.max(1)) as u64;
        let nr = rots.len() as u64;
        pathrep_obs::work::record("svd", 6 * nr * rows, 32 * nr * rows, 2 * nr * rows);
    }
    let row_flops = 6 * rots.len();
    // Row-block size: consecutive rotations share a column, so applying
    // them one row at a time is a serial dependency chain. A block of rows
    // keeps ~16 independent chains in flight per rotation (pipelined FP)
    // while the block stays cache-resident across the whole sweep.
    let block_rows = 16 * stride;
    pathrep_par::for_each_unit_chunk_mut(data, stride, row_flops, |_, chunk| {
        for block in chunk.chunks_mut(block_rows) {
            for &(jx, jz, c, s) in rots {
                for row in block.chunks_exact_mut(stride) {
                    let x = row[jx];
                    let z = row[jz];
                    row[jx] = x * c + z * s;
                    row[jz] = z * c - x * s;
                }
            }
        }
    });
}

/// Golub–Reinsch SVD for `m ≥ n`: Householder bidiagonalization followed by
/// implicit-shift QR on the bidiagonal form. Returns `(U, s, V)` with `U`
/// `m`×`n` (`None` when `want_u` is false), `s` of length `n`, `V` `n`×`n`
/// (`None` when `want_v` is false), sorted by decreasing singular value
/// with non-negative values.
///
/// Both factors are write-only once the bidiagonal form exists: their
/// accumulations and rotations never feed the `w`/`rv1` recurrences (nor
/// each other), so dropping either one yields the other and `s` bit for
/// bit while skipping all of its work. The Givens recurrence itself always
/// runs; only applying its rotations to a dropped factor is skipped.
#[allow(clippy::needless_range_loop)]
fn golub_reinsch(
    a_in: &Matrix,
    want_u: bool,
    want_v: bool,
) -> Result<(Option<Matrix>, Vec<f64>, Option<Matrix>)> {
    let (m, n) = a_in.shape();
    debug_assert!(m >= n);
    let mut a = a_in.clone();
    let mut w = vec![0.0_f64; n];
    let mut v = if want_v {
        Some(Matrix::zeros(n, n))
    } else {
        None
    };
    let mut rv1 = vec![0.0_f64; n];

    let (mut g, mut scale, mut anorm) = (0.0_f64, 0.0_f64, 0.0_f64);

    // --- Householder reduction to bidiagonal form ---
    for i in 0..n {
        let l = i + 1;
        rv1[i] = scale * g;
        g = 0.0;
        let mut s;
        scale = 0.0;
        if i < m {
            for k in i..m {
                scale += a[(k, i)].abs();
            }
            if scale != 0.0 {
                s = 0.0;
                for k in i..m {
                    a[(k, i)] /= scale;
                    s += a[(k, i)] * a[(k, i)];
                }
                let f = a[(i, i)];
                g = -same_sign(s.sqrt(), f);
                let h = f * g - s;
                a[(i, i)] = f - g;
                // s2_j = Σ_k a[(k,i)]·a[(k,j)], then a[(k,j)] += (s2_j/h)·a[(k,i)];
                // the trailing columns never touch column i, so one gather of
                // it serves both passes.
                let vcol: Vec<f64> = (i..m).map(|k| a[(k, i)]).collect();
                two_pass_col_update(a.as_mut_slice(), n, l, n, i, &vcol, i, &vcol, |s2| s2 / h);
                for k in i..m {
                    a[(k, i)] *= scale;
                }
            }
        }
        w[i] = scale * g;
        g = 0.0;
        scale = 0.0;
        if i < m && i != n - 1 {
            for k in l..n {
                scale += a[(i, k)].abs();
            }
            if scale != 0.0 {
                s = 0.0;
                for k in l..n {
                    a[(i, k)] /= scale;
                    s += a[(i, k)] * a[(i, k)];
                }
                let f = a[(i, l)];
                g = -same_sign(s.sqrt(), f);
                let h = f * g - s;
                a[(i, l)] = f - g;
                for k in l..n {
                    rv1[k] = a[(i, k)] / h;
                }
                // Row-space update: every row j ≥ l is independent (reads
                // only the fixed row i and rv1), so blocks of rows go to
                // different workers with bit-identical results.
                if l < m {
                    let panel = ((m - l) * (n - l)) as u64;
                    pathrep_obs::work::record("svd", 4 * panel, 16 * panel, panel);
                    let (head, tail) = a.as_mut_slice().split_at_mut(l * n);
                    let row_i = &head[i * n..i * n + n];
                    let row_flops = 4 * (n - l);
                    // Each row's dot is a serial FP-add chain; jamming four
                    // rows together runs four independent chains in flight
                    // without touching any row's own summation order.
                    pathrep_par::for_each_unit_chunk_mut(tail, n, row_flops, |_, block| {
                        let mut quads = block.chunks_exact_mut(4 * n);
                        for quad in &mut quads {
                            let (r0, rest) = quad.split_at_mut(n);
                            let (r1, rest) = rest.split_at_mut(n);
                            let (r2, r3) = rest.split_at_mut(n);
                            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                            for k in l..n {
                                s0 += r0[k] * row_i[k];
                                s1 += r1[k] * row_i[k];
                                s2 += r2[k] * row_i[k];
                                s3 += r3[k] * row_i[k];
                            }
                            for k in l..n {
                                r0[k] += s0 * rv1[k];
                                r1[k] += s1 * rv1[k];
                                r2[k] += s2 * rv1[k];
                                r3[k] += s3 * rv1[k];
                            }
                        }
                        for row in quads.into_remainder().chunks_exact_mut(n) {
                            let mut s2 = 0.0;
                            for k in l..n {
                                s2 += row[k] * row_i[k];
                            }
                            for k in l..n {
                                row[k] += s2 * rv1[k];
                            }
                        }
                    });
                }
                for k in l..n {
                    a[(i, k)] *= scale;
                }
            }
        }
        anorm = anorm.max(w[i].abs() + rv1[i].abs());
    }

    // --- Accumulation of right-hand transformations ---
    if let Some(v) = v.as_mut() {
        let mut l = n; // sentinel; set properly on the first pass below
        for i in (0..n).rev() {
            if i < n - 1 {
                if g != 0.0 {
                    for j in l..n {
                        // Double division avoids possible underflow.
                        v[(j, i)] = (a[(i, j)] / a[(i, l)]) / g;
                    }
                    // s_j = Σ_k a[(i,k)]·v[(k,j)], then v[(k,j)] += s_j·v[(k,i)];
                    // column i of v is never written here, so gather it once.
                    let vcol: Vec<f64> = (l..n).map(|k| v[(k, i)]).collect();
                    let arow = &a.row(i)[l..n];
                    two_pass_col_update(v.as_mut_slice(), n, l, n, l, arow, l, &vcol, |s| s);
                }
                for j in l..n {
                    v[(i, j)] = 0.0;
                    v[(j, i)] = 0.0;
                }
            }
            v[(i, i)] = 1.0;
            g = rv1[i];
            l = i;
        }
    }

    // --- Accumulation of left-hand transformations ---
    if want_u {
        for i in (0..n.min(m)).rev() {
            let l = i + 1;
            g = w[i];
            for j in l..n {
                a[(i, j)] = 0.0;
            }
            if g != 0.0 {
                g = 1.0 / g;
                // s_j = Σ_{k≥l} a[(k,i)]·a[(k,j)], then
                // a[(k,j)] += (s_j/a_ii)·g·a[(k,i)] for k ≥ i; column i is
                // read-only during the update, so gather it once.
                let acol: Vec<f64> = (i..m).map(|k| a[(k, i)]).collect();
                let a_ii = a[(i, i)];
                two_pass_col_update(a.as_mut_slice(), n, l, n, l, &acol[1..], i, &acol, |s| {
                    (s / a_ii) * g
                });
                for j in i..m {
                    a[(j, i)] *= g;
                }
            } else {
                for j in i..m {
                    a[(j, i)] = 0.0;
                }
            }
            a[(i, i)] += 1.0;
        }
    }

    // --- Diagonalization of the bidiagonal form ---
    let eps = f64::EPSILON;
    let mut qr_sweeps: u64 = 0;
    for k in (0..n).rev() {
        let mut converged = false;
        for sweep in 0..=MAX_SWEEPS {
            if sweep == MAX_SWEEPS {
                return Err(LinalgError::NoConvergence {
                    routine: "svd",
                    iterations: MAX_SWEEPS,
                });
            }
            // Test for splitting: find the largest l ≤ k with negligible
            // rv1[l]; note rv1[0] is always zero so l = 0 terminates.
            let mut flag = true;
            let mut l = k;
            loop {
                if rv1[l].abs() <= eps * anorm {
                    flag = false;
                    break;
                }
                if w[l - 1].abs() <= eps * anorm {
                    break;
                }
                l -= 1;
            }
            if flag {
                // Cancellation of rv1[l] when w[l-1] is negligible. The
                // c/s recurrence reads only rv1/w scalars, never the
                // matrix, so the rotations are collected first and applied
                // to `a` in one batched pass.
                let mut c = 0.0;
                let mut s = 1.0;
                let nm = l - 1;
                let mut rots: Vec<ColRotation> = Vec::with_capacity(k + 1 - l);
                for i in l..=k {
                    let f = s * rv1[i];
                    rv1[i] *= c;
                    if f.abs() <= eps * anorm {
                        break;
                    }
                    g = w[i];
                    let mut h = pythag(f, g);
                    w[i] = h;
                    h = 1.0 / h;
                    c = g * h;
                    s = -f * h;
                    rots.push((nm, i, c, s));
                }
                if want_u {
                    rotate_cols_batch(a.as_mut_slice(), n, &rots);
                }
            }
            let z = w[k];
            if l == k {
                // Converged; enforce non-negative singular value (the
                // compensating sign flip lands on V, so U is untouched
                // and a V-less run stays bit-identical on U and s).
                if z < 0.0 {
                    w[k] = -z;
                    if let Some(v) = v.as_mut() {
                        for j in 0..n {
                            v[(j, k)] = -v[(j, k)];
                        }
                    }
                }
                converged = true;
                break;
            }
            // Shift from the bottom 2×2 minor.
            qr_sweeps += 1;
            let mut x = w[l];
            let nm = k - 1;
            let mut y = w[nm];
            g = rv1[nm];
            let mut h = rv1[k];
            let mut f = ((y - z) * (y + z) + (g - h) * (g + h)) / (2.0 * h * y);
            g = pythag(f, 1.0);
            f = ((x - z) * (x + z) + h * ((y / (f + same_sign(g, f))) - h)) / x;
            // Next QR transformation. As above, the Givens recurrence is
            // pure scalar work on w/rv1 — collect the V- and U-side
            // rotations and apply each side as one batched pass.
            let mut c = 1.0;
            let mut s = 1.0;
            let mut rots_v: Vec<ColRotation> = Vec::with_capacity(nm + 1 - l);
            let mut rots_a: Vec<ColRotation> = Vec::with_capacity(nm + 1 - l);
            for j in l..=nm {
                let i = j + 1;
                g = rv1[i];
                y = w[i];
                h = s * g;
                g *= c;
                let mut zz = pythag(f, h);
                rv1[j] = zz;
                c = f / zz;
                s = h / zz;
                f = x * c + g * s;
                g = g * c - x * s;
                h = y * s;
                y *= c;
                rots_v.push((j, i, c, s));
                zz = pythag(f, h);
                w[j] = zz;
                if zz != 0.0 {
                    let inv = 1.0 / zz;
                    c = f * inv;
                    s = h * inv;
                }
                f = c * g + s * y;
                x = c * y - s * g;
                rots_a.push((j, i, c, s));
            }
            if let Some(v) = v.as_mut() {
                rotate_cols_batch(v.as_mut_slice(), n, &rots_v);
            }
            if want_u {
                rotate_cols_batch(a.as_mut_slice(), n, &rots_a);
            }
            rv1[l] = 0.0;
            rv1[k] = f;
            w[k] = x;
        }
        debug_assert!(converged);
    }

    pathrep_obs::counter_add("linalg.svd.qr_sweeps", qr_sweeps);

    // --- Sort by decreasing singular value (a NaN — possible only from
    // non-finite input — deterministically sorts last) ---
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| crate::vecops::cmp_nan_smallest(w[j], w[i]));
    let s_sorted: Vec<f64> = order.iter().map(|&i| w[i]).collect();
    let u_sorted = want_u.then(|| a.select_cols(&order));
    let v_sorted = v.map(|v| v.select_cols(&order));
    Ok((u_sorted, s_sorted, v_sorted))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_svd(a: &Matrix, tol: f64) {
        let svd = Svd::compute(a).unwrap();
        let k = a.nrows().min(a.ncols());
        assert_eq!(svd.singular_values().len(), k);
        // Reconstruction.
        assert!(
            svd.reconstruct().unwrap().approx_eq(a, tol),
            "reconstruction failed"
        );
        // Orthonormality of both factors.
        let utu = svd.u().transpose().matmul(svd.u()).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(k), tol), "U not orthonormal");
        let vtv = svd.v().transpose().matmul(svd.v()).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(k), tol), "V not orthonormal");
        // Ordering and non-negativity.
        let s = svd.singular_values();
        for i in 0..k {
            assert!(s[i] >= 0.0);
            if i > 0 {
                assert!(s[i] <= s[i - 1] + 1e-12);
            }
        }
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let svd = Svd::compute(&a).unwrap();
        let s = svd.singular_values();
        assert!((s[0] - 3.0).abs() < 1e-12);
        assert!((s[1] - 2.0).abs() < 1e-12);
        assert!((s[2] - 1.0).abs() < 1e-12);
        check_svd(&a, 1e-12);
    }

    #[test]
    fn tall_matrix() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0],
            &[3.0, 4.0],
            &[5.0, 6.0],
            &[7.0, 8.0],
        ])
        .unwrap();
        check_svd(&a, 1e-11);
    }

    #[test]
    fn wide_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]]).unwrap();
        check_svd(&a, 1e-11);
    }

    #[test]
    fn rank_deficient() {
        // Rank 1: every row is a multiple of the first.
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0], &[3.0, 6.0, 9.0]])
            .unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        check_svd(&a, 1e-11);
    }

    #[test]
    fn known_singular_values() {
        // A = [[3, 0], [4, 5]] has singular values sqrt(45/2 ± ...) — check
        // against the eigenvalues of AᵀA: s1·s2 = |det| = 15, s1²+s2² = 50.
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 5.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        let s = svd.singular_values();
        assert!((s[0] * s[1] - 15.0).abs() < 1e-10);
        assert!((s[0] * s[0] + s[1] * s[1] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn random_matrix_properties() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Matrix::from_fn(40, 17, |_, _| rng.gen_range(-1.0..1.0));
        check_svd(&a, 1e-9);
        let b = Matrix::from_fn(17, 40, |_, _| rng.gen_range(-1.0..1.0));
        check_svd(&b, 1e-9);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(3, 2);
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-12), 0);
        assert!(svd.singular_values().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn effective_rank_low_rank_plus_noise() {
        // Two dominant directions plus faint noise: effective rank at 5%
        // should be 2 while the exact rank is full.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut a = Matrix::from_fn(30, 10, |_, _| 1e-4 * rng.gen_range(-1.0..1.0));
        for i in 0..30 {
            let t = i as f64;
            for j in 0..10 {
                a[(i, j)] += (t * 0.1).sin() * (j as f64 + 1.0) + (t * 0.3).cos() * (j as f64);
            }
        }
        let svd = Svd::compute(&a).unwrap();
        assert_eq!(svd.rank(1e-12), 10);
        let er = svd.effective_rank(0.05).unwrap();
        assert!(er <= 3, "effective rank {er} should be tiny");
    }

    #[test]
    fn effective_rank_rejects_bad_eta() {
        let a = Matrix::identity(2);
        let svd = Svd::compute(&a).unwrap();
        assert!(svd.effective_rank(1.0).is_err());
        assert!(svd.effective_rank(-0.1).is_err());
        assert_eq!(svd.effective_rank(0.0).unwrap(), 2);
    }

    #[test]
    fn normalized_values_sum_to_one() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.5, 3.0], &[1.0, 1.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        let nv = svd.normalized_singular_values();
        let sum: f64 = nv.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compute_left_matches_full_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for &(m, n) in &[(40usize, 17usize), (17, 40), (25, 25)] {
            let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
            let full = Svd::compute(&a).unwrap();
            let left = Svd::compute_left(&a).unwrap();
            for (x, y) in full
                .singular_values()
                .iter()
                .zip(left.singular_values())
            {
                assert_eq!(x.to_bits(), y.to_bits(), "singular values diverged");
            }
            assert_eq!(full.u().shape(), left.u().shape());
            for i in 0..full.u().nrows() {
                for j in 0..full.u().ncols() {
                    assert_eq!(
                        full.u()[(i, j)].to_bits(),
                        left.u()[(i, j)].to_bits(),
                        "U diverged at ({i}, {j}) for {m}x{n}"
                    );
                }
            }
        }
    }

    #[test]
    fn compute_left_has_no_right_vectors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let left = Svd::compute_left(&a).unwrap();
        assert!(matches!(
            left.reconstruct(),
            Err(LinalgError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn single_column() {
        let a = Matrix::from_rows(&[&[3.0], &[4.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.singular_values()[0] - 5.0).abs() < 1e-12);
        check_svd(&a, 1e-12);
    }

    #[test]
    fn single_row() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let svd = Svd::compute(&a).unwrap();
        assert!((svd.singular_values()[0] - 5.0).abs() < 1e-12);
        check_svd(&a, 1e-12);
    }
}
