//! Theorem 2: the optimal linear predictor and its analytic error, from
//! one conditional-Gaussian solve.
//!
//! With all variables standard normal, the minimum-mean-square-error linear
//! predictor of the unmeasured delays `d_m` from measured delays `d_r` is
//!
//! ```text
//! d̂_m = µ_m + A_m A_rᵀ (A_r A_rᵀ)⁻¹ (d_r − µ_r)
//! ```
//!
//! and the prediction error `Δ = d̂_m − d_m` is zero-mean Gaussian with
//! variance the conditional variance of `d_m` given `d_r`. The worst case
//! used for guard-banding is `WC(Δᵢ) = κ·std(Δᵢ)` (the paper's `WC(·)`;
//! κ = 3 by default).
//!
//! Every predictor in this crate comes from [`Conditioning`]: a partial
//! pivoted Cholesky of the covariance `K` of the rows of `M` (targets, then
//! any measured non-target rows such as segments of `Σ`), conditioned on
//! the measured rows one at a time. It keeps only its `k` pivot columns,
//! never the full `K`, and leaves each target's conditional variance, the
//! Theorem-2 `std²`, on its diagonal. Its caller supplies `K`'s columns
//! ([`Columns`]): a column slice of the dense Gram, a sparse product
//! `A·A_selᵀ`, or `M·M_jᵀ`. The coefficients `L_rem,P·L_PP⁻¹` take one
//! triangular solve, and only the predictor a caller keeps builds them.
//! EffiTest predicts its untested paths from the same conditional Gaussian.

use crate::CoreError;
use pathrep_linalg::sparse::SparseMatrix;
use pathrep_linalg::{vecops, Matrix};

/// Default worst-case multiplier κ (three-sigma, 99.87 % one-sided).
pub const DEFAULT_KAPPA: f64 = 3.0;

/// A measured row whose conditioned variance is at most this fraction of
/// its own is linearly dependent on the rows measured before it, and adds
/// no pivot column.
const DEPENDENT_PIVOT: f64 = 1e-10;

/// The paper's aggregate error `max_i κ·stdᵢ/T_cons` (Eqn 7), zero with no
/// targets.
fn worst_case(stds: &[f64], kappa: f64, t_cons: f64) -> f64 {
    stds.iter().map(|s| kappa * s / t_cons).fold(0.0, f64::max)
}

/// Where the columns `K_:J` of the covariance of the rows of `M` come from.
pub(crate) enum Columns<'a> {
    /// `M = A`, with the dense Gram `G = A·Aᵀ` precomputed: `K_:j = G_:j`.
    Gram(&'a Matrix),
    /// `M = A`, sparse: `K_:J = A·A_Jᵀ`, so the `n × n` Gram never exists.
    Sparse(&'a SparseMatrix),
    /// `M = [targets; extra]`: `K_:J = M·M_Jᵀ`. Every row of `targets` is a
    /// target; the rows of `extra` are measured, never predicted.
    Rows {
        targets: &'a Matrix,
        extra: &'a Matrix,
    },
}

impl Columns<'_> {
    /// Rows of `M` that are targets; the rest are measured non-targets.
    fn targets(&self) -> usize {
        match self {
            Columns::Gram(g) => g.nrows(),
            Columns::Sparse(a) => a.nrows(),
            Columns::Rows { targets, .. } => targets.nrows(),
        }
    }

    /// `diag(K)`: each row's own variance. For `Rows` it is the square of
    /// the scaled norm `‖row‖`, so a target no measurement informs keeps
    /// `std = √(‖row‖²) = ‖row‖` exactly (`√(x·x) = |x|` in binary
    /// floating point).
    fn diag(&self) -> Vec<f64> {
        match self {
            Columns::Gram(g) => (0..g.nrows()).map(|i| g[(i, i)]).collect(),
            Columns::Sparse(a) => a.gram_diag(),
            Columns::Rows { targets, extra } => (0..targets.nrows())
                .map(|i| targets.row(i))
                .chain((0..extra.nrows()).map(|s| extra.row(s)))
                .map(|r| vecops::norm2(r).powi(2))
                .collect(),
        }
    }

    /// The columns `K_:j` for `j` in `rows`, in order.
    fn get(&self, rows: &[usize]) -> Result<Vec<Vec<f64>>, CoreError> {
        let product = match self {
            Columns::Gram(g) => return Ok(rows.iter().map(|&j| g.col(j)).collect()),
            Columns::Sparse(a) => a.matmul_dense(&a.select_rows_dense(rows)?.transpose())?,
            Columns::Rows { targets, extra } => {
                let n = targets.nrows();
                let picked_t = Matrix::from_fn(targets.ncols(), rows.len(), |c, q| {
                    match rows[q].checked_sub(n) {
                        None => targets[(rows[q], c)],
                        Some(s) => extra[(s, c)],
                    }
                });
                targets.matmul(&picked_t)?.vstack(&extra.matmul(&picked_t)?)?
            }
        };
        Ok((0..rows.len()).map(|q| product.col(q)).collect())
    }
}

/// Pivoted conditioning of the target rows of `M` on its measured rows,
/// with measurement-noise variance `σ²` added to each measured row's pivot.
/// Every method fails only on a [`CoreError::Linalg`] shape mismatch of
/// the [`Columns`].
pub(crate) struct Conditioning<'a> {
    columns: Columns<'a>,
    /// `σ²` of each measurement.
    noise: f64,
    /// `diag(K)`, against which a pivot is judged dependent.
    diag: Vec<f64>,
    /// Pivot columns `L_:p` of the partial Cholesky factor of `K + σ²·I_P`.
    pivots: Vec<Vec<f64>>,
    /// The row of `M` each pivot conditioned on.
    pivot_rows: Vec<usize>,
    /// `diag(K) − Σ_p L_:p²`: each target's variance given the measured rows.
    variance: Vec<f64>,
    /// Which targets are measured.
    measured: Vec<bool>,
}

impl<'a> Conditioning<'a> {
    /// Conditions the targets of `columns` on all of its measured
    /// non-target rows, each carrying noise of variance `noise`.
    pub(crate) fn new(columns: Columns<'a>, noise: f64) -> Result<Self, CoreError> {
        let diag = columns.diag();
        let n = columns.targets();
        let mut kernel = Conditioning {
            columns,
            noise,
            variance: diag.clone(),
            diag,
            pivots: Vec::new(),
            pivot_rows: Vec::new(),
            measured: vec![false; n],
        };
        kernel.condition(&(n..kernel.diag.len()).collect::<Vec<_>>())?;
        Ok(kernel)
    }

    /// Conditions on the rows `rows` of `M`, in order, with their columns
    /// from one [`Columns::get`]. A row dependent on those measured before
    /// it adds no pivot, but still counts as measured.
    pub(crate) fn condition(&mut self, rows: &[usize]) -> Result<(), CoreError> {
        if rows.is_empty() {
            return Ok(());
        }
        for (mut col, &j) in self.columns.get(rows)?.into_iter().zip(rows) {
            if let Some(m) = self.measured.get_mut(j) {
                *m = true;
            }
            for l in &self.pivots {
                vecops::axpy(-l[j], l, &mut col);
            }
            col[j] += self.noise;
            let pivot = col[j];
            if pivot > DEPENDENT_PIVOT * self.diag[j] {
                let scale = pivot.sqrt().recip();
                for (v, c) in self.variance.iter_mut().zip(col.iter_mut()) {
                    *c *= scale;
                    *v -= *c * *c;
                }
                self.pivots.push(col);
                self.pivot_rows.push(j);
            }
        }
        Ok(())
    }

    /// Every unmeasured target whose variance exceeds `budget`, in index
    /// order. A NaN variance never does.
    pub(crate) fn over_budget(&self, budget: f64) -> Vec<usize> {
        (0..self.measured.len())
            .filter(|&i| !self.measured[i] && self.variance[i] > budget)
            .collect()
    }

    /// Measures the over-budget target with the largest variance (ties to
    /// the lowest index) until none is left; returns the picks in order.
    /// Each pick marks a target measured, so this ends within `n` picks.
    pub(crate) fn greedy(&mut self, budget: f64) -> Result<Vec<usize>, CoreError> {
        let mut added = Vec::new();
        // `max_by` keeps the last of equal maxima: scan from the top index.
        while let Some(j) = (self.over_budget(budget).into_iter().rev())
            .max_by(|&w, &i| self.variance[w].total_cmp(&self.variance[i]))
        {
            self.condition(&[j])?;
            added.push(j);
        }
        Ok(added)
    }

    /// The unmeasured targets, in index order.
    fn remaining(&self) -> Vec<usize> {
        (0..self.measured.len()).filter(|&i| !self.measured[i]).collect()
    }

    /// Theorem-2 prediction stds of the unmeasured targets, in index order.
    fn stds(&self, remaining: &[usize]) -> Vec<f64> {
        remaining
            .iter()
            .map(|&i| self.variance[i].max(0.0).sqrt())
            .collect()
    }

    /// `max_i κ·stdᵢ/T_cons` over the unmeasured targets: the `ε_r` of
    /// [`Conditioning::predictor`], without building its coefficients.
    pub(crate) fn epsilon(&self, kappa: f64, t_cons: f64) -> f64 {
        worst_case(&self.stds(&self.remaining()), kappa, t_cons)
    }

    /// The Theorem-2 predictor of the unmeasured targets (returned in index
    /// order) from the rows `measured` of `M`, which must be the rows this
    /// kernel conditioned on, in the order the measurements will arrive.
    /// `mu` holds the mean of every row of `M`. The coefficients are
    /// `L_rem,P·L_PP⁻¹`, one triangular solve per target; a dependent
    /// measured row gets coefficient 0.
    pub(crate) fn predictor(
        &self,
        measured: &[usize],
        mu: &[f64],
        kappa: f64,
    ) -> (MeasurementPredictor, Vec<usize>) {
        let remaining = self.remaining();
        let k = self.pivots.len();
        // Row p of L_PPᵀ: pivot column p at the pivot rows.
        let lt = Matrix::from_fn(k, k, |p, q| self.pivots[p][self.pivot_rows[q]]);
        let slots: Vec<Option<usize>> = measured
            .iter()
            .map(|j| self.pivot_rows.iter().position(|r| r == j))
            .collect();
        let mut coef = Matrix::zeros(remaining.len(), measured.len());
        let mut x = vec![0.0; k];
        for (t, &i) in remaining.iter().enumerate() {
            // x·L_PP = L_iP, by back substitution.
            for p in (0..k).rev() {
                let s = self.pivots[p][i] - vecops::dot(&x[p + 1..], &lt.row(p)[p + 1..]);
                x[p] = s / lt[(p, p)];
            }
            for (c, slot) in coef.row_mut(t).iter_mut().zip(&slots) {
                if let Some(p) = *slot {
                    *c = x[p];
                }
            }
        }
        let predictor = MeasurementPredictor {
            coef,
            meas_mu: measured.iter().map(|&j| mu[j]).collect(),
            target_mu: remaining.iter().map(|&i| mu[i]).collect(),
            stds: self.stds(&remaining),
            kappa,
        };
        (predictor, remaining)
    }
}

#[cfg(test)]
impl Conditioning<'_> {
    /// `diag(K) − Σ_p L_:p²` over every row of `M`.
    pub(crate) fn variance(&self) -> &[f64] {
        &self.variance
    }

    /// Number of pivots: the measured rows that were not dependent.
    pub(crate) fn pivot_count(&self) -> usize {
        self.pivots.len()
    }
}

/// Optimal linear predictor from a set of measured delays to a set of
/// target (unmeasured) delays.
#[derive(Debug, Clone)]
pub struct MeasurementPredictor {
    coef: Matrix,
    meas_mu: Vec<f64>,
    target_mu: Vec<f64>,
    stds: Vec<f64>,
    kappa: f64,
}

impl MeasurementPredictor {
    /// Builds the predictor from explicit sensitivity matrices:
    /// targets have `d_t = target_mu + target_sens·x`, measurements
    /// `d_m = meas_mu + meas_sens·x`. With no measurements the prediction
    /// is the mean, and `std_i = ‖target row i‖`. A measurement linearly
    /// dependent on those before it gets coefficient 0.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] on dimension mismatches or κ ≤ 0.
    pub fn new(
        target_sens: &Matrix,
        target_mu: &[f64],
        meas_sens: &Matrix,
        meas_mu: &[f64],
        kappa: f64,
    ) -> Result<Self, CoreError> {
        Self::new_with_noise(target_sens, target_mu, meas_sens, meas_mu, kappa, 0.0)
    }

    /// Builds the predictor under *noisy measurement*: each measured delay
    /// carries iid Gaussian noise of standard deviation `noise_sigma` ps
    /// (the paper assumes exact measurement; real scan structures do not
    /// deliver it). The MMSE coefficients become
    /// `A_t Mᵀ (M Mᵀ + σ²I)⁻¹` and the prediction error gains the
    /// propagated-noise term `σ²‖coef row‖²`.
    ///
    /// With `noise_sigma = 0` this is exactly [`MeasurementPredictor::new`].
    ///
    /// # Errors
    ///
    /// Same as [`MeasurementPredictor::new`], plus
    /// [`CoreError::InvalidArgument`] for a negative `noise_sigma`.
    pub fn new_with_noise(
        target_sens: &Matrix,
        target_mu: &[f64],
        meas_sens: &Matrix,
        meas_mu: &[f64],
        kappa: f64,
        noise_sigma: f64,
    ) -> Result<Self, CoreError> {
        if noise_sigma < 0.0 {
            return Err(CoreError::InvalidArgument {
                what: "noise_sigma must be non-negative".into(),
            });
        }
        if kappa <= 0.0 {
            return Err(CoreError::InvalidArgument {
                what: "kappa must be positive".into(),
            });
        }
        if target_sens.ncols() != meas_sens.ncols() {
            return Err(CoreError::InvalidArgument {
                what: "target and measurement sensitivities must share the variable space".into(),
            });
        }
        if target_mu.len() != target_sens.nrows() || meas_mu.len() != meas_sens.nrows() {
            return Err(CoreError::InvalidArgument {
                what: "mean vectors must match sensitivity row counts".into(),
            });
        }
        let columns = Columns::Rows {
            targets: target_sens,
            extra: meas_sens,
        };
        let kernel = Conditioning::new(columns, noise_sigma * noise_sigma)?;
        let n = target_sens.nrows();
        let measured: Vec<usize> = (n..n + meas_sens.nrows()).collect();
        let mu: Vec<f64> = target_mu.iter().chain(meas_mu).copied().collect();
        Ok(kernel.predictor(&measured, &mu, kappa).0)
    }

    /// Reassembles a predictor from previously serialized parts (the
    /// model-artifact store in `pathrep-serve`). The inverse of reading
    /// [`MeasurementPredictor::coef`] / [`MeasurementPredictor::meas_mu`] /
    /// [`MeasurementPredictor::target_mu`] / [`MeasurementPredictor::stds`]
    /// back out; no factorization is repeated.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidArgument`] on inconsistent dimensions, κ ≤ 0, or
    /// a non-finite/negative prediction std.
    pub fn from_parts(
        coef: Matrix,
        meas_mu: Vec<f64>,
        target_mu: Vec<f64>,
        stds: Vec<f64>,
        kappa: f64,
    ) -> Result<Self, CoreError> {
        if kappa <= 0.0 || !kappa.is_finite() {
            return Err(CoreError::InvalidArgument {
                what: "kappa must be positive and finite".into(),
            });
        }
        if coef.nrows() != target_mu.len() || coef.ncols() != meas_mu.len() {
            return Err(CoreError::InvalidArgument {
                what: format!(
                    "coefficient matrix is {}×{} but there are {} targets and {} measurements",
                    coef.nrows(),
                    coef.ncols(),
                    target_mu.len(),
                    meas_mu.len()
                ),
            });
        }
        if stds.len() != target_mu.len() {
            return Err(CoreError::InvalidArgument {
                what: "per-target stds must match the target count".into(),
            });
        }
        if stds.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(CoreError::InvalidArgument {
                what: "prediction stds must be finite and non-negative".into(),
            });
        }
        if coef.as_slice().iter().any(|c| !c.is_finite())
            || meas_mu.iter().chain(target_mu.iter()).any(|m| !m.is_finite())
        {
            return Err(CoreError::InvalidArgument {
                what: "predictor coefficients and means must be finite".into(),
            });
        }
        Ok(MeasurementPredictor {
            coef,
            meas_mu,
            target_mu,
            stds,
            kappa,
        })
    }

    /// The MMSE coefficient matrix (targets × measurements).
    pub fn coef(&self) -> &Matrix {
        &self.coef
    }

    /// Mean delays of the measured paths (ps), in measurement order.
    pub fn meas_mu(&self) -> &[f64] {
        &self.meas_mu
    }

    /// Mean delays of the target paths (ps), in target order.
    pub fn target_mu(&self) -> &[f64] {
        &self.target_mu
    }

    /// Predicts the target delays from measured delays (same order as the
    /// measurement set the predictor was built with).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] on a wrong-length input.
    pub fn predict(&self, measured: &[f64]) -> Result<Vec<f64>, CoreError> {
        if measured.len() != self.meas_mu.len() {
            return Err(CoreError::InvalidArgument {
                what: format!(
                    "expected {} measurements, got {}",
                    self.meas_mu.len(),
                    measured.len()
                ),
            });
        }
        let centered = vecops::sub(measured, &self.meas_mu);
        let mut out = self.coef.matvec(&centered)?;
        for (o, mu) in out.iter_mut().zip(self.target_mu.iter()) {
            *o += mu;
        }
        Ok(out)
    }

    /// Predicts a whole batch of measurement vectors in one fused kernel:
    /// row `q` of `measured` is one request, row `q` of the result its
    /// predicted target delays.
    ///
    /// The batch is fanned across the `pathrep-par` pool, but every output
    /// element is computed by **exactly** the floating-point operation
    /// sequence of [`MeasurementPredictor::predict`] (one centered
    /// subtraction, one `vecops::dot` per target, one mean addition), so
    /// the result rows are bit-identical to per-request `predict` calls at
    /// any worker count and any batch grouping. `pathrep-serve` relies on
    /// this to micro-batch concurrent requests without changing a single
    /// answer byte.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] when the batch width does not
    /// match the measurement count.
    pub fn predict_batch(&self, measured: &Matrix) -> Result<Matrix, CoreError> {
        if measured.ncols() != self.meas_mu.len() {
            return Err(CoreError::InvalidArgument {
                what: format!(
                    "expected {} measurements per request, got {}",
                    self.meas_mu.len(),
                    measured.ncols()
                ),
            });
        }
        let k = measured.nrows();
        let t = self.target_mu.len();
        if k == 0 || t == 0 {
            return Ok(Matrix::zeros(k, t));
        }
        let mut out = Matrix::zeros(k, t);
        let row_flops = 2 * t * self.meas_mu.len();
        pathrep_par::for_each_unit_chunk_mut(out.as_mut_slice(), t, row_flops, |first, block| {
            for (dq, out_row) in block.chunks_exact_mut(t).enumerate() {
                let centered = vecops::sub(measured.row(first + dq), &self.meas_mu);
                for (i, (o, mu)) in out_row.iter_mut().zip(self.target_mu.iter()).enumerate() {
                    *o = vecops::dot(self.coef.row(i), &centered) + mu;
                }
            }
        });
        Ok(out)
    }

    /// Per-target prediction standard deviation (ps).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Per-target worst-case error `κ·std` (ps) — the paper's `WC(Δᵢ)`.
    pub fn wc_errors(&self) -> Vec<f64> {
        self.stds.iter().map(|s| self.kappa * s).collect()
    }

    /// The paper's aggregate error `ε_r = max_i WC(Δᵢ)/T_cons` (Eqn 7).
    ///
    /// # Panics
    ///
    /// Panics if `t_cons` is not positive.
    pub fn epsilon(&self, t_cons: f64) -> f64 {
        assert!(t_cons > 0.0, "timing constraint must be positive");
        worst_case(&self.stds, self.kappa, t_cons)
    }

    /// Number of measurements the predictor consumes.
    pub fn measurement_count(&self) -> usize {
        self.meas_mu.len()
    }

    /// Number of targets the predictor produces.
    pub fn target_count(&self) -> usize {
        self.target_mu.len()
    }

    /// The worst-case multiplier κ.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-1 structure in sensitivity space: 4 paths over segments
    /// A=[g1,g3], B=[g2,g4], C=[g5,g7,g9], D=[g5,g6,g8], with variables
    /// being the per-gate randoms (spatial dropped for clarity).
    fn figure1_a() -> (Matrix, Vec<f64>) {
        // Variables: one per gate g1..g9 (index 0..9), coefficient 1.
        let seg = |gates: &[usize]| {
            let mut row = vec![0.0; 9];
            for &g in gates {
                row[g] = 1.0;
            }
            row
        };
        let a_seg = [seg(&[0, 2]), seg(&[1, 3]), seg(&[4, 6, 8]), seg(&[4, 5, 7])];
        // Paths: p1 = A+C, p2 = A+D, p3 = B+D, p4 = B+C.
        let combine = |x: &[f64], y: &[f64]| -> Vec<f64> {
            x.iter().zip(y.iter()).map(|(&a, &b)| a + b).collect()
        };
        let rows = [
            combine(&a_seg[0], &a_seg[2]),
            combine(&a_seg[0], &a_seg[3]),
            combine(&a_seg[1], &a_seg[3]),
            combine(&a_seg[1], &a_seg[2]),
        ];
        let a = Matrix::from_rows(&[&rows[0], &rows[1], &rows[2], &rows[3]]).unwrap();
        let mu = vec![100.0, 101.0, 102.0, 103.0];
        (a, mu)
    }

    #[test]
    fn exact_recovery_with_rank_many_measurements() {
        // rank(A) = 3: measuring paths 2, 3, 4 predicts path 1 exactly
        // (d_p1 = d_p2 − d_p3 + d_p4).
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1, 2, 3]);
        let meas_mu = [mu[1], mu[2], mu[3]];
        let target = a.select_rows(&[0]);
        let p =
            MeasurementPredictor::new(&target, &mu[..1], &meas, &meas_mu, DEFAULT_KAPPA).unwrap();
        assert!(p.stds()[0] < 1e-9, "prediction must be exact");
        // Check the coefficients reproduce the identity +1, −1, +1.
        let d = p.predict(&[meas_mu[0] + 2.0, meas_mu[1] - 1.0, meas_mu[2] + 0.5]).unwrap();
        assert!((d[0] - (mu[0] + 2.0 + 1.0 + 0.5)).abs() < 1e-9);
    }

    /// An 8-path model over 6 variables with no exact dependence.
    fn dense_model() -> (Matrix, Vec<f64>) {
        let a = Matrix::from_fn(8, 6, |i, j| {
            ((i * 7 + j * 3) as f64 * 0.37).sin() + if i % 6 == j { 1.5 } else { 0.0 }
        });
        (a, (0..8).map(|i| 400.0 + 3.0 * i as f64).collect())
    }

    #[test]
    fn kernel_matches_cholesky_reference() {
        use pathrep_linalg::cholesky::Cholesky;
        let (a, mu) = dense_model();
        let (meas_idx, target_idx) = ([5usize, 0, 3], [1usize, 2, 4, 6, 7]);
        let pick = |idx: &[usize]| -> Vec<f64> { idx.iter().map(|&i| mu[i]).collect() };
        let p = MeasurementPredictor::new(
            &a.select_rows(&target_idx),
            &pick(&target_idx),
            &a.select_rows(&meas_idx),
            &pick(&meas_idx),
            DEFAULT_KAPPA,
        )
        .unwrap();
        // Reference: coef_t = G_PP⁻¹·G_Pt and std_t² = G_tt − coef_t·G_Pt.
        let gram = a.matmul(&a.transpose()).unwrap();
        let g_pp = Matrix::from_fn(3, 3, |r, c| gram[(meas_idx[r], meas_idx[c])]);
        let chol = Cholesky::compute(&g_pp).unwrap();
        let measured = [mu[5] + 1.3, mu[0] - 0.4, mu[3] + 2.2];
        let pred = p.predict(&measured).unwrap();
        for (k, &t) in target_idx.iter().enumerate() {
            let g_pt: Vec<f64> = meas_idx.iter().map(|&m| gram[(m, t)]).collect();
            let coef = chol.solve(&g_pt).unwrap();
            for (c, &r) in p.coef().row(k).iter().zip(&coef) {
                assert!((c - r).abs() <= 1e-12 * r.abs().max(1.0), "target {t}: coef {c} vs {r}");
            }
            let std = (gram[(t, t)] - vecops::dot(&coef, &g_pt)).sqrt();
            let gap = (p.stds()[k] - std).abs();
            assert!(gap <= 1e-12 * std, "target {t}: std {} vs {std}", p.stds()[k]);
            let centered: Vec<f64> = (0..3).map(|q| measured[q] - mu[meas_idx[q]]).collect();
            let reference = mu[t] + vecops::dot(&coef, &centered);
            let gap = (pred[k] - reference).abs();
            assert!(gap <= 1e-12 * reference.abs(), "target {t}: {} vs {reference}", pred[k]);
        }
    }

    #[test]
    fn dependent_row_gets_zero_coefficient() {
        use pathrep_linalg::gauss;
        use rand::SeedableRng;
        let (a, mu) = dense_model();
        let t_cons = 1000.0;
        // Row 2 of the measured set is path 0 + path 3: dependent on rows 0-1.
        let sum: Vec<f64> = a.row(0).iter().zip(a.row(3)).map(|(x, y)| x + y).collect();
        let meas = Matrix::from_rows(&[a.row(0), a.row(3), &sum]).unwrap();
        let meas_mu = [mu[0], mu[3], mu[0] + mu[3]];
        let target_idx = [1usize, 2, 4, 5, 6, 7];
        let target = a.select_rows(&target_idx);
        let target_mu: Vec<f64> = target_idx.iter().map(|&i| mu[i]).collect();
        let with = MeasurementPredictor::new(&target, &target_mu, &meas, &meas_mu, 3.0).unwrap();
        let indep = MeasurementPredictor::new(
            &target,
            &target_mu,
            &a.select_rows(&[0, 3]),
            &meas_mu[..2],
            3.0,
        )
        .unwrap();
        for k in 0..target_idx.len() {
            assert_eq!(with.coef()[(k, 2)], 0.0, "dependent row must get coefficient 0");
            assert!((with.stds()[k] - indep.stds()[k]).abs() <= 1e-12 * t_cons);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let mut x = vec![0.0; a.ncols()];
            gauss::fill_standard_normal(&mut rng, &mut x);
            let m: Vec<f64> = (0..3).map(|q| meas_mu[q] + vecops::dot(meas.row(q), &x)).collect();
            let (p1, p2) = (with.predict(&m).unwrap(), indep.predict(&m[..2]).unwrap());
            for (u, v) in p1.iter().zip(&p2) {
                assert!((u - v).abs() <= 1e-12 * t_cons, "prediction {u} vs {v}");
            }
        }
    }

    #[test]
    fn coefficients_follow_the_callers_measurement_order() {
        let (a, mu) = dense_model();
        let none = Matrix::zeros(0, a.ncols());
        let columns = Columns::Rows {
            targets: &a,
            extra: &none,
        };
        let mut kernel = Conditioning::new(columns, 0.0).unwrap();
        kernel.condition(&[5, 0, 3]).unwrap();
        let order = [0usize, 3, 5];
        let (p, remaining) = kernel.predictor(&order, &mu, 3.0);
        assert_eq!(remaining, vec![1, 2, 4, 6, 7]);
        let pick = |idx: &[usize]| -> Vec<f64> { idx.iter().map(|&i| mu[i]).collect() };
        let reference = MeasurementPredictor::new(
            &a.select_rows(&remaining),
            &pick(&remaining),
            &a.select_rows(&order),
            &pick(&order),
            3.0,
        )
        .unwrap();
        let m = [mu[0] + 1.0, mu[3] - 2.0, mu[5] + 0.5];
        let (got, want) = (p.predict(&m).unwrap(), reference.predict(&m).unwrap());
        for (x, y) in got.iter().zip(&want) {
            assert!((x - y).abs() <= 1e-12 * y.abs(), "prediction {x} vs {y}");
        }
    }

    #[test]
    fn predictor_is_unbiased_and_mmse_against_monte_carlo() {
        use pathrep_linalg::gauss;
        use rand::SeedableRng;
        let (a, mu) = figure1_a();
        // Measure only path 2: prediction of the others is inexact.
        let meas = a.select_rows(&[1]);
        let targets = a.select_rows(&[0, 2, 3]);
        let tmu = [mu[0], mu[2], mu[3]];
        let p = MeasurementPredictor::new(&targets, &tmu, &meas, &mu[1..2], DEFAULT_KAPPA).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let n = 50_000;
        let mut err_sum = [0.0; 3];
        let mut err_sq = [0.0; 3];
        for _ in 0..n {
            let mut x = vec![0.0; 9];
            gauss::fill_standard_normal(&mut rng, &mut x);
            let dm = mu[1] + vecops::dot(meas.row(0), &x);
            let pred = p.predict(&[dm]).unwrap();
            for (k, t) in [0usize, 2, 3].iter().enumerate() {
                let truth = mu[*t] + vecops::dot(a.row(*t), &x);
                let e = pred[k] - truth;
                err_sum[k] += e;
                err_sq[k] += e * e;
            }
        }
        for k in 0..3 {
            let mean = err_sum[k] / n as f64;
            let std = (err_sq[k] / n as f64 - mean * mean).sqrt();
            assert!(mean.abs() < 0.05, "bias {mean} at target {k}");
            assert!(
                (std - p.stds()[k]).abs() < 0.05 * p.stds()[k].max(0.1),
                "MC std {std} vs analytic {}",
                p.stds()[k]
            );
        }
    }

    #[test]
    fn epsilon_is_max_wc_over_tcons() {
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1]);
        let targets = a.select_rows(&[0, 2]);
        let p = MeasurementPredictor::new(&targets, &mu[..2], &meas, &mu[1..2], 3.0).unwrap();
        let eps = p.epsilon(200.0);
        let expect = p.stds().iter().fold(0.0_f64, |m, &s| m.max(3.0 * s)) / 200.0;
        assert!((eps - expect).abs() < 1e-12);
    }

    #[test]
    fn dimension_checks() {
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1]);
        assert!(MeasurementPredictor::new(&a, &mu, &meas, &mu[1..2], 0.0).is_err());
        assert!(MeasurementPredictor::new(&a, &mu[..2], &meas, &mu[1..2], 3.0).is_err());
        let p = MeasurementPredictor::new(
            &a.select_rows(&[0]),
            &mu[..1],
            &meas,
            &mu[1..2],
            3.0,
        )
        .unwrap();
        assert!(p.predict(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn noise_aware_predictor_reduces_to_exact_at_zero() {
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1, 2]);
        let tgt = a.select_rows(&[0, 3]);
        let p0 = MeasurementPredictor::new(&tgt, &mu[..2], &meas, &mu[1..3], 3.0).unwrap();
        let pz = MeasurementPredictor::new_with_noise(&tgt, &mu[..2], &meas, &mu[1..3], 3.0, 0.0)
            .unwrap();
        for (a, b) in p0.stds().iter().zip(pz.stds().iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn noise_increases_error_and_shrinks_coefficients() {
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1, 2, 3]);
        let tgt = a.select_rows(&[0]);
        let clean =
            MeasurementPredictor::new(&tgt, &mu[..1], &meas, &mu[1..4], 3.0).unwrap();
        let noisy = MeasurementPredictor::new_with_noise(
            &tgt, &mu[..1], &meas, &mu[1..4], 3.0, 0.5,
        )
        .unwrap();
        assert!(noisy.stds()[0] > clean.stds()[0]);
        // Huge noise ⇒ coefficients shrink toward zero, prediction toward
        // the mean, error toward the prior σ.
        let huge = MeasurementPredictor::new_with_noise(
            &tgt, &mu[..1], &meas, &mu[1..4], 3.0, 1e6,
        )
        .unwrap();
        let d = huge
            .predict(&[mu[1] + 10.0, mu[2] - 10.0, mu[3] + 10.0])
            .unwrap();
        assert!((d[0] - mu[0]).abs() < 1e-3, "huge noise must predict the mean");
        let prior_sigma = vecops::norm2(a.row(0));
        assert!((huge.stds()[0] - prior_sigma).abs() < 1e-3 * prior_sigma);
    }

    #[test]
    fn noise_aware_validated_by_monte_carlo() {
        use pathrep_linalg::gauss;
        use rand::SeedableRng;
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1, 2]);
        let tgt = a.select_rows(&[0]);
        let sigma_m = 1.5;
        let p = MeasurementPredictor::new_with_noise(
            &tgt, &mu[..1], &meas, &mu[1..3], 3.0, sigma_m,
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let n = 60_000;
        let mut sq = 0.0;
        for _ in 0..n {
            let mut x = vec![0.0; 9];
            gauss::fill_standard_normal(&mut rng, &mut x);
            let m: Vec<f64> = [1usize, 2]
                .iter()
                .map(|&i| {
                    mu[i] + vecops::dot(a.row(i), &x)
                        + sigma_m * gauss::sample_standard_normal(&mut rng)
                })
                .collect();
            let pred = p.predict(&m).unwrap();
            let truth = mu[0] + vecops::dot(a.row(0), &x);
            sq += (pred[0] - truth) * (pred[0] - truth);
        }
        let mc_std = (sq / n as f64).sqrt();
        assert!(
            (mc_std - p.stds()[0]).abs() < 0.03 * p.stds()[0],
            "MC std {mc_std} vs analytic {}",
            p.stds()[0]
        );
    }

    #[test]
    fn negative_noise_rejected() {
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1]);
        assert!(MeasurementPredictor::new_with_noise(
            &a.select_rows(&[0]),
            &mu[..1],
            &meas,
            &mu[1..2],
            3.0,
            -1.0
        )
        .is_err());
    }

    #[test]
    fn predict_batch_is_bitwise_identical_to_predict() {
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1, 2]);
        let tgt = a.select_rows(&[0, 3]);
        let p = MeasurementPredictor::new(&tgt, &[mu[0], mu[3]], &meas, &mu[1..3], 3.0).unwrap();
        // A batch with enough rows that the pool actually splits it.
        let batch = Matrix::from_fn(37, 2, |q, j| {
            mu[1 + j] + ((q * 2 + j) as f64 * 0.37).sin() * 4.0
        });
        for threads in [1, 4] {
            pathrep_par::set_threads(threads);
            let out = p.predict_batch(&batch).unwrap();
            for q in 0..batch.nrows() {
                let single = p.predict(batch.row(q)).unwrap();
                for (x, y) in out.row(q).iter().zip(single.iter()) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "batch row {q} differs from predict at threads={threads}"
                    );
                }
            }
        }
        pathrep_par::set_threads(0);
        // Shape errors surface, and degenerate batches stay well-formed.
        assert!(p.predict_batch(&Matrix::zeros(3, 5)).is_err());
        let empty = p.predict_batch(&Matrix::zeros(0, 2)).unwrap();
        assert_eq!(empty.shape(), (0, 2));
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let (a, mu) = figure1_a();
        let meas = a.select_rows(&[1, 2]);
        let tgt = a.select_rows(&[0, 3]);
        let p = MeasurementPredictor::new(&tgt, &[mu[0], mu[3]], &meas, &mu[1..3], 3.0).unwrap();
        let back = MeasurementPredictor::from_parts(
            p.coef().clone(),
            p.meas_mu().to_vec(),
            p.target_mu().to_vec(),
            p.stds().to_vec(),
            p.kappa(),
        )
        .unwrap();
        let m = [mu[1] + 0.7, mu[2] - 1.1];
        assert_eq!(p.predict(&m).unwrap(), back.predict(&m).unwrap());
        assert_eq!(p.stds(), back.stds());
        // Validation: dimension mismatch, bad kappa, non-finite std.
        assert!(MeasurementPredictor::from_parts(
            p.coef().clone(),
            vec![0.0; 3],
            p.target_mu().to_vec(),
            p.stds().to_vec(),
            3.0
        )
        .is_err());
        assert!(MeasurementPredictor::from_parts(
            p.coef().clone(),
            p.meas_mu().to_vec(),
            p.target_mu().to_vec(),
            p.stds().to_vec(),
            0.0
        )
        .is_err());
        assert!(MeasurementPredictor::from_parts(
            p.coef().clone(),
            p.meas_mu().to_vec(),
            p.target_mu().to_vec(),
            vec![f64::NAN, 1.0],
            3.0
        )
        .is_err());
    }

    #[test]
    fn measuring_everything_gives_zero_error() {
        let (a, mu) = figure1_a();
        let p = MeasurementPredictor::new(
            &a.select_rows(&[3]),
            &mu[3..],
            &a.select_rows(&[0, 1, 2]),
            &mu[..3],
            DEFAULT_KAPPA,
        )
        .unwrap();
        // d_p4 = d_p1 − d_p2 + d_p3.
        assert!(p.stds()[0] < 1e-6);
        let d = p.predict(&[mu[0] + 1.0, mu[1] + 2.0, mu[2] + 4.0]).unwrap();
        assert!((d[0] - (mu[3] + 1.0 - 2.0 + 4.0)).abs() < 1e-9);
    }
}
