//! Theorem 2: the optimal linear predictor and its analytic error.
//!
//! With all variables standard normal, the minimum-mean-square-error linear
//! predictor of the unmeasured delays `d_m` from measured delays `d_r` is
//!
//! ```text
//! d̂_m = µ_m + A_m A_rᵀ (A_r A_rᵀ)⁺ (d_r − µ_r)
//! ```
//!
//! and the prediction error `Δ = d̂_m − d_m = Ω x` is zero-mean Gaussian
//! with per-path standard deviation given by the rows of
//! `Ω = coef·A_r − A_m`. The worst case used for guard-banding is
//! `WC(Δᵢ) = κ·std(Δᵢ)` (the paper's `WC(·)`; κ = 3 by default).

use crate::CoreError;
use pathrep_linalg::cholesky::Cholesky;
use pathrep_linalg::lstsq;
use pathrep_linalg::{vecops, Matrix};

/// Default worst-case multiplier κ (three-sigma, 99.87 % one-sided).
pub const DEFAULT_KAPPA: f64 = 3.0;

/// Relative singular-value cutoff for the pseudo-inverse.
const PINV_TOL: f64 = 1e-10;

/// Solves `X·G = R` (i.e. `X = R·G⁻¹`) for a symmetric PSD `G`, using a
/// jittered Cholesky factorization and falling back to the SVD
/// pseudo-inverse when `G` is numerically singular beyond the jitter's
/// reach. This is the hot kernel of Algorithm 1's per-candidate error
/// evaluation, where an SVD per candidate would dominate the runtime.
fn solve_right_psd(gram: &Matrix, rhs: &Matrix) -> Result<Matrix, CoreError> {
    let n = gram.nrows();
    let mean_diag = (0..n).map(|i| gram[(i, i)].abs()).sum::<f64>() / n.max(1) as f64;
    let jitter = 1e-10 * mean_diag.max(1e-30);
    match Cholesky::compute_with_jitter(gram, jitter, 6) {
        Ok(ch) => {
            // X·G = R ⟺ G·Xᵀ = Rᵀ (G symmetric).
            let xt = ch.solve_matrix(&rhs.transpose())?;
            Ok(xt.transpose())
        }
        Err(_) => {
            let pinv = lstsq::pseudo_inverse(gram, PINV_TOL)?;
            Ok(rhs.matmul(&pinv)?)
        }
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
    /// is the mean, and `std_i = ‖target row i‖`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] on dimension mismatches or κ ≤ 0.
    /// * [`CoreError::Linalg`] if the pseudo-inverse fails.
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
    /// `A_t Mᵀ (M Mᵀ + σ²I)⁺` and the prediction error gains the
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
        if meas_sens.nrows() == 0 {
            return Ok(MeasurementPredictor {
                coef: Matrix::zeros(target_sens.nrows(), 0),
                meas_mu: Vec::new(),
                target_mu: target_mu.to_vec(),
                stds: (0..target_sens.nrows())
                    .map(|i| vecops::norm2(target_sens.row(i)))
                    .collect(),
                kappa,
            });
        }
        // coef = A_t Mᵀ (M Mᵀ + σ²I)⁺
        let cross = target_sens.matmul(&meas_sens.transpose())?;
        let mut gram = meas_sens.matmul(&meas_sens.transpose())?;
        for i in 0..gram.nrows() {
            gram[(i, i)] += noise_sigma * noise_sigma;
        }
        let coef = solve_right_psd(&gram, &cross)?;
        // Ω = coef·M − A_t; Var(Δᵢ) = ‖row(Ω)‖² + σ²‖row(coef)‖².
        let omega = coef.matmul(meas_sens)?.sub(target_sens)?;
        let stds: Vec<f64> = (0..omega.nrows())
            .map(|i| {
                let model = vecops::norm2(omega.row(i));
                if noise_sigma == 0.0 {
                    return model;
                }
                (model.powi(2) + (noise_sigma * vecops::norm2(coef.row(i))).powi(2)).sqrt()
            })
            .collect();
        Ok(MeasurementPredictor {
            coef,
            meas_mu: meas_mu.to_vec(),
            target_mu: target_mu.to_vec(),
            stds,
            kappa,
        })
    }

    /// Builds the path-subset predictor (Theorem 2 exactly) from the
    /// *thin* cross-Gram block `C = G[·, selected] = A·A_selᵀ` (`n × r`,
    /// columns in `selected` order) plus the diagonal of the full Gram
    /// `G = A·Aᵀ` (`diag[i] = ‖row i of A‖²`), and the full mean vector.
    ///
    /// This avoids touching `A` itself: everything Algorithm 1 needs per
    /// candidate `r` comes from `C` — a column slice of a precomputed `G`
    /// in the dense pipeline, a sparse product in the sketched one, so the
    /// full `n × n` Gram need never exist. The resulting predictor maps
    /// measured delays (in `selected` order) to the *remaining* paths,
    /// whose indices are returned alongside.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidArgument`] on bad indices / shapes / κ.
    /// * [`CoreError::Linalg`] if the pseudo-inverse fails.
    pub fn from_cross_gram(
        cross: &Matrix,
        diag: &[f64],
        mu: &[f64],
        selected: &[usize],
        kappa: f64,
    ) -> Result<(Self, Vec<usize>), CoreError> {
        if kappa <= 0.0 {
            return Err(CoreError::InvalidArgument {
                what: "kappa must be positive".into(),
            });
        }
        let n = cross.nrows();
        if cross.ncols() != selected.len() {
            return Err(CoreError::InvalidArgument {
                what: format!(
                    "cross-gram has {} columns but {} selected rows",
                    cross.ncols(),
                    selected.len()
                ),
            });
        }
        if mu.len() != n || diag.len() != n {
            return Err(CoreError::InvalidArgument {
                what: "cross-gram rows must match the mean and diagonal vectors".into(),
            });
        }
        let mut is_sel = vec![false; n];
        for &s in selected {
            if s >= n {
                return Err(CoreError::InvalidArgument {
                    what: format!("selected index {s} out of range"),
                });
            }
            if std::mem::replace(&mut is_sel[s], true) {
                return Err(CoreError::InvalidArgument {
                    what: format!("selected index {s} repeated"),
                });
            }
        }
        let remaining: Vec<usize> = (0..n).filter(|&i| !is_sel[i]).collect();
        // G_rr and G_mr are row-slices of the thin cross block: column j of
        // `cross` is already G[·, selected[j]].
        let g_rr = cross.select_rows(selected);
        let g_mr = cross.select_rows(&remaining);
        let coef = solve_right_psd(&g_rr, &g_mr)?;
        let stds: Vec<f64> = remaining
            .iter()
            .enumerate()
            .map(|(k, &mi)| {
                let quad = vecops::dot(coef.row(k), g_mr.row(k));
                (diag[mi] - quad).max(0.0).sqrt()
            })
            .collect();
        let meas_mu: Vec<f64> = selected.iter().map(|&i| mu[i]).collect();
        let target_mu: Vec<f64> = remaining.iter().map(|&i| mu[i]).collect();
        Ok((
            MeasurementPredictor {
                coef,
                meas_mu,
                target_mu,
                stds,
                kappa,
            },
            remaining,
        ))
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
        // Keep each worker busy for ~a quarter-million flops before fanning
        // out; below that the batch stays inline on the calling thread.
        let row_flops = 2 * t * self.meas_mu.len();
        let min_rows = (1 << 18) / row_flops.max(1) + 1;
        pathrep_par::for_each_unit_chunk_mut(out.as_mut_slice(), t, min_rows, |first, block| {
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
        self.stds
            .iter()
            .map(|s| self.kappa * s / t_cons)
            .fold(0.0, f64::max)
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

    /// `G[·, selected]` and the Gram diagonal of the Figure-1 model.
    fn cross_gram(a: &Matrix, selected: &[usize]) -> (Matrix, Vec<f64>) {
        let gram = a.matmul(&a.transpose()).unwrap();
        let diag = (0..gram.nrows()).map(|i| gram[(i, i)]).collect();
        (gram.select_cols(selected), diag)
    }

    #[test]
    fn from_cross_gram_rejects_inconsistent_shapes() {
        let (a, mu) = figure1_a();
        let (cross, diag) = cross_gram(&a, &[1, 3]);
        // Column count must match the selected count.
        assert!(
            MeasurementPredictor::from_cross_gram(&cross, &diag, &mu, &[1], DEFAULT_KAPPA).is_err()
        );
        // Diagonal must cover every row.
        assert!(MeasurementPredictor::from_cross_gram(
            &cross,
            &diag[..2],
            &mu,
            &[1, 3],
            DEFAULT_KAPPA
        )
        .is_err());
        // Out-of-range and repeated indices rejected.
        assert!(
            MeasurementPredictor::from_cross_gram(&cross, &diag, &mu, &[1, 9], DEFAULT_KAPPA)
                .is_err()
        );
        assert!(
            MeasurementPredictor::from_cross_gram(&cross, &diag, &mu, &[1, 1], DEFAULT_KAPPA)
                .is_err()
        );
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

    #[test]
    fn gram_constructor_matches_direct() {
        let (a, mu) = figure1_a();
        let (cross, diag) = cross_gram(&a, &[1, 3]);
        let (pg, remaining) =
            MeasurementPredictor::from_cross_gram(&cross, &diag, &mu, &[1, 3], DEFAULT_KAPPA)
                .unwrap();
        assert_eq!(remaining, vec![0, 2]);
        let meas = a.select_rows(&[1, 3]);
        let target = a.select_rows(&[0, 2]);
        let pd = MeasurementPredictor::new(
            &target,
            &[mu[0], mu[2]],
            &meas,
            &[mu[1], mu[3]],
            DEFAULT_KAPPA,
        )
        .unwrap();
        for (s1, s2) in pg.stds().iter().zip(pd.stds().iter()) {
            assert!((s1 - s2).abs() < 1e-9, "stds disagree: {s1} vs {s2}");
        }
        let m = [mu[1] + 1.0, mu[3] - 2.0];
        let d1 = pg.predict(&m).unwrap();
        let d2 = pd.predict(&m).unwrap();
        for (x, y) in d1.iter().zip(d2.iter()) {
            assert!((x - y).abs() < 1e-9);
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
        let (cross, diag) = cross_gram(&a, &[1]);
        assert!(MeasurementPredictor::from_cross_gram(&cross, &diag, &mu, &[1], 0.0).is_err());
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
        let (cross, diag) = cross_gram(&a, &[0, 1, 2]);
        let (p, remaining) =
            MeasurementPredictor::from_cross_gram(&cross, &diag, &mu, &[0, 1, 2], DEFAULT_KAPPA)
                .unwrap();
        // Path 3 = p1 − p2 + p3 wait: d_p4 = d_p1 − d_p2 + d_p3.
        assert_eq!(remaining, vec![3]);
        assert!(p.stds()[0] < 1e-6);
    }
}
