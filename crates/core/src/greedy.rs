//! Greedy representative-path selection, and the one conditioning kernel
//! behind every "measure the worst-predicted path" loop in this crate.
//!
//! [`greedy_select`] is the natural baseline to the paper's Algorithm 2:
//! instead of SVD + QR-with-column-pivoting subset selection, it measures
//! the path the current measurements explain worst until the tolerance
//! holds. Each step is optimal *myopically*; the rank-revealing selection
//! optimizes the subspace jointly (`tests::comparable_to_algorithm_one`).
//! Algorithm 3's Steps 3–4 ([`crate::hybrid`]) and the clustered repair
//! ([`crate::cluster`]) run the same loop on [`Conditioning`]: a partial
//! pivoted Cholesky of `K = M·Mᵀ`, with `M` the target rows of `A` over
//! measured non-target rows (segments of `Σ`). It keeps only its `k` pivot
//! columns, `(n + m)·k` numbers, never the `n × n` Gram, and leaves each
//! target's conditional variance, the Theorem-2 `std²` of
//! [`MeasurementPredictor`], on its diagonal. EffiTest predicts its
//! untested paths from the same conditional Gaussian.

use crate::predictor::MeasurementPredictor;
use crate::CoreError;
use pathrep_linalg::{vecops, Matrix};

/// A measured row whose conditioned variance is at most this fraction of
/// its own is linearly dependent on the rows measured before it, and adds
/// no pivot column.
const DEPENDENT_PIVOT: f64 = 1e-10;

/// Pivoted conditioning of the target paths on measured rows. Row `i < n`
/// of `M` is target `i`; row `n + s` is row `s` of `extra`. Every method
/// fails only on a [`CoreError::Linalg`] width mismatch of the two.
pub(crate) struct Conditioning<'a> {
    targets: &'a Matrix,
    extra: &'a Matrix,
    /// Largest variance a prediction may keep: `(ε·T_cons/κ)²`.
    budget: f64,
    /// Pivot columns `L_:p` of the partial Cholesky factor of `K`.
    pivots: Vec<Vec<f64>>,
    /// `diag(K) − Σ_p L_:p²`: each row's variance given the measured rows.
    variance: Vec<f64>,
    /// Which targets are measured.
    measured: Vec<bool>,
}

impl<'a> Conditioning<'a> {
    /// Conditions `targets` on the measured non-target rows `extra`.
    pub(crate) fn new(
        targets: &'a Matrix,
        extra: &'a Matrix,
        budget: f64,
    ) -> Result<Self, CoreError> {
        let (n, m) = (targets.nrows(), extra.nrows());
        let rows = (0..n)
            .map(|i| targets.row(i))
            .chain((0..m).map(|s| extra.row(s)));
        let mut kernel = Conditioning {
            targets,
            extra,
            budget,
            pivots: Vec::new(),
            variance: rows.map(|r| vecops::dot(r, r)).collect(),
            measured: vec![false; n],
        };
        kernel.condition(&(n..n + m).collect::<Vec<_>>())?;
        Ok(kernel)
    }

    fn row(&self, i: usize) -> &'a [f64] {
        match i.checked_sub(self.targets.nrows()) {
            None => self.targets.row(i),
            Some(s) => self.extra.row(s),
        }
    }

    /// Conditions on the rows `rows` of `M`, in order, with the columns
    /// `K_:j = M·M_jᵀ` from one product. A row dependent on those measured
    /// before it adds no pivot, but still counts as measured.
    pub(crate) fn condition(&mut self, rows: &[usize]) -> Result<(), CoreError> {
        if rows.is_empty() {
            return Ok(());
        }
        let picked_t = Matrix::from_fn(self.targets.ncols(), rows.len(), |c, q| {
            self.row(rows[q])[c]
        });
        let cross = self
            .targets
            .matmul(&picked_t)?
            .vstack(&self.extra.matmul(&picked_t)?)?;
        for (q, &j) in rows.iter().enumerate() {
            if let Some(m) = self.measured.get_mut(j) {
                *m = true;
            }
            let mut col = cross.col(q);
            for l in &self.pivots {
                vecops::axpy(-l[j], l, &mut col);
            }
            let pivot = col[j];
            let row = self.row(j);
            if pivot > DEPENDENT_PIVOT * vecops::dot(row, row) {
                let scale = pivot.sqrt().recip();
                for (v, c) in self.variance.iter_mut().zip(col.iter_mut()) {
                    *c *= scale;
                    *v -= *c * *c;
                }
                self.pivots.push(col);
            }
        }
        Ok(())
    }

    /// Every unmeasured target whose variance exceeds the budget, in index
    /// order. A NaN variance never does.
    pub(crate) fn over_budget(&self) -> Vec<usize> {
        (0..self.measured.len())
            .filter(|&i| !self.measured[i] && self.variance[i] > self.budget)
            .collect()
    }

    /// Measures the over-budget target with the largest variance (ties to
    /// the lowest index) until none is left; returns the picks in order.
    /// Each pick marks a target measured, so this ends within `n` picks.
    pub(crate) fn greedy(&mut self) -> Result<Vec<usize>, CoreError> {
        let mut added = Vec::new();
        // `max_by` keeps the last of equal maxima: scan from the top index.
        while let Some(j) = (self.over_budget().into_iter().rev())
            .max_by(|&w, &i| self.variance[w].total_cmp(&self.variance[i]))
        {
            self.condition(&[j])?;
            added.push(j);
        }
        Ok(added)
    }
}

/// Result of greedy selection.
#[derive(Debug, Clone)]
pub struct GreedySelection {
    /// Selected path indices, in pick order (most informative first).
    pub selected: Vec<usize>,
    /// Remaining (predicted) paths.
    pub remaining: Vec<usize>,
    /// Theorem-2 predictor from the selected to the remaining paths.
    pub predictor: MeasurementPredictor,
    /// Achieved worst-case error.
    pub epsilon_r: f64,
}

/// Greedily selects representative paths until `κ·std ≤ ε·T_cons` for every
/// remaining path (or everything is selected).
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for inconsistent inputs.
/// * [`CoreError::Linalg`] if the final predictor construction fails.
pub fn greedy_select(
    a: &Matrix,
    mu: &[f64],
    epsilon: f64,
    t_cons: f64,
    kappa: f64,
) -> Result<GreedySelection, CoreError> {
    let n = a.nrows();
    if mu.len() != n {
        return Err(CoreError::InvalidArgument {
            what: "mean vector must match the row count of A".into(),
        });
    }
    if epsilon <= 0.0 || t_cons <= 0.0 || kappa <= 0.0 {
        return Err(CoreError::InvalidArgument {
            what: "epsilon, t_cons and kappa must be positive".into(),
        });
    }
    let none = Matrix::zeros(0, a.ncols());
    let mut selected = Conditioning::new(a, &none, (epsilon * t_cons / kappa).powi(2))?.greedy()?;
    if selected.is_empty() {
        // Even with zero measurements every path is within budget; keep one
        // representative so the protocol is non-degenerate.
        selected.push(0);
    }

    let cross = a.matmul(&a.select_rows(&selected).transpose())?;
    let diag: Vec<f64> = (0..n).map(|i| vecops::dot(a.row(i), a.row(i))).collect();
    let (predictor, remaining) =
        MeasurementPredictor::from_cross_gram(&cross, &diag, mu, &selected, kappa)?;
    Ok(GreedySelection {
        selected,
        remaining,
        epsilon_r: predictor.epsilon(t_cons),
        predictor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approx_select, ApproxConfig};
    use rand::{Rng, SeedableRng};

    fn random_model(n: usize, nx: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Two dominant shared directions plus per-path noise.
        let a = Matrix::from_fn(n, nx, |i, j| {
            if j == 0 {
                6.0 + (i as f64 * 0.3).sin()
            } else if j == 1 {
                4.0 * (i as f64 * 0.5).cos()
            } else if j == i % nx {
                rng.gen_range(0.3..1.5)
            } else {
                0.0
            }
        });
        let mu = (0..n).map(|i| 500.0 + i as f64).collect();
        (a, mu)
    }

    /// Twelve paths in a rank-2 variable space, clustered four by four by
    /// disjoint segments: the per-cluster picks are jointly dependent.
    fn rank_two_model() -> (Matrix, Vec<f64>, Matrix) {
        let a = Matrix::from_fn(12, 6, |i, j| {
            let (u, v) = (1.0 + 0.1 * i as f64, 2.0 - 0.3 * i as f64);
            u * [3.0, 1.0, 0.0, 2.0, 1.0, 0.5][j] + v * [0.0, -1.0, 2.0, -1.0, 0.5, -3.0][j]
        });
        let g = Matrix::from_fn(12, 3, |i, s| if i / 4 == s { 1.0 } else { 0.0 });
        let mu = (0..12).map(|i| 500.0 + i as f64).collect();
        (a, mu, g)
    }

    /// Conditions a fresh kernel on the non-target rows `extra`, then on the
    /// targets `paths`, and requires every other path's variance to match
    /// `predictor.stds()²` within `1e-12·‖a_i‖²`. Returns the pivot count,
    /// below the measured-row count when dependent rows were skipped.
    fn check(a: &Matrix, extra: &Matrix, paths: &[usize], p: &MeasurementPredictor) -> usize {
        let mut kernel = Conditioning::new(a, extra, 0.0).unwrap();
        kernel.condition(paths).unwrap();
        let remaining = (0..a.nrows()).filter(|i| !paths.contains(i));
        assert_eq!(remaining.clone().count(), p.stds().len());
        for (&std, i) in p.stds().iter().zip(remaining) {
            let gap = (kernel.variance[i] - std * std).abs();
            let scale = vecops::dot(a.row(i), a.row(i));
            assert!(
                gap <= 1e-12 * scale,
                "path {i}: gap {gap:e}, ‖a_i‖² {scale:e}"
            );
        }
        kernel.pivots.len()
    }

    #[test]
    fn meets_the_tolerance() {
        let (a, mu) = random_model(20, 24, 1);
        let sel = greedy_select(&a, &mu, 0.05, 600.0, 3.0).unwrap();
        assert!(sel.epsilon_r <= 0.05 + 1e-9, "eps_r = {}", sel.epsilon_r);
        assert_eq!(sel.selected.len() + sel.remaining.len(), 20);
    }

    #[test]
    fn conditioning_update_matches_fresh_predictor() {
        use crate::cluster::{clustered_select, ClusterConfig};
        use crate::hybrid::tests::Toy;
        use crate::hybrid::{hybrid_select, HybridConfig};
        // greedy_select: every pick is independent of the earlier ones.
        let (a, mu) = random_model(12, 15, 2);
        let none = Matrix::zeros(0, a.ncols());
        let sel = greedy_select(&a, &mu, 0.02, 600.0, 3.0).unwrap();
        let pivots = check(&a, &none, &sel.selected, &sel.predictor);
        assert_eq!(pivots, sel.selected.len());

        // hybrid_select, and the joint [Σ_S; A_P] predictor it builds, here
        // with path 0 = segment 0 + segment 2 measured too: a dependent row.
        let toy = Toy::new();
        let inputs = toy.inputs();
        let hyb = hybrid_select(&inputs, &HybridConfig::new(0.08, 0.04, 130.0)).unwrap();
        let seg = inputs.sigma.select_rows(&hyb.segments);
        let pivots = check(inputs.a, &seg, &hyb.paths, &hyb.predictor);
        assert_eq!(pivots, hyb.measurement_count());
        let seg = inputs.sigma.select_rows(&[0, 2]);
        let meas = seg.vstack(&inputs.a.select_rows(&[0, 1])).unwrap();
        let target = inputs.a.select_rows(&[2, 3]);
        let joint = MeasurementPredictor::new(&target, &[0.0; 2], &meas, &[0.0; 4], 3.0).unwrap();
        assert_eq!(check(inputs.a, &seg, &[0, 1], &joint), 3);

        // clustered_select: three clusters each pick from one rank-2 space.
        let (a, mu, g) = rank_two_model();
        let none = Matrix::zeros(0, a.ncols());
        let cfg = ClusterConfig::new(ApproxConfig::new(0.001, 600.0), 4);
        let clu = clustered_select(&a, &mu, &g, &cfg).unwrap();
        let pivots = check(&a, &none, &clu.selected, &clu.predictor);
        assert_eq!((clu.selected.len(), pivots), (6, 2));
    }

    #[test]
    fn comparable_to_algorithm_one() {
        // Greedy is myopic: it may pick more paths than Algorithm 1, but
        // should stay within a small factor on well-structured models.
        let (a, mu) = random_model(30, 34, 3);
        let greedy = greedy_select(&a, &mu, 0.05, 600.0, 3.0).unwrap();
        let algo1 = approx_select(&a, &mu, &ApproxConfig::new(0.05, 600.0)).unwrap();
        assert!(
            greedy.selected.len() <= 2 * algo1.selected.len() + 2,
            "greedy {} vs algo1 {}",
            greedy.selected.len(),
            algo1.selected.len()
        );
    }

    #[test]
    fn loose_tolerance_selects_one() {
        let (a, mu) = random_model(10, 14, 4);
        let sel = greedy_select(&a, &mu, 10.0, 600.0, 3.0).unwrap();
        assert_eq!(sel.selected.len(), 1);
    }

    #[test]
    fn pick_order_is_most_informative_first() {
        let (a, mu) = random_model(15, 18, 5);
        let sel = greedy_select(&a, &mu, 0.01, 600.0, 3.0).unwrap();
        // The first pick must be the largest-variance path.
        let gram = a.matmul(&a.transpose()).unwrap();
        let first_var = gram[(sel.selected[0], sel.selected[0])];
        for i in 0..15 {
            assert!(gram[(i, i)] <= first_var + 1e-9);
        }
    }

    #[test]
    fn input_validation() {
        let (a, mu) = random_model(5, 8, 6);
        assert!(greedy_select(&a, &mu[..2], 0.05, 600.0, 3.0).is_err());
        assert!(greedy_select(&a, &mu, 0.0, 600.0, 3.0).is_err());
        assert!(greedy_select(&a, &mu, 0.05, 0.0, 3.0).is_err());
    }
}
