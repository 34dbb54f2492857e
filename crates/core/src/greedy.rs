//! Greedy representative-path selection.
//!
//! [`greedy_select`] is the natural baseline to the paper's Algorithm 2:
//! instead of SVD + QR-with-column-pivoting subset selection, it measures
//! the path the current measurements explain worst until the tolerance
//! holds. Each step is optimal *myopically*; the rank-revealing selection
//! optimizes the subspace jointly (`tests::comparable_to_algorithm_one`).
//! The loop runs on the conditioning kernel of [`crate::predictor`], the
//! same one Algorithm 3's Steps 3–4 ([`crate::hybrid`]) and the clustered
//! repair ([`crate::cluster`]) run, and the returned predictor is built
//! from the kernel the loop leaves behind.

use crate::predictor::{Columns, Conditioning, MeasurementPredictor};
use crate::CoreError;
use pathrep_linalg::Matrix;

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
/// remaining path (or everything is selected). When no path is over budget
/// the selection is empty and the predictor returns the means.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for inconsistent inputs.
/// * [`CoreError::Linalg`] on a shape mismatch in the conditioning kernel.
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
    let columns = Columns::Rows {
        targets: a,
        extra: &none,
    };
    let mut kernel = Conditioning::new(columns, 0.0)?;
    let selected = kernel.greedy((epsilon * t_cons / kappa).powi(2))?;
    let (predictor, remaining) = kernel.predictor(&selected, mu, kappa);
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
    use pathrep_linalg::vecops;
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
        let columns = Columns::Rows { targets: a, extra };
        let mut kernel = Conditioning::new(columns, 0.0).unwrap();
        kernel.condition(paths).unwrap();
        let remaining = (0..a.nrows()).filter(|i| !paths.contains(i));
        assert_eq!(remaining.clone().count(), p.stds().len());
        for (&std, i) in p.stds().iter().zip(remaining) {
            let gap = (kernel.variance()[i] - std * std).abs();
            let scale = vecops::dot(a.row(i), a.row(i));
            assert!(
                gap <= 1e-12 * scale,
                "path {i}: gap {gap:e}, ‖a_i‖² {scale:e}"
            );
        }
        kernel.pivot_count()
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
    fn loose_tolerance_selects_none() {
        let (a, mu) = random_model(10, 14, 4);
        let sel = greedy_select(&a, &mu, 10.0, 600.0, 3.0).unwrap();
        assert!(sel.selected.is_empty());
        assert_eq!(sel.remaining, (0..10).collect::<Vec<_>>());
        // The empty plan predicts the means, with the prior stds ‖a_i‖.
        assert_eq!(sel.predictor.predict(&[]).unwrap(), mu);
        for (i, &std) in sel.predictor.stds().iter().enumerate() {
            assert_eq!(std, vecops::norm2(a.row(i)), "path {i}");
        }
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
