//! Sketched selection: Algorithms 1 and 2 on sparse models.
//!
//! The dense front ends ([`crate::exact`] / [`crate::approx`]) compute a
//! full SVD of `A` and the full Gram `G = A·Aᵀ` — both infeasible once
//! `A` has 100k+ rows. These front ends run the same search over
//!
//! * a seeded randomized range-finder + sketched SVD
//!   ([`pathrep_linalg::sketch::sketched_svd`]) whose left factor stands
//!   in for `U` in Algorithm 2's pivoted QR;
//! * the Gram columns `A·A_selᵀ` (`n × r`) from sparse products plus the
//!   Gram diagonal instead of the full `n × n` Gram — the conditioning
//!   kernel of [`crate::predictor`] needs nothing else.
//!
//! The sketch is deterministic (fixed seed, sequential Gaussian fill), so
//! results are bit-identical at any `PATHREP_THREADS`, same as the dense
//! kernels. The sketch dimension, power-iteration count and seed come
//! from [`SketchConfig`].

use crate::approx::Schedule;
use crate::select::{search, Goal, Selection, Source, DEFAULT_ETA};
use crate::CoreError;
use pathrep_linalg::sketch::{sketched_svd, SketchConfig};
use pathrep_linalg::sparse::SparseMatrix;

/// Configuration for [`sketch_approx_select`].
#[derive(Debug, Clone, PartialEq)]
pub struct SketchApproxConfig {
    /// Error tolerance ε (fraction of `T_cons`), e.g. 0.05.
    pub epsilon: f64,
    /// Timing constraint `T_cons` (ps).
    pub t_cons: f64,
    /// Worst-case multiplier κ.
    pub kappa: f64,
    /// Range-finder parameters (sketch columns, power iterations, seed).
    pub sketch: SketchConfig,
}

impl SketchApproxConfig {
    /// Paper-style defaults (κ = 3) with the default sketch.
    pub fn new(epsilon: f64, t_cons: f64) -> Self {
        SketchApproxConfig {
            epsilon,
            t_cons,
            kappa: crate::predictor::DEFAULT_KAPPA,
            sketch: SketchConfig::default(),
        }
    }
}

/// Exact-mode sketched selection: `r` = numerical rank of the sketch.
///
/// The sketched analogue of [`crate::exact::exact_select`]: when the
/// sketch captures the full spectrum (energy capture ≈ 1), the selection
/// and predictor coincide with the dense exact path up to pivot ties.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] on mismatched `mu` / bad κ.
/// * [`CoreError::Linalg`] on factorization failure (including a
///   non-finite input to the sketch).
pub fn sketch_exact_select(
    a: &SparseMatrix,
    mu: &[f64],
    kappa: f64,
    sketch: &SketchConfig,
) -> Result<Selection, CoreError> {
    let _span = pathrep_obs::span!("sketch_exact_select");
    let sketch = sketched_svd(a, sketch)?;
    search(&Source::Sketched { a, sketch: &sketch }, mu, kappa, Goal::Exact)
}

/// Tolerance-mode sketched selection: Algorithm 1's bisection over `r`
/// in the sketched subspace, with the effective rank at η = 5 %.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for bad configuration or mismatched
///   inputs.
/// * [`CoreError::Linalg`] on factorization failure.
pub fn sketch_approx_select(
    a: &SparseMatrix,
    mu: &[f64],
    config: &SketchApproxConfig,
) -> Result<Selection, CoreError> {
    let _span = pathrep_obs::span!("sketch_approx_select");
    let sketch = sketched_svd(a, &config.sketch)?;
    let goal = Goal::Tolerance {
        epsilon: config.epsilon,
        t_cons: config.t_cons,
        schedule: Schedule::Bisection,
        eta: DEFAULT_ETA,
    };
    search(&Source::Sketched { a, sketch: &sketch }, mu, config.kappa, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approx_select, ApproxConfig};
    use crate::exact::exact_select;
    use crate::predictor::DEFAULT_KAPPA;
    use pathrep_linalg::Matrix;
    use rand::{Rng, SeedableRng};

    /// Dense low-effective-rank model (same shape as the approx.rs
    /// fixture) and its sparse mirror.
    fn model(n: usize, noise: f64) -> (Matrix, SparseMatrix, Vec<f64>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let nx = n + 2;
        let a = Matrix::from_fn(n, nx, |i, j| {
            if j == 0 {
                8.0 * ((i as f64 * 0.3).sin() + 1.5)
            } else if j == 1 {
                6.0 * ((i as f64 * 0.7).cos() + 1.2)
            } else if j == i + 2 {
                noise * rng.gen_range(0.5..1.5)
            } else {
                0.0
            }
        });
        let sparse = SparseMatrix::from_dense(&a);
        let mu = (0..n).map(|i| 400.0 + i as f64).collect();
        (a, sparse, mu)
    }

    fn full_sketch(n: usize) -> SketchConfig {
        // Sketch wide enough to capture the whole spectrum: parity with
        // the dense path is then exact up to rounding.
        SketchConfig {
            sketch_cols: n,
            ..SketchConfig::default()
        }
    }

    #[test]
    fn exact_mode_matches_dense_exact_selection() {
        let (dense, sparse, mu) = model(30, 0.4);
        let d = exact_select(&dense, &mu, DEFAULT_KAPPA).unwrap();
        let s = sketch_exact_select(&sparse, &mu, DEFAULT_KAPPA, &full_sketch(30)).unwrap();
        assert_eq!(s.rank, d.rank, "sketch rank disagrees with dense rank");
        let mut ds = d.selected.clone();
        let mut ss = s.selected.clone();
        ds.sort_unstable();
        ss.sort_unstable();
        assert_eq!(ds, ss, "selection sets disagree");
        assert!(s.energy_capture > 0.999, "capture {}", s.energy_capture);
    }

    #[test]
    fn exact_mode_predicts_remaining_paths() {
        use pathrep_linalg::gauss;
        let (dense, sparse, mu) = model(20, 0.3);
        let s = sketch_exact_select(&sparse, &mu, DEFAULT_KAPPA, &full_sketch(20)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let mut x = vec![0.0; dense.ncols()];
            gauss::fill_standard_normal(&mut rng, &mut x);
            let d_all: Vec<f64> = (0..dense.nrows())
                .map(|i| mu[i] + pathrep_linalg::vecops::dot(dense.row(i), &x))
                .collect();
            let measured: Vec<f64> = s.selected.iter().map(|&i| d_all[i]).collect();
            let pred = s.predictor.predict(&measured).unwrap();
            for (k, &m) in s.remaining.iter().enumerate() {
                assert!(
                    (pred[k] - d_all[m]).abs() < 1e-6,
                    "path {m} predicted {} truth {}",
                    pred[k],
                    d_all[m]
                );
            }
        }
    }

    #[test]
    fn approx_mode_matches_dense_algorithm_one() {
        let (dense, sparse, mu) = model(40, 0.2);
        let dense_sel = approx_select(&dense, &mu, &ApproxConfig::new(0.05, 500.0)).unwrap();
        let mut cfg = SketchApproxConfig::new(0.05, 500.0);
        cfg.sketch = full_sketch(40);
        let sketch_sel = sketch_approx_select(&sparse, &mu, &cfg).unwrap();
        assert_eq!(
            sketch_sel.selected.len(),
            dense_sel.selected.len(),
            "selection sizes disagree (dense eps {}, sketch eps {})",
            dense_sel.epsilon_r,
            sketch_sel.epsilon_r
        );
        assert!(sketch_sel.epsilon_r <= 0.05 + 1e-12);
        assert!(
            (sketch_sel.epsilon_r - dense_sel.epsilon_r).abs() < 1e-6,
            "epsilon_r diverged: dense {} sketch {}",
            dense_sel.epsilon_r,
            sketch_sel.epsilon_r
        );
    }

    #[test]
    fn narrow_sketch_still_selects_within_tolerance() {
        // A sketch far below n still captures the two dominant directions,
        // so the tolerance is met with a handful of paths.
        let (_, sparse, mu) = model(60, 0.1);
        let mut cfg = SketchApproxConfig::new(0.05, 500.0);
        cfg.sketch = SketchConfig {
            sketch_cols: 12,
            ..SketchConfig::default()
        };
        let sel = sketch_approx_select(&sparse, &mu, &cfg).unwrap();
        assert!(sel.selected.len() <= 12);
        assert!(sel.epsilon_r <= 0.05 + 1e-12, "epsilon_r {}", sel.epsilon_r);
    }

    #[test]
    fn deterministic_across_runs() {
        let (_, sparse, mu) = model(30, 0.3);
        let cfg = SketchApproxConfig::new(0.05, 500.0);
        let a = sketch_approx_select(&sparse, &mu, &cfg).unwrap();
        let b = sketch_approx_select(&sparse, &mu, &cfg).unwrap();
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.epsilon_r.to_bits(), b.epsilon_r.to_bits());
        assert_eq!(a.energy_capture.to_bits(), b.energy_capture.to_bits());
    }

    #[test]
    fn bad_config_rejected() {
        let (_, sparse, mu) = model(10, 0.2);
        assert!(sketch_approx_select(&sparse, &mu, &SketchApproxConfig::new(0.0, 500.0)).is_err());
        assert!(sketch_approx_select(&sparse, &mu, &SketchApproxConfig::new(0.05, 0.0)).is_err());
        let mut cfg = SketchApproxConfig::new(0.05, 500.0);
        cfg.kappa = -1.0;
        assert!(sketch_approx_select(&sparse, &mu, &cfg).is_err());
        assert!(sketch_approx_select(&sparse, &mu[..2], &SketchApproxConfig::new(0.05, 500.0))
            .is_err());
        assert!(sketch_exact_select(&sparse, &mu, -1.0, &SketchConfig::default()).is_err());
        assert!(sketch_exact_select(&sparse, &mu[..2], 3.0, &SketchConfig::default()).is_err());
    }
}
