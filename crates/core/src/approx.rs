//! Algorithm 1: approximate representative-path selection with tolerance ε.
//!
//! Starting from the exact size `r = rank(A)` (error 0), the algorithm
//! shrinks `r` as long as the analytic worst-case error `ε_r` (Theorem 2 /
//! Eqn 7) stays within the tolerance. The effective rank of `A` explains
//! *why* `r` can shrink far below `rank(A)`: when the singular values decay
//! fast, a few dominant directions carry almost all delay variance.
//!
//! Two search schedules are provided: the paper's decrement-by-one loop and
//! a bisection that exploits the (empirically monotone) error-vs-`r` curve,
//! reducing the number of error evaluations from `O(rank)` to `O(log rank)`.

use crate::factors::ModelFactors;
use crate::select::{search, Goal, Selection, Source, DEFAULT_ETA};
use crate::CoreError;
use pathrep_linalg::Matrix;

/// Search schedule for Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The paper's loop: decrement `r` by one until the tolerance breaks.
    DecrementByOne,
    /// Bisection on `r`. Every `r` it returns meets the tolerance; if the
    /// error is not monotone in `r`, a smaller passing `r` may be missed.
    Bisection,
}

/// Configuration for [`approx_select`].
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxConfig {
    /// Error tolerance ε (fraction of `T_cons`), e.g. 0.05.
    pub epsilon: f64,
    /// Timing constraint `T_cons` (ps).
    pub t_cons: f64,
    /// Worst-case multiplier κ.
    pub kappa: f64,
    /// Search schedule.
    pub schedule: Schedule,
    /// Effective-rank energy threshold η (diagnostic only).
    pub eta: f64,
}

impl ApproxConfig {
    /// Paper-style defaults: κ = 3, bisection schedule, η = 5 %.
    pub fn new(epsilon: f64, t_cons: f64) -> Self {
        ApproxConfig {
            epsilon,
            t_cons,
            kappa: crate::predictor::DEFAULT_KAPPA,
            schedule: Schedule::Bisection,
            eta: DEFAULT_ETA,
        }
    }

    /// Sets the schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }
}

/// Runs Algorithm 1 on the delay model `(A, µ)`.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for bad configuration or mismatched
///   inputs.
/// * [`CoreError::Linalg`] on factorization failure.
pub fn approx_select(a: &Matrix, mu: &[f64], config: &ApproxConfig) -> Result<Selection, CoreError> {
    let factors = ModelFactors::compute(a)?;
    approx_select_with(a, mu, config, &factors)
}

/// [`approx_select`] with precomputed factorizations.
///
/// # Errors
///
/// Same as [`approx_select`].
pub fn approx_select_with(
    a: &Matrix,
    mu: &[f64],
    config: &ApproxConfig,
    factors: &ModelFactors,
) -> Result<Selection, CoreError> {
    let _span = pathrep_obs::span!("approx_select");
    let goal = Goal::Tolerance {
        epsilon: config.epsilon,
        t_cons: config.t_cons,
        schedule: config.schedule,
        eta: config.eta,
    };
    search(&Source::Dense { a, factors }, mu, config.kappa, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A delay model with two dominant directions plus faint independent
    /// noise: rank is full but two measurements predict everything well.
    fn low_effective_rank_model(n: usize, noise: f64) -> (Matrix, Vec<f64>) {
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
        let mu = (0..n).map(|i| 400.0 + i as f64).collect();
        (a, mu)
    }

    #[test]
    fn shrinks_far_below_rank() {
        let (a, mu) = low_effective_rank_model(40, 0.2);
        let cfg = ApproxConfig::new(0.05, 500.0);
        let sel = approx_select(&a, &mu, &cfg).unwrap();
        assert_eq!(sel.rank, 40);
        assert!(
            sel.selected.len() <= 6,
            "selected {} paths, expected a handful",
            sel.selected.len()
        );
        assert!(sel.epsilon_r <= 0.05);
    }

    #[test]
    fn schedules_agree() {
        let (a, mu) = low_effective_rank_model(25, 0.3);
        let cfg_b = ApproxConfig::new(0.05, 500.0);
        let cfg_d = ApproxConfig::new(0.05, 500.0).with_schedule(Schedule::DecrementByOne);
        let sb = approx_select(&a, &mu, &cfg_b).unwrap();
        let sd = approx_select(&a, &mu, &cfg_d).unwrap();
        assert_eq!(sb.selected.len(), sd.selected.len());
        // Bisection must evaluate far fewer candidates.
        assert!(sb.trace.len() < sd.trace.len());
    }

    #[test]
    fn tighter_tolerance_needs_more_paths() {
        let (a, mu) = low_effective_rank_model(30, 0.5);
        let loose = approx_select(&a, &mu, &ApproxConfig::new(0.10, 500.0)).unwrap();
        let tight = approx_select(&a, &mu, &ApproxConfig::new(0.005, 500.0)).unwrap();
        assert!(loose.selected.len() <= tight.selected.len());
    }

    #[test]
    fn achieved_error_within_tolerance() {
        let (a, mu) = low_effective_rank_model(30, 0.4);
        let cfg = ApproxConfig::new(0.03, 500.0);
        let sel = approx_select(&a, &mu, &cfg).unwrap();
        assert!(sel.epsilon_r <= 0.03 + 1e-12);
        // And the reported error matches the predictor's own accounting.
        assert!((sel.predictor.epsilon(500.0) - sel.epsilon_r).abs() < 1e-12);
    }

    #[test]
    fn effective_rank_reported() {
        let (a, mu) = low_effective_rank_model(40, 0.05);
        let sel = approx_select(&a, &mu, &ApproxConfig::new(0.05, 500.0)).unwrap();
        assert!(sel.effective_rank <= 4, "effective rank {}", sel.effective_rank);
        assert!(sel.effective_rank >= 1);
    }

    #[test]
    fn bad_config_rejected() {
        let (a, mu) = low_effective_rank_model(5, 0.1);
        assert!(approx_select(&a, &mu, &ApproxConfig::new(0.0, 500.0)).is_err());
        assert!(approx_select(&a, &mu, &ApproxConfig::new(0.05, 0.0)).is_err());
        let mut cfg = ApproxConfig::new(0.05, 500.0);
        cfg.kappa = -1.0;
        assert!(approx_select(&a, &mu, &cfg).is_err());
        assert!(approx_select(&a, &mu[..2], &ApproxConfig::new(0.05, 500.0)).is_err());
    }

    #[test]
    fn selection_never_empty() {
        let (a, mu) = low_effective_rank_model(10, 0.1);
        // A huge tolerance still keeps at least one representative path.
        let sel = approx_select(&a, &mu, &ApproxConfig::new(10.0, 500.0)).unwrap();
        assert_eq!(sel.selected.len(), 1);
    }
}
