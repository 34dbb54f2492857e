//! Theorem 1: exact representative-path selection with `r = rank(A)`.

use crate::factors::ModelFactors;
use crate::select::{search, Goal, Selection, Source};
use crate::CoreError;
use pathrep_linalg::Matrix;

/// Relative singular-value cutoff used for the numerical rank of `A`.
pub const RANK_TOL: f64 = 1e-9;

/// Exact selection: pick `rank(A)` rows of `A` (Algorithm 2) so that every
/// remaining target path is an exact linear combination of them (the
/// predictor's error is zero up to rounding).
///
/// # Errors
///
/// * [`CoreError::Linalg`] on factorization failure.
/// * [`CoreError::InvalidArgument`] if `mu` does not match `a` or κ ≤ 0.
pub fn exact_select(a: &Matrix, mu: &[f64], kappa: f64) -> Result<Selection, CoreError> {
    let factors = ModelFactors::compute(a)?;
    exact_select_with(a, mu, kappa, &factors)
}

/// [`exact_select`] with precomputed factorizations (shared with
/// Algorithms 1 and 3, whose front-ends already paid for them).
///
/// # Errors
///
/// Same as [`exact_select`].
pub fn exact_select_with(
    a: &Matrix,
    mu: &[f64],
    kappa: f64,
    factors: &ModelFactors,
) -> Result<Selection, CoreError> {
    let _span = pathrep_obs::span!("exact_select");
    search(&Source::Dense { a, factors }, mu, kappa, Goal::Exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::DEFAULT_KAPPA;

    fn rank_deficient_a() -> (Matrix, Vec<f64>) {
        // 5 paths in a 4-dimensional variable space with rank 3.
        let a = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0],
            &[1.0, 0.0, -1.0, 0.0], // row0 − row1
            &[0.0, 0.0, 0.0, 2.0],
            &[1.0, 1.0, 0.0, 2.0], // row0 + row3
        ])
        .unwrap();
        let mu = vec![10.0, 11.0, 12.0, 13.0, 14.0];
        (a, mu)
    }

    #[test]
    fn selects_rank_many_paths() {
        let (a, mu) = rank_deficient_a();
        let sel = exact_select(&a, &mu, DEFAULT_KAPPA).unwrap();
        assert_eq!(sel.rank, 3);
        assert_eq!(sel.selected.len(), 3);
        assert_eq!(sel.remaining.len(), 2);
    }

    #[test]
    fn prediction_error_is_zero() {
        let (a, mu) = rank_deficient_a();
        let sel = exact_select(&a, &mu, DEFAULT_KAPPA).unwrap();
        for &s in sel.predictor.stds() {
            assert!(s < 1e-6, "exact selection must have zero error, got {s}");
        }
    }

    #[test]
    fn exact_recovery_on_random_realizations() {
        use pathrep_linalg::gauss;
        use rand::SeedableRng;
        let (a, mu) = rank_deficient_a();
        let sel = exact_select(&a, &mu, DEFAULT_KAPPA).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..25 {
            let mut x = vec![0.0; 4];
            gauss::fill_standard_normal(&mut rng, &mut x);
            let d_all: Vec<f64> = (0..5)
                .map(|i| mu[i] + pathrep_linalg::vecops::dot(a.row(i), &x))
                .collect();
            let measured: Vec<f64> = sel.selected.iter().map(|&i| d_all[i]).collect();
            let pred = sel.predictor.predict(&measured).unwrap();
            for (k, &m) in sel.remaining.iter().enumerate() {
                assert!(
                    (pred[k] - d_all[m]).abs() < 1e-8,
                    "path {m} predicted {} truth {}",
                    pred[k],
                    d_all[m]
                );
            }
        }
    }

    #[test]
    fn full_rank_selects_min_of_paths_and_vars() {
        // Full-rank wide A: rank = number of paths.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).unwrap();
        let sel = exact_select(&a, &[1.0, 2.0], DEFAULT_KAPPA).unwrap();
        assert_eq!(sel.rank, 2);
        assert!(sel.remaining.is_empty());
    }

    #[test]
    fn mu_length_checked() {
        let a = Matrix::identity(3);
        assert!(exact_select(&a, &[1.0], DEFAULT_KAPPA).is_err());
    }
}
