//! Algorithm 2: subset selection by SVD + QR with column pivoting.
//!
//! To pick `r` rows of `A` that are "as linearly independent as possible",
//! compute the SVD `A = U·Σ·Vᵀ`, take the leading `r` columns of `U`
//! (the dominant left subspace), and run QR with column pivoting on
//! `U_rᵀ`: the first `r` pivot columns correspond to the rows of `A` whose
//! span best captures that subspace (Golub & Van Loan's subset-selection
//! procedure, the same `svd()` + `qr()` pipeline the paper uses).

use crate::CoreError;
use pathrep_linalg::qr::Qr;
use pathrep_linalg::svd::Svd;
use pathrep_linalg::Matrix;

/// Selects `r` row indices of `a` via SVD + QR-CP (Algorithm 2).
///
/// Returns the indices in pivot order (most independent first).
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] when `r` is zero or exceeds the row
///   count.
/// * [`CoreError::Linalg`] if a factorization fails.
pub fn select_rows(a: &Matrix, r: usize) -> Result<Vec<usize>, CoreError> {
    let svd = Svd::compute(a)?;
    select_rows_from_left(&svd, r)
}

/// [`select_rows`] from a precomputed left factor: pivots on the leading
/// `r` columns of `svd.u()` without ever touching `A`, whose row count is
/// `svd.u().nrows()`. Algorithm 1 calls this once per candidate `r` with
/// either the dense SVD or a sketched one.
///
/// # Errors
///
/// Same as [`select_rows`], plus [`CoreError::InvalidArgument`] when `r`
/// exceeds the number of singular values.
pub fn select_rows_from_left(svd: &Svd, r: usize) -> Result<Vec<usize>, CoreError> {
    let _span = pathrep_obs::span!("subset_select");
    pathrep_obs::counter_add("core.subset.calls", 1);
    let n = svd.u().nrows();
    if r == 0 || r > n {
        return Err(CoreError::InvalidArgument {
            what: format!("subset size r={r} must lie in 1..={n}"),
        });
    }
    let k = svd.singular_values().len();
    if r > k {
        return Err(CoreError::InvalidArgument {
            what: format!("subset size r={r} exceeds min(n, |x|)={k}"),
        });
    }
    // U_r: the first r columns of U (n × r); pivot on its transpose.
    let ur_t = Matrix::from_fn(r, n, |i, j| svd.u()[(j, i)]);
    let qr = Qr::compute_pivoted(&ur_t)?;
    Ok(qr.perm()[..r].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_requested_count_without_duplicates() {
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[1.0, 0.1, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
        ])
        .unwrap();
        let sel = select_rows(&a, 3).unwrap();
        assert_eq!(sel.len(), 3);
        let mut s = sel.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 3, "duplicate selection");
    }

    #[test]
    fn full_rank_selection_spans_all_rows() {
        // With r = rank(A), the selected rows must span the row space: the
        // residual of projecting every row onto the selected ones is zero.
        let a = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[2.0, 1.0, 1.0], // = row0 + row1
        ])
        .unwrap();
        let svd = Svd::compute(&a).unwrap();
        let rank = svd.rank(1e-10);
        assert_eq!(rank, 3);
        let sel = select_rows_from_left(&svd, rank).unwrap();
        let ar = a.select_rows(&sel);
        // Row space check: rank([A; A_r]) == rank(A_r).
        let stacked = a.vstack(&ar).unwrap();
        assert_eq!(Svd::compute(&stacked).unwrap().rank(1e-10), rank);
    }

    #[test]
    fn avoids_nearly_dependent_pairs() {
        // Rows 0 and 1 are nearly identical; selecting two rows should
        // avoid taking both.
        let a = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[1.0, 1e-9],
            &[0.0, 1.0],
        ])
        .unwrap();
        let sel = select_rows(&a, 2).unwrap();
        let both_dupes = sel.contains(&0) && sel.contains(&1);
        assert!(!both_dupes, "selected the nearly-dependent pair {sel:?}");
    }

    #[test]
    fn selected_rows_well_conditioned() {
        // Compare smallest singular value of the selected r×m block against
        // picking the first r rows on a matrix designed to punish that.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        // Rows 0..5 all nearly parallel; rows 5..10 diverse.
        let base: Vec<f64> = (0..6).map(|j| (j as f64 + 1.0).sin()).collect();
        let a = Matrix::from_fn(10, 6, |i, j| {
            if i < 5 {
                base[j] + 1e-6 * rng.gen_range(-1.0..1.0)
            } else {
                rng.gen_range(-1.0..1.0)
            }
        });
        let sel = select_rows(&a, 4).unwrap();
        let smin_sel = *Svd::compute(&a.select_rows(&sel))
            .unwrap()
            .singular_values()
            .last()
            .unwrap();
        let smin_first = *Svd::compute(&a.select_rows(&[0, 1, 2, 3]))
            .unwrap()
            .singular_values()
            .last()
            .unwrap();
        assert!(
            smin_sel > 100.0 * smin_first,
            "pivoted selection ({smin_sel:e}) no better than naive ({smin_first:e})"
        );
    }

    #[test]
    fn rejects_bad_r() {
        let a = Matrix::identity(3);
        assert!(select_rows(&a, 0).is_err());
        assert!(select_rows(&a, 4).is_err());
        assert!(select_rows(&a, 3).is_ok());
    }

    #[test]
    fn r_exceeding_variable_count_rejected() {
        // 4 rows but only 2 variables: r = 3 > min(n, |x|) is invalid.
        let a = Matrix::from_fn(4, 2, |i, j| (i + j) as f64 + 1.0);
        assert!(select_rows(&a, 3).is_err());
    }
}
