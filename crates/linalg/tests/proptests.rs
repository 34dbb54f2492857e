//! Property-based tests for the linear-algebra kernels.

use pathrep_linalg::cholesky::Cholesky;
use pathrep_linalg::eig::SymmetricEig;
use pathrep_linalg::gauss;
use pathrep_linalg::qr::Qr;
use pathrep_linalg::svd::Svd;
use pathrep_linalg::Matrix;
use proptest::prelude::*;

/// Strategy: a matrix with entries in [-5, 5] and shape within the bounds.
fn matrix_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-5.0..5.0f64, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("sized to fit"))
    })
}

/// Strategy: a square matrix.
fn square_strategy(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-5.0..5.0f64, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized to fit"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(a in matrix_strategy(12, 12)) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_associates_with_transpose(a in matrix_strategy(8, 6)) {
        // (A Aᵀ)ᵀ = A Aᵀ — the Gram matrix is symmetric.
        let g = a.matmul(&a.transpose()).unwrap();
        prop_assert!(g.approx_eq(&g.transpose(), 1e-10));
    }

    #[test]
    fn svd_reconstructs(a in matrix_strategy(10, 10)) {
        let svd = Svd::compute(&a).unwrap();
        let back = svd.reconstruct().unwrap();
        let scale = a.norm_max().max(1.0);
        prop_assert!(back.approx_eq(&a, 1e-9 * scale),
            "reconstruction error {:e}", back.sub(&a).unwrap().norm_max());
    }

    #[test]
    fn svd_frobenius_identity(a in matrix_strategy(10, 10)) {
        // ‖A‖_F² = Σ σᵢ².
        let svd = Svd::compute(&a).unwrap();
        let ssq: f64 = svd.singular_values().iter().map(|s| s * s).sum();
        let f2 = a.norm_fro().powi(2);
        prop_assert!((ssq - f2).abs() <= 1e-8 * f2.max(1.0));
    }

    #[test]
    fn svd_effective_rank_monotone_in_eta(a in matrix_strategy(9, 9)) {
        let svd = Svd::compute(&a).unwrap();
        let r1 = svd.effective_rank(0.01).unwrap();
        let r5 = svd.effective_rank(0.05).unwrap();
        let r20 = svd.effective_rank(0.20).unwrap();
        prop_assert!(r20 <= r5 && r5 <= r1);
        prop_assert!(r1 <= svd.singular_values().len());
    }

    #[test]
    fn qr_pivoted_reconstructs_permuted(a in matrix_strategy(10, 8)) {
        let qr = Qr::compute_pivoted(&a).unwrap();
        let ap = a.select_cols(qr.perm());
        let back = qr.q_thin().matmul(&qr.r()).unwrap();
        let scale = a.norm_max().max(1.0);
        prop_assert!(back.approx_eq(&ap, 1e-9 * scale));
    }

    #[test]
    fn qr_pivot_diagonal_nonincreasing(a in matrix_strategy(10, 8)) {
        let qr = Qr::compute_pivoted(&a).unwrap();
        let r = qr.r();
        let k = r.nrows().min(r.ncols());
        for i in 1..k {
            prop_assert!(r[(i, i)].abs() <= r[(i - 1, i - 1)].abs() * (1.0 + 1e-9) + 1e-12);
        }
    }

    #[test]
    fn qr_perm_is_permutation(a in matrix_strategy(10, 8)) {
        let qr = Qr::compute_pivoted(&a).unwrap();
        let mut seen = vec![false; a.ncols()];
        for &p in qr.perm() {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cholesky_solve_has_small_residual_on_spd(a in matrix_strategy(8, 5)) {
        // AᵀA + I is SPD.
        let mut g = a.transpose().matmul(&a).unwrap();
        for i in 0..g.nrows() {
            g[(i, i)] += 1.0;
        }
        let b: Vec<f64> = (0..g.nrows()).map(|i| (i as f64 + 1.0).sqrt()).collect();
        let x = Cholesky::compute(&g).unwrap().solve(&b).unwrap();
        let back = g.matvec(&x).unwrap();
        let residual: Vec<f64> = back.iter().zip(&b).map(|(u, v)| u - v).collect();
        prop_assert!(pathrep_linalg::vecops::norm2(&residual) <= 1e-8);
    }

    #[test]
    fn eig_reconstructs_symmetric(a in square_strategy(9)) {
        let sym = a.add(&a.transpose()).unwrap().scale(0.5);
        let eig = SymmetricEig::compute(&sym).unwrap();
        let back = eig.reconstruct().unwrap();
        let scale = sym.norm_max().max(1.0);
        prop_assert!(back.approx_eq(&sym, 1e-8 * scale));
    }

    #[test]
    fn eig_values_match_trace_and_frobenius(a in square_strategy(9)) {
        let sym = a.add(&a.transpose()).unwrap().scale(0.5);
        let eig = SymmetricEig::compute(&sym).unwrap();
        let tr: f64 = eig.values().iter().sum();
        prop_assert!((tr - sym.trace()).abs() < 1e-8 * sym.norm_max().max(1.0) * sym.nrows() as f64);
        let ssq: f64 = eig.values().iter().map(|v| v * v).sum();
        let f2 = sym.norm_fro().powi(2);
        prop_assert!((ssq - f2).abs() <= 1e-7 * f2.max(1.0));
    }

    #[test]
    fn normal_quantile_round_trip(p in 0.0005..0.9995f64) {
        let x = gauss::normal_quantile(p);
        prop_assert!((gauss::normal_cdf(x) - p).abs() < 1e-6);
    }

    #[test]
    fn svd_singular_values_bound_matvec(a in matrix_strategy(8, 8), xs in proptest::collection::vec(-1.0..1.0f64, 8)) {
        // ‖A x‖ ≤ σ_max ‖x‖ for any x.
        let n = a.ncols();
        let x = &xs[..n];
        let svd = Svd::compute(&a).unwrap();
        let smax = svd.singular_values()[0];
        let ax = a.matvec(x).unwrap();
        let nax = pathrep_linalg::vecops::norm2(&ax);
        let nx = pathrep_linalg::vecops::norm2(x);
        prop_assert!(nax <= smax * nx * (1.0 + 1e-9) + 1e-12);
    }
}
