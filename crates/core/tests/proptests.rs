//! Property-based tests for the selection algorithms.

use pathrep_core::approx::{approx_select, ApproxConfig};
use pathrep_core::exact::exact_select;
use pathrep_core::predictor::{MeasurementPredictor, DEFAULT_KAPPA};
use pathrep_core::subset::select_rows;
use pathrep_linalg::svd::Svd;
use pathrep_linalg::{vecops, Matrix};
use proptest::prelude::*;

/// Random "sensitivity" matrices with non-negative entries (delay
/// sensitivities are non-negative) and a guaranteed non-zero first row.
fn sens_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.0..2.0f64, rows * cols).prop_map(move |mut data| {
        data[0] += 0.5; // avoid the all-zero degenerate case
        Matrix::from_vec(rows, cols, data).expect("sized to fit")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn subset_selection_returns_distinct_valid_indices(a in sens_strategy(8, 6), r in 1usize..5) {
        let sel = select_rows(&a, r).expect("selection");
        prop_assert_eq!(sel.len(), r);
        let mut s = sel.clone();
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), r);
        prop_assert!(s.iter().all(|&i| i < 8));
    }

    #[test]
    fn exact_selection_spans_and_recovers(a in sens_strategy(7, 5)) {
        let mu: Vec<f64> = (0..7).map(|i| 100.0 + i as f64).collect();
        let sel = exact_select(&a, &mu, DEFAULT_KAPPA).expect("exact");
        // Theorem 1: every selected-size equals the numerical rank and the
        // residual error is (numerically) zero.
        let rank = Svd::compute(&a).expect("svd").rank(1e-9);
        prop_assert_eq!(sel.selected.len(), rank.max(1));
        for &s in sel.predictor.stds() {
            prop_assert!(s < 1e-5, "exact selection residual {s}");
        }
    }

    #[test]
    fn approx_is_never_larger_than_exact(a in sens_strategy(9, 6)) {
        let mu: Vec<f64> = (0..9).map(|i| 300.0 + i as f64).collect();
        let cfg = ApproxConfig::new(0.05, 400.0);
        let approx = approx_select(&a, &mu, &cfg).expect("approx");
        prop_assert!(approx.selected.len() <= approx.rank);
        prop_assert!(approx.epsilon_r <= 0.05 + 1e-12);
    }

    #[test]
    fn predictor_error_shrinks_with_more_measurements(a in sens_strategy(8, 5)) {
        let mu = [100.0; 8];
        let targets = a.select_rows(&[4, 5, 6, 7]);
        let predictor = |k: usize| {
            let meas = a.select_rows(&(0..k).collect::<Vec<_>>());
            MeasurementPredictor::new(&targets, &mu[4..], &meas, &mu[..k], DEFAULT_KAPPA)
        };
        let p2 = predictor(2).expect("two");
        let p4 = predictor(4).expect("four");
        // Compare the shared remaining paths 4..8: more measurements can
        // only reduce the MMSE error.
        let s2: f64 = p2.stds().iter().sum();
        let s4: f64 = p4.stds().iter().sum();
        prop_assert!(s4 <= s2 + 1e-8, "four-measurement error {s4} above two-measurement {s2}");
    }

    #[test]
    fn predictor_is_exact_on_consistent_data(a in sens_strategy(6, 4)) {
        // For any x, predicting from ALL rows but one reproduces delays that
        // lie in the span when rank permits; at minimum, the predictor is
        // consistent: predicting from the full row set gives zero residual
        // for any remaining path in the row space.
        let mu = vec![50.0; 6];
        let sel = exact_select(&a, &mu, DEFAULT_KAPPA).expect("exact");
        let x: Vec<f64> = (0..4).map(|j| (j as f64 * 0.7).sin()).collect();
        let d: Vec<f64> = (0..6)
            .map(|i| mu[i] + vecops::dot(a.row(i), &x))
            .collect();
        let measured: Vec<f64> = sel.selected.iter().map(|&i| d[i]).collect();
        let pred = sel.predictor.predict(&measured).expect("predict");
        for (k, &m) in sel.remaining.iter().enumerate() {
            prop_assert!((pred[k] - d[m]).abs() < 1e-6);
        }
    }

    #[test]
    fn epsilon_monotone_in_tolerance(a in sens_strategy(9, 6)) {
        let mu = vec![400.0; 9];
        let loose = approx_select(&a, &mu, &ApproxConfig::new(0.2, 500.0)).expect("loose");
        let tight = approx_select(&a, &mu, &ApproxConfig::new(0.01, 500.0)).expect("tight");
        prop_assert!(loose.selected.len() <= tight.selected.len());
    }
}
