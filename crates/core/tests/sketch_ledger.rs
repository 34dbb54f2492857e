//! Ledger contract for sketched Algorithm 1: the `core/sketch_approx_select`
//! record carries the same acceptance facts as the dense
//! `core/approx_select` record, so a sketch too narrow for ε shows up in
//! the ledger and not only as a warn event.
//!
//! This lives in its own integration-test binary (a separate process) so
//! enabling the global ledger cannot interfere with other tests.

use pathrep_core::sketch::{sketch_approx_select, SketchApproxConfig};
use pathrep_linalg::sketch::SketchConfig;
use pathrep_linalg::sparse::SparseMatrix;
use pathrep_linalg::Matrix;
use pathrep_obs::json::JsonValue;

#[test]
fn narrow_sketch_with_unreachable_epsilon_records_unaccepted_selection() {
    // 60 paths: two shared directions plus an independent per-path term,
    // so a 4-column sketch cannot predict every path to within 1e-6.
    let n = 60;
    let a = Matrix::from_fn(n, n + 2, |i, j| match j {
        0 => 8.0 * ((i as f64 * 0.3).sin() + 1.5),
        1 => 6.0 * ((i as f64 * 0.7).cos() + 1.2),
        _ if j == i + 2 => 0.1 + 0.01 * (i % 7) as f64,
        _ => 0.0,
    });
    let sparse = SparseMatrix::from_dense(&a);
    let mu: Vec<f64> = (0..n).map(|i| 400.0 + i as f64).collect();
    let config = SketchApproxConfig {
        epsilon: 1e-6,
        sketch: SketchConfig {
            sketch_cols: 4,
            ..SketchConfig::default()
        },
        ..SketchApproxConfig::new(1e-6, 500.0)
    };

    pathrep_obs::ledger::set_collecting(true);
    let sel = sketch_approx_select(&sparse, &mu, &config).expect("selection succeeds");
    let records = pathrep_obs::ledger::records();
    pathrep_obs::ledger::set_collecting(false);

    assert!(sel.epsilon_r > config.epsilon, "fixture must miss ε, got {}", sel.epsilon_r);
    let rec = records
        .iter()
        .find(|r| r.stage == "core" && r.name == "sketch_approx_select")
        .expect("sketch_approx_select record written");
    assert_eq!(rec.fact("accepted"), Some(&JsonValue::Bool(false)));
    assert_eq!(rec.num("epsilon"), Some(config.epsilon));
    assert_eq!(rec.num("epsilon_r"), Some(sel.epsilon_r));
    assert_eq!(rec.num("effective_rank"), Some(sel.effective_rank as f64));
    assert_eq!(rec.num("sketch_cols"), Some(4.0));
}
