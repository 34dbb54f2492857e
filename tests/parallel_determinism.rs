//! The pathrep-par determinism contract, end to end: every parallel kernel
//! must produce *bit-identical* results at any worker count, because the
//! accuracy gate byte-compares numerical-health ledgers across
//! `PATHREP_THREADS` settings and the perf gate cross-checks operation
//! counters between its two thread axes.
//!
//! The pool size is process-global state, so every test serializes on one
//! mutex and restores the environment-resolved default before returning.

use pathrep::core::approx::{approx_select, ApproxConfig};
use pathrep::eval::metrics::{evaluate, McConfig, McMetrics, MeasurementPlan};
use pathrep::eval::pipeline::{prepare, PipelineConfig};
use pathrep::eval::suite::BenchmarkSpec;
use pathrep::linalg::qr::Qr;
use pathrep::linalg::svd::Svd;
use pathrep::linalg::Matrix;
use std::sync::Mutex;

static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` twice — once with the pool pinned to 1 worker, once with 4 —
/// and returns both results. Restores the default pool size afterwards.
fn at_1_and_4<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = POOL_LOCK.lock().unwrap();
    pathrep::par::set_threads(1);
    let sequential = f();
    pathrep::par::set_threads(4);
    let parallel = f();
    pathrep::par::set_threads(0);
    (sequential, parallel)
}

/// Bit-exact comparison: `==` on f64 would already reject any reordering,
/// but comparing the raw bits also distinguishes `-0.0` from `0.0` and
/// makes the failure message unambiguous.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x:?} (t1) != {y:?} (t4)"
        );
    }
}

fn test_matrix(m: usize, n: usize, phase: f64) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        ((i * n + j) as f64 * 0.7310 + phase).sin() * 3.0 + 0.1 * (i as f64 - j as f64)
    })
}

#[test]
fn matmul_and_matvec_are_thread_count_invariant() {
    let a = test_matrix(37, 29, 0.0);
    let b = test_matrix(29, 41, 1.3);
    let x: Vec<f64> = (0..29).map(|k| ((k as f64) * 0.31).cos()).collect();
    let ((c1, v1), (c4, v4)) = at_1_and_4(|| {
        let c = a.matmul(&b).unwrap();
        let v = a.matvec(&x).unwrap();
        (c, v)
    });
    assert_bits_eq(c1.as_slice(), c4.as_slice(), "matmul");
    assert_bits_eq(&v1, &v4, "matvec");
}

#[test]
fn pivoted_qr_is_thread_count_invariant() {
    let a = test_matrix(40, 24, 2.1);
    let (s, p) = at_1_and_4(|| {
        let qr = Qr::compute_pivoted(&a).unwrap();
        (qr.r(), qr.q_thin(), qr.perm().to_vec())
    });
    assert_eq!(s.2, p.2, "pivot order must not depend on the worker count");
    assert_bits_eq(s.0.as_slice(), p.0.as_slice(), "qr.r");
    assert_bits_eq(s.1.as_slice(), p.1.as_slice(), "qr.q_thin");
}

#[test]
fn svd_is_thread_count_invariant() {
    let a = test_matrix(35, 22, 4.2);
    let (s, p) = at_1_and_4(|| {
        let svd = Svd::compute(&a).unwrap();
        (
            svd.singular_values().to_vec(),
            svd.u().clone(),
            svd.v().clone(),
        )
    });
    assert_bits_eq(&s.0, &p.0, "singular values");
    assert_bits_eq(s.1.as_slice(), p.1.as_slice(), "svd.u");
    assert_bits_eq(s.2.as_slice(), p.2.as_slice(), "svd.v");
}

#[test]
fn monte_carlo_evaluation_is_thread_count_invariant() {
    let spec = BenchmarkSpec {
        name: "par-determinism",
        n_gates: 220,
        n_inputs: 18,
        n_outputs: 14,
        model_levels: 3,
        seed: 31,
        depth: None,
    };
    let pb = prepare(&spec, &PipelineConfig::default()).expect("pipeline prepares");
    let dm = &pb.delay_model;
    let sel = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(0.05, pb.t_cons))
        .expect("approx selection succeeds");
    let plan = MeasurementPlan::Paths {
        selected: &sel.selected,
        predictor: &sel.predictor,
    };
    // 700 samples = two full 256-chunks plus a ragged tail, so the chunked
    // split itself (not just a single chunk) is what gets compared.
    let mc = McConfig {
        n_samples: 700,
        seed: 7,
        threads: 0,
    };
    let (s, p): (McMetrics, McMetrics) =
        at_1_and_4(|| evaluate(dm, &plan, &sel.remaining, &mc).expect("MC evaluation succeeds"));
    assert_eq!(s.e1.to_bits(), p.e1.to_bits(), "e1 differs across threads");
    assert_eq!(s.e2.to_bits(), p.e2.to_bits(), "e2 differs across threads");
    assert_bits_eq(&s.per_path_max, &p.per_path_max, "per_path_max");
    assert_bits_eq(&s.per_path_avg, &p.per_path_avg, "per_path_avg");
}

#[test]
fn explicit_mc_thread_override_matches_global_pool() {
    let spec = BenchmarkSpec {
        name: "par-override",
        n_gates: 220,
        n_inputs: 18,
        n_outputs: 14,
        model_levels: 3,
        seed: 31,
        depth: None,
    };
    let pb = prepare(&spec, &PipelineConfig::default()).expect("pipeline prepares");
    let dm = &pb.delay_model;
    let sel = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(0.05, pb.t_cons))
        .expect("approx selection succeeds");
    let plan = MeasurementPlan::Paths {
        selected: &sel.selected,
        predictor: &sel.predictor,
    };
    let _guard = POOL_LOCK.lock().unwrap();
    let run = |threads: usize| {
        let mc = McConfig {
            n_samples: 600,
            seed: 11,
            threads,
        };
        evaluate(dm, &plan, &sel.remaining, &mc).expect("MC evaluation succeeds")
    };
    let base = run(1);
    for threads in [2, 3, 5] {
        let other = run(threads);
        assert_eq!(base, other, "threads={threads} changed the MC metrics");
    }
}
