//! The work-accounting determinism contract: `work.<kernel>.*` counters
//! are model-based operation counts, not measurements, so their totals
//! must be bit-identical at any `PATHREP_THREADS` setting and across
//! repeated runs — that is what lets the perf gate cross-check its t1/tN
//! axes and the accuracy gate byte-compare work facts between ledgers.
//!
//! Also the instrumentation drift guard: every kernel the attribution
//! plane knows about must report nonzero work on a seeded workload, so a
//! refactor that silently drops a `work::record` call fails here instead
//! of producing quietly incomplete attributions.

use pathrep::core::approx::{approx_select, ApproxConfig};
use pathrep::eval::metrics::{evaluate, McConfig, MeasurementPlan};
use pathrep::eval::pipeline::{prepare, PipelineConfig};
use pathrep::eval::suite::BenchmarkSpec;
use pathrep::linalg::cholesky::Cholesky;
use pathrep::linalg::qr::Qr;
use pathrep::linalg::svd::Svd;
use pathrep::linalg::Matrix;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Pool size and the obs registry are both process-global; serialize.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` against a clean registry and returns the `work.*` counters it
/// deposited.
fn work_counters_of(f: impl Fn()) -> BTreeMap<String, u64> {
    pathrep::obs::set_enabled(true);
    pathrep::obs::reset();
    f();
    let snap = pathrep::obs::registry().snapshot();
    pathrep::obs::reset();
    snap.counters
        .iter()
        .filter(|c| c.name.starts_with("work."))
        .map(|c| (c.name.clone(), c.value))
        .collect()
}

fn test_matrix(m: usize, n: usize, phase: f64) -> Matrix {
    Matrix::from_fn(m, n, |i, j| {
        ((i * n + j) as f64 * 0.7310 + phase).sin() * 3.0 + 0.1 * (i as f64 - j as f64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Work totals are invariant across worker counts and repetition for a
    /// matmul + pivoted-QR + SVD workload of property-chosen shape.
    #[test]
    fn work_counters_are_thread_count_invariant(
        m in 8usize..24,
        n in 4usize..12,
        phase in 0.0..6.0f64,
    ) {
        let workload = || {
            let a = test_matrix(m, n, phase);
            let b = test_matrix(n, m, phase + 1.0);
            let _ = a.matmul(&b).unwrap();
            let _ = Qr::compute_pivoted(&a).unwrap();
            let _ = Svd::compute(&a).unwrap();
        };
        let _guard = LOCK.lock().unwrap();
        pathrep::par::set_threads(1);
        let t1 = work_counters_of(workload);
        let t1_again = work_counters_of(workload);
        pathrep::par::set_threads(4);
        let t4 = work_counters_of(workload);
        pathrep::par::set_threads(0);
        prop_assert!(!t1.is_empty(), "workload must deposit work counters");
        prop_assert_eq!(&t1, &t1_again, "work counters drift across repeats");
        prop_assert_eq!(&t1, &t4, "work counters differ between 1 and 4 workers");
    }
}

/// Every kernel instrumented with `work::record` must report nonzero work
/// on a seeded end-to-end workload. Kernel list mirrors the attribution
/// plane's vocabulary; `decompose_segments` is integer bookkeeping (zero
/// flops by design) so its bytes are checked instead.
#[test]
fn every_instrumented_kernel_reports_work() {
    let _guard = LOCK.lock().unwrap();
    pathrep::par::set_threads(0);
    let work = work_counters_of(|| {
        let spec = BenchmarkSpec {
            name: "work-drift-guard",
            n_gates: 220,
            n_inputs: 18,
            n_outputs: 14,
            model_levels: 3,
            seed: 31,
            depth: None,
        };
        // prepare() exercises extract_paths, circuit_yield_mc,
        // decompose_segments, delay_model_build and spmm (`G·Σ`).
        let pb = prepare(&spec, &PipelineConfig::default()).expect("pipeline prepares");
        let dm = &pb.delay_model;
        let sel = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(0.05, pb.t_cons))
            .expect("approx selection succeeds");
        let plan = MeasurementPlan::Paths {
            selected: &sel.selected,
            predictor: &sel.predictor,
        };
        let mc = McConfig {
            n_samples: 400,
            seed: 7,
            threads: 0,
        };
        // MC scores its samples as sparse block products (spmm).
        evaluate(dm, &plan, &sel.remaining, &mc).expect("MC evaluation succeeds");
        // Direct kernels not guaranteed on the pipeline path.
        let a = test_matrix(20, 12, 0.4);
        let x: Vec<f64> = (0..12).map(|k| (k as f64 * 0.7).sin()).collect();
        let _ = a.matvec(&x).unwrap();
        let _ = Qr::compute_pivoted(&a).unwrap();
        let _ = Svd::compute(&a).unwrap();
        let n = 12;
        let spd = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 1.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let chol = Cholesky::compute(&spd).unwrap();
        let rhs: Vec<f64> = (0..n).map(|k| (k as f64 * 0.3).cos()).collect();
        let _ = chol.solve(&rhs).unwrap();
    });
    for kernel in [
        "matmul",
        "matvec",
        "spmm",
        "qr_factor",
        "svd",
        "cholesky",
        "mc_evaluate",
        "extract_paths",
        "circuit_yield_mc",
        "decompose_segments",
        "delay_model_build",
    ] {
        // decompose_segments models no flops; its traffic carries the fact.
        let facet = if kernel == "decompose_segments" {
            "bytes"
        } else {
            "flops"
        };
        let key = format!("work.{kernel}.{facet}");
        assert!(
            work.get(&key).copied().unwrap_or(0) > 0,
            "kernel `{kernel}` reported no work ({key} missing or zero); \
             did a refactor drop its work::record call? counters: {work:?}"
        );
    }
}
