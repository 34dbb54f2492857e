//! Integration test: the sparse, sketched selection pipeline agrees with
//! the dense one on the same 300-gate instance, layer by layer.
//!
//! The sketch is given full width (`ℓ = |P_tar|`), so the subspace is
//! exact and every divergence is attributable to the pipeline mechanics —
//! CSR assembly, range-finder, reduced pivoted QR, thin cross-Gram —
//! rather than to low-rank truncation.

use pathrep::core::approx::{approx_select, ApproxConfig};
use pathrep::core::exact::exact_select;
use pathrep::core::predictor::DEFAULT_KAPPA;
use pathrep::core::sketch::{sketch_approx_select, sketch_exact_select, SketchApproxConfig};
use pathrep::eval::pipeline::{prepare, PipelineConfig};
use pathrep::eval::suite::BenchmarkSpec;
use pathrep::linalg::sketch::SketchConfig;
use pathrep::variation::sensitivity::DelayModel;
use std::collections::BTreeSet;

const EPSILON: f64 = 0.05;
const MIN_AGREEMENT: f64 = 0.9;

/// `|a ∩ b| / max(|a|, |b|)` over index sets.
fn set_agreement(a: &[usize], b: &[usize]) -> f64 {
    let sa: BTreeSet<usize> = a.iter().copied().collect();
    let sb: BTreeSet<usize> = b.iter().copied().collect();
    let denom = sa.len().max(sb.len());
    if denom == 0 {
        return 1.0;
    }
    sa.intersection(&sb).count() as f64 / denom as f64
}

#[test]
fn sketched_pipeline_matches_dense_on_gate_instance() {
    let spec = BenchmarkSpec {
        name: "bench",
        n_gates: 300,
        n_inputs: 24,
        n_outputs: 18,
        model_levels: 3,
        seed: 11,
        depth: Some(10),
    };
    let config = PipelineConfig {
        max_paths: 300,
        ..PipelineConfig::default()
    };
    let pb = prepare(&spec, &config).expect("gate instance prepares");
    let dense = &pb.delay_model;
    let sparse = DelayModel::build(&pb.circuit, &pb.paths, &pb.decomposition, &pb.model)
        .expect("CSR assembly succeeds on the gate instance");

    // The prepared dense model is the dense view of the same assembly.
    let da = dense.a();
    let sa = sparse.a().to_dense();
    let max_assembly_diff = da
        .as_slice()
        .iter()
        .zip(sa.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    assert_eq!(max_assembly_diff, 0.0, "prepared dense A diverges from the CSR assembly");

    // Full-width sketch: no spectral energy lost, same numerical rank.
    let sketch = SketchConfig {
        sketch_cols: sparse.a().nrows(),
        ..SketchConfig::default()
    };
    let d_exact = exact_select(da, dense.mu_paths(), DEFAULT_KAPPA).expect("dense exact");
    let s_exact = sketch_exact_select(sparse.a(), sparse.mu_paths(), DEFAULT_KAPPA, &sketch)
        .expect("sketched exact");
    assert!(
        s_exact.energy_capture >= 0.999,
        "full-width sketch lost spectral energy: capture {:.6}",
        s_exact.energy_capture
    );
    assert_eq!(s_exact.rank, d_exact.rank, "sketched rank differs from dense rank");

    let d_approx = approx_select(da, dense.mu_paths(), &ApproxConfig::new(EPSILON, pb.t_cons))
        .expect("dense approx");
    let s_cfg = SketchApproxConfig {
        sketch,
        ..SketchApproxConfig::new(EPSILON, pb.t_cons)
    };
    let s_approx =
        sketch_approx_select(sparse.a(), sparse.mu_paths(), &s_cfg).expect("sketched approx");
    let approx_agreement = set_agreement(&d_approx.selected, &s_approx.selected);
    assert!(
        approx_agreement >= MIN_AGREEMENT,
        "approx-mode selection agreement {approx_agreement:.3}"
    );

    // Exact-mode agreement is judged over the effective-rank head of the
    // pivot sequence: beyond it the singular directions are near-degenerate,
    // so pivoted QR may order tied columns differently for the dense U and
    // the (orthogonally equivalent) sketched U. That tail carries no
    // predictive weight, as the bit-equal ε_r below confirms.
    let head = d_approx
        .effective_rank
        .min(d_exact.selected.len())
        .min(s_exact.selected.len());
    let exact_agreement = set_agreement(&d_exact.selected[..head], &s_exact.selected[..head]);
    assert!(
        exact_agreement >= MIN_AGREEMENT,
        "exact-mode selection agreement {exact_agreement:.3} over the first {head} pivots"
    );

    assert_eq!(
        d_approx.epsilon_r.to_bits(),
        s_approx.epsilon_r.to_bits(),
        "epsilon_r diverged: dense {:e} vs sketch {:e}",
        d_approx.epsilon_r,
        s_approx.epsilon_r
    );
}
