//! The SVD of `A` against the symmetric eigendecomposition of its Gram
//! matrix `A·Aᵀ`, the two routes to `rank(A)` (paper §4.2).
//!
//! The spectra agree to rounding, and so do the ranks at a loose
//! tolerance. At the selection's own tolerance (`RANK_TOL` on singular
//! values, hence `RANK_TOL²` on eigenvalues) they do not: squaring pushes
//! the noise floor of the Gram eigenvalues (≈ ε·λ₁) far above
//! `RANK_TOL²·λ₁`, so the Gram route counts rounding noise as rank. That
//! is why the Gram route cannot stand in for the SVD at `RANK_TOL`.

use pathrep_core::exact::RANK_TOL;
use pathrep_eval::pipeline::{prepare, PipelineConfig};
use pathrep_eval::suite::BenchmarkSpec;
use pathrep_linalg::eig::SymmetricEig;
use pathrep_linalg::svd::Svd;

/// Number of eigenvalues above `rel · λ₁` (values are non-increasing).
fn gram_rank(values: &[f64], rel: f64) -> usize {
    let lmax = values.first().copied().unwrap_or(0.0).max(0.0);
    values.iter().take_while(|&&v| v > rel * lmax).count()
}

#[test]
fn gram_spectrum_matches_svd_but_overcounts_rank_at_rank_tol() {
    let spec = BenchmarkSpec {
        name: "svd_gram",
        n_gates: 300,
        n_inputs: 24,
        n_outputs: 18,
        model_levels: 3,
        seed: 8,
        depth: Some(10),
    };
    let config = PipelineConfig {
        max_paths: 300,
        ..PipelineConfig::default()
    };
    let pb = prepare(&spec, &config).expect("pipeline prepares");
    let a = pb.delay_model.a();
    let m = a.nrows();
    let svd = Svd::compute(a).expect("svd");
    let gram = a.matmul(&a.transpose()).expect("gram");
    let eig = SymmetricEig::compute(&gram).expect("eig");
    let s = svd.singular_values();
    let lambda = eig.values();
    assert_eq!(lambda.len(), m);

    // Spectrum: σᵢ² = λᵢ(A·Aᵀ) to within 8·m·ε·σ₁² (σᵢ = 0 past min(m, n)).
    let s1_sq = s[0] * s[0];
    let bound = 8.0 * m as f64 * f64::EPSILON * s1_sq;
    for (i, &l) in lambda.iter().enumerate() {
        let si = s.get(i).copied().unwrap_or(0.0);
        let err = (si * si - l).abs();
        assert!(
            err <= bound,
            "index {i}: |σ² − λ| = {err:e} > {bound:e} (σ₁² = {s1_sq:e})"
        );
    }

    // At a loose tolerance the two routes count the same rank.
    assert_eq!(svd.rank(1e-6), gram_rank(lambda, 1e-12));

    // At the selection's tolerance the Gram route overcounts.
    let rank = svd.rank(RANK_TOL);
    let gram = gram_rank(lambda, RANK_TOL * RANK_TOL);
    assert!(
        gram > rank,
        "Gram count {gram} at RANK_TOL² should exceed rank(A) = {rank}"
    );
}
