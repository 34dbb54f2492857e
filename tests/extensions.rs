//! Integration tests for the beyond-the-paper extensions: clustering
//! (§4.4), the greedy baseline and measurement noise — all through the
//! public facade.

use pathrep::core::approx::{approx_select, ApproxConfig};
use pathrep::core::cluster::{clustered_select, ClusterConfig};
use pathrep::core::greedy::greedy_select;
use pathrep::core::MeasurementPredictor;
use pathrep::eval::pipeline::{prepare, PipelineConfig};
use pathrep::eval::suite::BenchmarkSpec;

fn spec(seed: u64) -> BenchmarkSpec {
    BenchmarkSpec {
        name: "ext",
        n_gates: 280,
        n_inputs: 22,
        n_outputs: 16,
        model_levels: 3,
        seed,
        depth: Some(10),
    }
}

#[test]
fn clustered_and_global_selection_agree_on_quality() {
    let pb = prepare(
        &spec(7001),
        &PipelineConfig {
            max_paths: 250,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let dm = &pb.delay_model;
    let eps = 0.05;
    let global = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(eps, pb.t_cons)).unwrap();
    let clustered = clustered_select(
        dm.a(),
        dm.mu_paths(),
        dm.g(),
        &ClusterConfig::new(ApproxConfig::new(eps, pb.t_cons), 64),
    )
    .unwrap();
    assert!(clustered.epsilon_r <= eps + 1e-9);
    assert!(global.epsilon_r <= eps + 1e-9);
    // Clustering trades some selection size for decomposed solves.
    assert!(
        clustered.selected.len() <= 6 * global.selected.len().max(3),
        "clustered {} vs global {}",
        clustered.selected.len(),
        global.selected.len()
    );
}

#[test]
fn greedy_baseline_meets_tolerance_on_real_models() {
    let pb = prepare(
        &spec(7002),
        &PipelineConfig {
            max_paths: 200,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let dm = &pb.delay_model;
    let sel = greedy_select(dm.a(), dm.mu_paths(), 0.05, pb.t_cons, 3.0).unwrap();
    assert!(sel.epsilon_r <= 0.05 + 1e-9, "greedy eps_r {}", sel.epsilon_r);
}

#[test]
fn noisy_measurement_degrades_gracefully() {
    let pb = prepare(
        &spec(7004),
        &PipelineConfig {
            max_paths: 150,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    let dm = &pb.delay_model;
    let sel = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(0.05, pb.t_cons)).unwrap();
    let meas = dm.a().select_rows(&sel.selected);
    let meas_mu: Vec<f64> = sel.selected.iter().map(|&i| dm.mu_paths()[i]).collect();
    let target = dm.a().select_rows(&sel.remaining);
    let target_mu: Vec<f64> = sel.remaining.iter().map(|&i| dm.mu_paths()[i]).collect();
    let clean = MeasurementPredictor::new(&target, &target_mu, &meas, &meas_mu, 3.0).unwrap();
    let noisy =
        MeasurementPredictor::new_with_noise(&target, &target_mu, &meas, &meas_mu, 3.0, 5.0)
            .unwrap();
    // Noise hurts, but bounded: the noise-aware predictor is still the MMSE
    // one, so its analytic stds are larger yet finite.
    for (c, n) in clean.stds().iter().zip(noisy.stds().iter()) {
        assert!(n >= c);
        assert!(n.is_finite());
    }
}
