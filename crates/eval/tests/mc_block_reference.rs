//! `evaluate` scores each Monte-Carlo chunk as CSR block products
//! `D = A·X`. This test keeps the one-sample-at-a-time loop as a reference
//! (draw → `µ + A·x` → gather → `predict` → error update) and requires the
//! two to agree bit for bit on both measurement plans, at sample counts
//! that straddle the block and chunk boundaries and at one and several
//! workers.

use pathrep_core::approx::{approx_select, ApproxConfig};
use pathrep_core::hybrid::{hybrid_select, HybridConfig, HybridInputs, HybridSelection};
use pathrep_core::MeasurementPredictor;
use pathrep_eval::metrics::{evaluate, McConfig, McMetrics, MeasurementPlan, MC_CHUNK};
use pathrep_eval::pipeline::{prepare, PipelineConfig, PreparedBenchmark};
use pathrep_eval::suite::BenchmarkSpec;
use pathrep_linalg::Matrix;
use pathrep_variation::sampler::VariationSampler;
use pathrep_variation::sensitivity::DelayModel;

const SAMPLE_COUNTS: [usize; 6] = [1, 63, 64, 65, 257, 600];
const THREADS: [usize; 2] = [1, 3];

fn tiny(pipeline: &PipelineConfig) -> PreparedBenchmark {
    prepare(
        &BenchmarkSpec {
            name: "tiny",
            n_gates: 220,
            n_inputs: 18,
            n_outputs: 14,
            model_levels: 3,
            seed: 31,
            depth: None,
        },
        pipeline,
    )
    .unwrap()
}

/// The per-sample evaluation loop: chunk `c` draws from `seed + c`, each
/// sample runs the dense `µ + A·x` (and `µ_S + Σ·x` for segments), and
/// chunks combine in index order.
fn reference(
    dm: &DelayModel,
    plan: &MeasurementPlan<'_>,
    remaining: &[usize],
    config: &McConfig,
) -> McMetrics {
    let nr = remaining.len();
    let mut per_path_max = vec![0.0_f64; nr];
    let mut per_path_sum = vec![0.0_f64; nr];
    for c in 0..config.n_samples.div_ceil(MC_CHUNK) {
        let n_here = MC_CHUNK.min(config.n_samples - c * MC_CHUNK);
        let mut sampler = VariationSampler::new(dm.variable_count(), config.seed + c as u64);
        let mut max_err = vec![0.0_f64; nr];
        let mut sum_err = vec![0.0_f64; nr];
        for _ in 0..n_here {
            let x = sampler.draw();
            let d_all = dm.path_delays(&x).unwrap();
            let prediction = match plan {
                MeasurementPlan::Paths {
                    selected,
                    predictor,
                } => {
                    let measured: Vec<f64> = selected.iter().map(|&i| d_all[i]).collect();
                    predictor.predict(&measured)
                }
                MeasurementPlan::Hybrid { selection } => {
                    let d_seg = dm.segment_delays(&x).unwrap();
                    let mut measured: Vec<f64> =
                        selection.segments.iter().map(|&s| d_seg[s]).collect();
                    measured.extend(selection.paths.iter().map(|&p| d_all[p]));
                    selection.predictor.predict(&measured)
                }
            }
            .unwrap();
            for (k, &path) in remaining.iter().enumerate() {
                let truth = d_all[path];
                let rel = (prediction[k] - truth).abs() / truth.abs().max(1e-12);
                if rel > max_err[k] {
                    max_err[k] = rel;
                }
                sum_err[k] += rel;
            }
        }
        for k in 0..nr {
            per_path_max[k] = per_path_max[k].max(max_err[k]);
            per_path_sum[k] += sum_err[k];
        }
    }
    let per_path_avg: Vec<f64> = per_path_sum
        .iter()
        .map(|s| s / config.n_samples as f64)
        .collect();
    let e1 = per_path_max.iter().sum::<f64>() / nr as f64;
    let e2 = per_path_avg.iter().sum::<f64>() / nr as f64;
    McMetrics {
        per_path_max,
        per_path_avg,
        e1,
        e2,
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_matches_reference(dm: &DelayModel, plan: &MeasurementPlan<'_>, remaining: &[usize]) {
    for n_samples in SAMPLE_COUNTS {
        for threads in THREADS {
            let config = McConfig {
                n_samples,
                seed: 17,
                threads,
            };
            let got = evaluate(dm, plan, remaining, &config).unwrap();
            let want = reference(dm, plan, remaining, &config);
            let at = format!("n_samples {n_samples}, threads {threads}");
            assert_eq!(bits(&got.per_path_max), bits(&want.per_path_max), "{at}");
            assert_eq!(bits(&got.per_path_avg), bits(&want.per_path_avg), "{at}");
            assert_eq!(got.e1.to_bits(), want.e1.to_bits(), "{at}");
            assert_eq!(got.e2.to_bits(), want.e2.to_bits(), "{at}");
        }
    }
}

#[test]
fn paths_plan_matches_per_sample_loop() {
    let pb = tiny(&PipelineConfig::default());
    let dm = &pb.delay_model;
    let sel = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(0.05, pb.t_cons)).unwrap();
    assert!(!sel.remaining.is_empty());
    let plan = MeasurementPlan::Paths {
        selected: &sel.selected,
        predictor: &sel.predictor,
    };
    assert_matches_reference(dm, &plan, &sel.remaining);
}

/// Re-plans a hybrid selection to measure every other selected segment
/// plus two paths, so the gather carries both segment and path rows and
/// the prediction error is not trivially zero.
fn mixed_plan(dm: &DelayModel, hybrid: &HybridSelection) -> HybridSelection {
    let segments: Vec<usize> = hybrid.segments.iter().copied().step_by(2).collect();
    let paths = vec![0, dm.mu_paths().len() / 2];
    let remaining: Vec<usize> = (0..dm.mu_paths().len())
        .filter(|p| !paths.contains(p))
        .collect();
    let meas_sens = dm
        .sigma()
        .select_rows(&segments)
        .vstack(&dm.a().select_rows(&paths))
        .unwrap();
    let meas_mu: Vec<f64> = segments
        .iter()
        .map(|&s| dm.mu_segments()[s])
        .chain(paths.iter().map(|&p| dm.mu_paths()[p]))
        .collect();
    let target_mu: Vec<f64> = remaining.iter().map(|&p| dm.mu_paths()[p]).collect();
    let target_sens: Matrix = dm.a().select_rows(&remaining);
    let predictor =
        MeasurementPredictor::new(&target_sens, &target_mu, &meas_sens, &meas_mu, 3.0).unwrap();
    HybridSelection {
        segments,
        paths,
        remaining,
        predictor,
        ..hybrid.clone()
    }
}

#[test]
fn hybrid_plan_matches_per_sample_loop() {
    let pb = tiny(&PipelineConfig {
        t_cons_factor: 0.98,
        max_paths: 200,
        random_scale: 3.0,
        ..PipelineConfig::default()
    });
    let dm = &pb.delay_model;
    let inputs = HybridInputs {
        g: dm.g(),
        sigma: dm.sigma(),
        a: dm.a(),
        mu_segments: dm.mu_segments(),
        mu_paths: dm.mu_paths(),
    };
    let hybrid = hybrid_select(&inputs, &HybridConfig::new(0.08, 0.06, pb.t_cons)).unwrap();
    assert!(hybrid.segments.len() >= 2, "hybrid plan must measure segments");
    let selection = mixed_plan(dm, &hybrid);
    let plan = MeasurementPlan::Hybrid {
        selection: &selection,
    };
    assert_matches_reference(dm, &plan, &selection.remaining);
}
