//! Monte-Carlo evaluation of a selection (Section 6 of the paper).
//!
//! Draws `N` seeded realizations of the variation vector, "measures" the
//! representative components on each (their exact delays under the linear
//! model — the paper's own protocol), predicts the remaining target paths,
//! and reports the paper's error statistics:
//!
//! * `ε_i`  — max over samples of the relative error of path `i`,
//! * `ε̂_i` — mean over samples of the relative error of path `i`,
//! * `e1`  — average of `ε_i` over the predicted paths,
//! * `e2`  — average of `ε̂_i` over the predicted paths.

use pathrep_core::hybrid::HybridSelection;
use pathrep_core::MeasurementPredictor;
use pathrep_variation::sampler::VariationSampler;
use pathrep_variation::sensitivity::DelayModel;
use std::error::Error;
use std::fmt;

/// Samples per Monte-Carlo chunk. Chunk `c` draws up to this many samples
/// from an RNG seeded `seed + c`, so the sample stream is a pure function
/// of the configuration — never of the worker count or scheduling.
pub const MC_CHUNK: usize = 256;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Number of samples (the paper uses 10 000).
    pub n_samples: usize,
    /// Base RNG seed; sample chunk `c` uses `seed + c` (see [`MC_CHUNK`]).
    pub seed: u64,
    /// Worker-count override for this evaluation; `0` uses the global
    /// `pathrep-par` pool size (the `PATHREP_THREADS` contract). Results
    /// are bit-identical at every setting — only wall time changes.
    pub threads: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            n_samples: 10_000,
            seed: 99,
            threads: 0,
        }
    }
}

/// What is measured post-silicon.
#[derive(Debug, Clone, Copy)]
pub enum MeasurementPlan<'a> {
    /// Measure a subset of target paths (exact / approximate selection).
    Paths {
        /// Indices of the measured paths.
        selected: &'a [usize],
        /// Predictor from measured to remaining paths.
        predictor: &'a MeasurementPredictor,
    },
    /// Measure segments plus a subset of paths (hybrid selection).
    Hybrid {
        /// The hybrid selection result.
        selection: &'a HybridSelection,
    },
}

/// The paper's error statistics over the predicted (remaining) paths.
#[derive(Debug, Clone, PartialEq)]
pub struct McMetrics {
    /// `ε_i` per predicted path.
    pub per_path_max: Vec<f64>,
    /// `ε̂_i` per predicted path.
    pub per_path_avg: Vec<f64>,
    /// Average of `ε_i` (%: multiply by 100 when reporting).
    pub e1: f64,
    /// Average of `ε̂_i`.
    pub e2: f64,
}

/// Error from Monte-Carlo evaluation.
#[derive(Debug)]
pub struct McError {
    message: String,
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "monte-carlo evaluation failed: {}", self.message)
    }
}

impl Error for McError {}

fn err<E: fmt::Display>(e: E) -> McError {
    McError {
        message: e.to_string(),
    }
}

/// One chunk's accumulators: per-path max error, per-path error sum, and
/// the number of samples actually drawn.
type McShard = (Vec<f64>, Vec<f64>, usize);

/// Draws and scores chunk `c` (samples `c·MC_CHUNK .. min((c+1)·MC_CHUNK,
/// n_samples)`) with its own RNG seeded `seed + c`. Depends only on the
/// chunk index and the configuration, never on which worker runs it.
fn evaluate_chunk(
    dm: &DelayModel,
    plan: &MeasurementPlan<'_>,
    remaining: &[usize],
    config: &McConfig,
    c: usize,
) -> Result<McShard, String> {
    let n_here = MC_CHUNK.min(config.n_samples - c * MC_CHUNK);
    let nr = remaining.len();
    let mut sampler = VariationSampler::new(dm.variable_count(), config.seed + c as u64);
    let mut max_err = vec![0.0_f64; nr];
    let mut sum_err = vec![0.0_f64; nr];
    for _ in 0..n_here {
        let x = sampler.draw();
        let d_all = dm.path_delays(&x).map_err(|e| e.to_string())?;
        let prediction = match plan {
            MeasurementPlan::Paths {
                selected,
                predictor,
            } => {
                let measured: Vec<f64> = selected.iter().map(|&i| d_all[i]).collect();
                predictor.predict(&measured)
            }
            MeasurementPlan::Hybrid { selection } => {
                let d_seg = dm.segment_delays(&x).map_err(|e| e.to_string())?;
                let mut measured = Vec::with_capacity(selection.measurement_count());
                measured.extend(selection.segments.iter().map(|&s| d_seg[s]));
                measured.extend(selection.paths.iter().map(|&p| d_all[p]));
                selection.predictor.predict(&measured)
            }
        };
        let prediction = prediction.map_err(|e| e.to_string())?;
        for (k, &path) in remaining.iter().enumerate() {
            let truth = d_all[path];
            let rel = (prediction[k] - truth).abs() / truth.abs().max(1e-12);
            if rel > max_err[k] {
                max_err[k] = rel;
            }
            sum_err[k] += rel;
        }
    }
    Ok((max_err, sum_err, n_here))
}

/// Runs the Monte-Carlo evaluation of `plan` over `remaining` target paths.
///
/// `remaining` must list the indices (into the delay model's target set)
/// the plan's predictor produces, in the predictor's output order.
///
/// The sample stream is split into fixed [`MC_CHUNK`]-sized chunks, each
/// with its own RNG seeded `seed + chunk`, fanned out over the
/// `pathrep-par` pool and combined in chunk order — so the metrics are
/// bit-identical for any `threads` setting (including sequential).
///
/// # Errors
///
/// Returns [`McError`] when shapes disagree or a worker fails.
pub fn evaluate(
    dm: &DelayModel,
    plan: &MeasurementPlan<'_>,
    remaining: &[usize],
    config: &McConfig,
) -> Result<McMetrics, McError> {
    let _span = pathrep_obs::span!("mc_evaluate");
    if config.n_samples == 0 {
        return Err(err("n_samples must be positive"));
    }
    pathrep_obs::counter_add("eval.mc.evaluations", 1);
    pathrep_obs::counter_add("eval.mc.samples", config.n_samples as u64);
    if remaining.is_empty() {
        return Ok(McMetrics {
            per_path_max: Vec::new(),
            per_path_avg: Vec::new(),
            e1: 0.0,
            e2: 0.0,
        });
    }
    let nr = remaining.len();
    // The per-sample matvecs inside `path_delays`/`predict` record their
    // own model work under "matvec" on whichever worker runs them; this
    // closed-form record covers the evaluation loop proper — the draw of
    // the variation vector and the per-path error update (sub, abs, div,
    // max/accumulate ≈ 4 flops each) — and is a pure function of the
    // configuration, so it is bit-identical at any thread count.
    let (wk_flops, wk_bytes) = {
        let (ns, nrp, nv) = (
            config.n_samples as u64,
            nr as u64,
            dm.variable_count() as u64,
        );
        let flops = ns * (4 * nrp + nv);
        let bytes = 8 * ns * (3 * nrp + nv);
        pathrep_obs::work::record("mc_evaluate", flops, bytes, ns * (3 * nrp + nv));
        (flops, bytes)
    };
    let chunks = config.n_samples.div_ceil(MC_CHUNK);
    let shards = pathrep_par::map_indexed_with(chunks, 1, config.threads, |c| {
        evaluate_chunk(dm, plan, remaining, config, c)
    });

    // Combine in chunk-index order: the reduction never sees scheduling
    // order, so the totals are bit-identical at any thread count. The first
    // failing chunk (by index) also wins deterministically.
    let mut per_path_max = vec![0.0_f64; nr];
    let mut per_path_sum = vec![0.0_f64; nr];
    let mut total = 0usize;
    for shard in shards {
        let (mx, sm, n) = shard.map_err(err)?;
        for k in 0..nr {
            per_path_max[k] = per_path_max[k].max(mx[k]);
            per_path_sum[k] += sm[k];
        }
        total += n;
    }
    if total != config.n_samples {
        return Err(err(format!(
            "worker accounting mismatch: {total} of {} samples",
            config.n_samples
        )));
    }
    let per_path_avg: Vec<f64> = per_path_sum.iter().map(|s| s / total as f64).collect();
    let e1 = per_path_max.iter().sum::<f64>() / nr as f64;
    let e2 = per_path_avg.iter().sum::<f64>() / nr as f64;
    if pathrep_obs::ledger::collecting() {
        let mut sorted = per_path_max.clone();
        // NaN-total ascending order (NaNs first): a poisoned error value
        // can no longer scramble the quantile positions.
        sorted.sort_by(|a, b| pathrep_linalg::vecops::cmp_nan_smallest(*a, *b));
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        pathrep_obs::ledger::record("eval", "mc_evaluate", |f| {
            f.int("samples", config.n_samples as u64)
                .int("predicted_paths", nr as u64)
                .num("e1", e1)
                .num("e2", e2)
                .num("max_err_p50", q(0.50))
                .num("max_err_p90", q(0.90))
                .num("max_err_worst", sorted[sorted.len() - 1])
                .int("work_flops", wk_flops)
                .int("work_bytes", wk_bytes)
                .num("work_intensity", wk_flops as f64 / wk_bytes.max(1) as f64);
        });
    }
    Ok(McMetrics {
        per_path_max,
        per_path_avg,
        e1,
        e2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, PipelineConfig};
    use crate::suite::BenchmarkSpec;
    use pathrep_core::exact::exact_select;
    use pathrep_core::predictor::DEFAULT_KAPPA;

    fn tiny() -> crate::pipeline::PreparedBenchmark {
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
            &PipelineConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn exact_selection_has_negligible_mc_error() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        if sel.remaining.is_empty() {
            return; // every path representative: nothing to evaluate
        }
        let plan = MeasurementPlan::Paths {
            selected: &sel.selected,
            predictor: &sel.predictor,
        };
        let cfg = McConfig {
            n_samples: 200,
            seed: 5,
            threads: 2,
        };
        let m = evaluate(dm, &plan, &sel.remaining, &cfg).unwrap();
        assert!(m.e1 < 1e-6, "exact selection e1 = {}", m.e1);
        assert!(m.e2 <= m.e1);
    }

    #[test]
    fn e1_dominates_e2_and_per_path_stats_ordered() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        if sel.remaining.is_empty() {
            return;
        }
        // Deliberately measure only half the representative paths so the
        // error is non-trivial.
        let half = &sel.selected[..sel.selected.len().div_ceil(2)];
        let gram = dm.a().matmul(&dm.a().transpose()).unwrap();
        let diag: Vec<f64> = (0..gram.nrows()).map(|i| gram[(i, i)]).collect();
        let (pred, remaining) = pathrep_core::MeasurementPredictor::from_cross_gram(
            &gram.select_cols(half),
            &diag,
            dm.mu_paths(),
            half,
            3.0,
        )
        .unwrap();
        let plan = MeasurementPlan::Paths {
            selected: half,
            predictor: &pred,
        };
        let cfg = McConfig {
            n_samples: 300,
            seed: 6,
            threads: 3,
        };
        let m = evaluate(dm, &plan, &remaining, &cfg).unwrap();
        assert!(m.e1 >= m.e2);
        for (mx, av) in m.per_path_max.iter().zip(m.per_path_avg.iter()) {
            assert!(mx >= av);
        }
    }

    #[test]
    fn deterministic_given_seed_and_threads() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        if sel.remaining.is_empty() {
            return;
        }
        let plan = MeasurementPlan::Paths {
            selected: &sel.selected,
            predictor: &sel.predictor,
        };
        let cfg = McConfig {
            n_samples: 100,
            seed: 11,
            threads: 2,
        };
        let a = evaluate(dm, &plan, &sel.remaining, &cfg).unwrap();
        let b = evaluate(dm, &plan, &sel.remaining, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_remaining_is_trivial() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        let plan = MeasurementPlan::Paths {
            selected: &sel.selected,
            predictor: &sel.predictor,
        };
        let m = evaluate(dm, &plan, &[], &McConfig::default()).unwrap();
        assert_eq!(m.e1, 0.0);
        assert!(m.per_path_max.is_empty());
    }

    #[test]
    fn zero_samples_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        let plan = MeasurementPlan::Paths {
            selected: &sel.selected,
            predictor: &sel.predictor,
        };
        let cfg = McConfig {
            n_samples: 0,
            ..McConfig::default()
        };
        assert!(evaluate(dm, &plan, &sel.remaining, &cfg).is_err());
    }
}
