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
use pathrep_linalg::sparse::SparseMatrix;
use pathrep_linalg::Matrix;
use pathrep_variation::sampler::VariationSampler;
use pathrep_variation::sensitivity::DelayModel;
use std::error::Error;
use std::fmt;

/// Samples per Monte-Carlo chunk. Chunk `c` draws up to this many samples
/// from an RNG seeded `seed + c`, so the sample stream is a pure function
/// of the configuration — never of the worker count or scheduling.
pub const MC_CHUNK: usize = 256;

/// Samples per block product inside a chunk. Every output element keeps
/// the per-sample operation sequence whatever the width, so results do
/// not depend on it; it bounds a worker's working set (`X` is
/// `|x| × MC_BLOCK`). At 16 the block buffers stay near 100 KB on the
/// Table-1 circuits; 64-wide blocks ran no faster but raised the
/// benchmark's peak RSS by 5–12 % over the per-sample loop.
const MC_BLOCK: usize = 16;

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
#[derive(Debug, Clone, PartialEq)]
pub enum McError {
    /// `n_samples` is zero.
    NoSamples,
    /// An index names no path (or segment) of the delay model.
    IndexOutOfRange {
        /// The list holding the index: `remaining`, `selected`,
        /// `selection.paths` or `selection.segments`.
        list: &'static str,
        /// The offending index.
        index: usize,
        /// Number of paths (or segments) in the delay model.
        bound: usize,
    },
    /// `remaining` is not as long as the predictor's output.
    TargetCountMismatch {
        /// Length of `remaining`.
        remaining: usize,
        /// Targets the predictor produces.
        predicted: usize,
    },
    /// The plan measures a different number of delays than the predictor
    /// consumes.
    MeasurementCountMismatch {
        /// Delays the plan measures.
        measured: usize,
        /// Measurements the predictor consumes.
        expected: usize,
    },
    /// A kernel failed during sampling.
    Kernel(String),
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "monte-carlo evaluation failed: ")?;
        match self {
            McError::NoSamples => write!(f, "n_samples must be positive"),
            McError::IndexOutOfRange { list, index, bound } => {
                write!(f, "{list} index {index} out of range (model has {bound})")
            }
            McError::TargetCountMismatch {
                remaining,
                predicted,
            } => write!(
                f,
                "remaining lists {remaining} paths but the predictor produces {predicted}"
            ),
            McError::MeasurementCountMismatch { measured, expected } => write!(
                f,
                "plan measures {measured} delays but the predictor consumes {expected}"
            ),
            McError::Kernel(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for McError {}

fn kernel_err<E: fmt::Display>(e: E) -> McError {
    McError::Kernel(e.to_string())
}

/// Checks every index of `plan` and `remaining` against the delay model
/// and the plan's measurement/target counts against its predictor, so a
/// bad input is a typed error before any sample is drawn rather than a
/// panic inside a pool worker. An empty `remaining` (nothing to predict)
/// skips the target-count check.
fn validate(
    dm: &DelayModel,
    plan: &MeasurementPlan<'_>,
    remaining: &[usize],
) -> Result<(), McError> {
    let n_paths = dm.mu_paths().len();
    let in_range = |list: &'static str, idx: &[usize], bound: usize| match idx
        .iter()
        .find(|&&i| i >= bound)
    {
        Some(&index) => Err(McError::IndexOutOfRange { list, index, bound }),
        None => Ok(()),
    };
    in_range("remaining", remaining, n_paths)?;
    let (predictor, measured) = match *plan {
        MeasurementPlan::Paths {
            selected,
            predictor,
        } => {
            in_range("selected", selected, n_paths)?;
            (predictor, selected.len())
        }
        MeasurementPlan::Hybrid { selection } => {
            let n_seg = dm.mu_segments().len();
            in_range("selection.segments", &selection.segments, n_seg)?;
            in_range("selection.paths", &selection.paths, n_paths)?;
            (&selection.predictor, selection.measurement_count())
        }
    };
    if measured != predictor.measurement_count() {
        return Err(McError::MeasurementCountMismatch {
            measured,
            expected: predictor.measurement_count(),
        });
    }
    if !remaining.is_empty() && remaining.len() != predictor.target_count() {
        return Err(McError::TargetCountMismatch {
            remaining: remaining.len(),
            predicted: predictor.target_count(),
        });
    }
    Ok(())
}

/// The Monte-Carlo block kernel shared by [`evaluate`] and the guard-band
/// experiment: `A` and, for a hybrid plan, the measured rows of `Σ` in
/// CSR, built once per evaluation, plus the plan's measurement gather.
pub(crate) struct BlockKernel<'a> {
    a: SparseMatrix,
    mu_paths: &'a [f64],
    /// The measured rows of `Σ` and their nominal delays; `None` when the
    /// plan measures no segment.
    segments: Option<(SparseMatrix, Vec<f64>)>,
    /// Directly measured paths; their delays follow the segment delays in
    /// the predictor's input.
    paths: &'a [usize],
    predictor: &'a MeasurementPredictor,
}

impl<'a> BlockKernel<'a> {
    /// Compresses the model for `plan`, whose indices must be in range
    /// (see [`validate`]).
    pub(crate) fn new(dm: &'a DelayModel, plan: &MeasurementPlan<'a>) -> Self {
        let (segments, paths, predictor) = match *plan {
            MeasurementPlan::Paths {
                selected,
                predictor,
            } => (&[][..], selected, predictor),
            MeasurementPlan::Hybrid { selection } => (
                &selection.segments[..],
                &selection.paths[..],
                &selection.predictor,
            ),
        };
        let segments = (!segments.is_empty()).then(|| {
            let sigma_r = SparseMatrix::from_dense(&dm.sigma().select_rows(segments));
            let mu_r = segments.iter().map(|&s| dm.mu_segments()[s]).collect();
            (sigma_r, mu_r)
        });
        BlockKernel {
            a: SparseMatrix::from_dense(dm.a()),
            mu_paths: dm.mu_paths(),
            segments,
            paths,
            predictor,
        }
    }

    /// Model flops of one sample: its draw, the block products `A·x` and
    /// `Σ_r·x`, and the prediction.
    pub(crate) fn flops_per_sample(&self) -> usize {
        let segments = self.segments.as_ref().map_or(0, |(sigma_r, _)| sigma_r.nnz());
        let predict = 2 * self.predictor.measurement_count() * self.predictor.target_count();
        self.a.ncols() + 2 * (self.a.nnz() + segments) + predict
    }

    /// Draws `n` samples from `sampler` and scores them in blocks of at
    /// most [`MC_BLOCK`], calling `visit(d, predicted)` once per block in
    /// sample order. `d` holds the block's true path delays (paths × `b`,
    /// column `j` = sample `j`), `predicted` the predictor's output
    /// (`b` × targets, row `j` = sample `j`). The samples are drawn in
    /// stream order, so `sampler` ends where `n` calls of
    /// [`VariationSampler::draw`] would leave it.
    pub(crate) fn run(
        &self,
        sampler: &mut VariationSampler,
        n: usize,
        mut visit: impl FnMut(&Matrix, &Matrix),
    ) -> Result<(), McError> {
        let nv = sampler.dim();
        let n_meas = self.predictor.measurement_count();
        let mut draw = vec![0.0; nv];
        let mut x_buf = Vec::with_capacity(nv * MC_BLOCK);
        let mut m_buf = Vec::with_capacity(MC_BLOCK * n_meas);
        let mut done = 0;
        while done < n {
            let b = MC_BLOCK.min(n - done);
            x_buf.clear();
            x_buf.resize(nv * b, 0.0);
            for j in 0..b {
                sampler.draw_into(&mut draw);
                for (i, &v) in draw.iter().enumerate() {
                    x_buf[i * b + j] = v;
                }
            }
            let x = Matrix::from_vec(nv, b, x_buf).map_err(kernel_err)?;
            let d = affine(&self.a, self.mu_paths, &x)?;
            // Row j of `measured` is sample j's measurement vector:
            // segment delays first, then the measured paths.
            m_buf.clear();
            m_buf.resize(b * n_meas, 0.0);
            let d_seg = match &self.segments {
                Some((sigma_r, mu_r)) => Some(affine(sigma_r, mu_r, &x)?),
                None => None,
            };
            let seg_rows = d_seg.iter().flat_map(|ds| (0..ds.nrows()).map(|r| ds.row(r)));
            let path_rows = self.paths.iter().map(|&p| d.row(p));
            for (q, src) in seg_rows.chain(path_rows).enumerate() {
                for (j, &v) in src.iter().enumerate() {
                    m_buf[j * n_meas + q] = v;
                }
            }
            x_buf = x.into_vec();
            let measured = Matrix::from_vec(b, n_meas, m_buf).map_err(kernel_err)?;
            let predicted = self
                .predictor
                .predict_batch(&measured)
                .map_err(kernel_err)?;
            m_buf = measured.into_vec();
            visit(&d, &predicted);
            done += b;
        }
        Ok(())
    }
}

/// `µ + M·X` for a block of samples (column `j` = sample `j`). Each CSR
/// row accumulates its nonzeros `k`-ascending from `+0.0`; the dense
/// per-sample `dot` adds the same products in the same order plus `±0`
/// products for `M`'s zeros, which leave a nonzero partial sum unchanged
/// and can at most flip the sign of a zero one. Adding the (nonzero)
/// nominal delay last erases that sign, so every element equals the
/// per-sample `µ + M·x` bit for bit.
fn affine(m: &SparseMatrix, mu: &[f64], x: &Matrix) -> Result<Matrix, McError> {
    let mut d = m.matmul_dense(x).map_err(kernel_err)?;
    for (r, &mu_r) in mu.iter().enumerate() {
        for v in d.row_mut(r) {
            *v += mu_r;
        }
    }
    Ok(d)
}

/// One chunk's accumulators: per-path max error, per-path error sum, and
/// the number of samples actually drawn.
type McShard = (Vec<f64>, Vec<f64>, usize);

/// Draws and scores chunk `c` (samples `c·MC_CHUNK .. min((c+1)·MC_CHUNK,
/// n_samples)`) with its own RNG seeded `seed + c`. Depends only on the
/// chunk index and the configuration, never on which worker runs it.
fn evaluate_chunk(
    kernel: &BlockKernel<'_>,
    remaining: &[usize],
    config: &McConfig,
    c: usize,
) -> Result<McShard, McError> {
    let n_here = MC_CHUNK.min(config.n_samples - c * MC_CHUNK);
    let nr = remaining.len();
    let mut sampler = VariationSampler::new(kernel.a.ncols(), config.seed + c as u64);
    let mut max_err = vec![0.0_f64; nr];
    let mut sum_err = vec![0.0_f64; nr];
    kernel.run(&mut sampler, n_here, |d, predicted| {
        for j in 0..predicted.nrows() {
            let prediction = predicted.row(j);
            for (k, &path) in remaining.iter().enumerate() {
                let truth = d[(path, j)];
                let rel = (prediction[k] - truth).abs() / truth.abs().max(1e-12);
                if rel > max_err[k] {
                    max_err[k] = rel;
                }
                sum_err[k] += rel;
            }
        }
    })?;
    Ok((max_err, sum_err, n_here))
}

/// Runs the Monte-Carlo evaluation of `plan` over `remaining` target paths.
///
/// `remaining` must list the indices (into the delay model's target set)
/// the plan's predictor produces, in the predictor's output order; an
/// empty `remaining` is the trivial evaluation (zero errors).
///
/// The sample stream is split into fixed [`MC_CHUNK`]-sized chunks, each
/// with its own RNG seeded `seed + chunk`, fanned out over the
/// `pathrep-par` pool and combined in chunk order — so the metrics are
/// bit-identical for any `threads` setting (including sequential). Within
/// a chunk, samples are scored in blocks as CSR products `D = A·X`; every
/// element keeps the per-sample operation sequence, so the metrics equal
/// a one-sample-at-a-time loop bit for bit.
///
/// # Errors
///
/// * [`McError::NoSamples`] when `n_samples` is zero.
/// * [`McError::IndexOutOfRange`] when an index of `remaining` or `plan`
///   names no path or segment of `dm`.
/// * [`McError::MeasurementCountMismatch`] /
///   [`McError::TargetCountMismatch`] when the plan or `remaining`
///   disagrees with its predictor's shape.
/// * [`McError::Kernel`] when a worker's kernel fails.
pub fn evaluate(
    dm: &DelayModel,
    plan: &MeasurementPlan<'_>,
    remaining: &[usize],
    config: &McConfig,
) -> Result<McMetrics, McError> {
    let _span = pathrep_obs::span!("mc_evaluate");
    if config.n_samples == 0 {
        return Err(McError::NoSamples);
    }
    validate(dm, plan, remaining)?;
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
    // The block products record their own model work under "spmm" on
    // whichever worker runs them; this closed-form record covers the
    // evaluation loop proper — the draw of the variation vector and the
    // per-path error update (sub, abs, div, max/accumulate ≈ 4 flops
    // each) — and is a pure function of the configuration, so it is
    // bit-identical at any thread count.
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
    let kernel = BlockKernel::new(dm, plan);
    let chunks = config.n_samples.div_ceil(MC_CHUNK);
    let chunk_flops = MC_CHUNK * (kernel.flops_per_sample() + 4 * nr);
    let shards = pathrep_par::map_indexed_with(chunks, chunk_flops, config.threads, |c| {
        evaluate_chunk(&kernel, remaining, config, c)
    });

    // Combine in chunk-index order: the reduction never sees scheduling
    // order, so the totals are bit-identical at any thread count. The first
    // failing chunk (by index) also wins deterministically.
    let mut per_path_max = vec![0.0_f64; nr];
    let mut per_path_sum = vec![0.0_f64; nr];
    let mut total = 0usize;
    for shard in shards {
        let (mx, sm, n) = shard?;
        for k in 0..nr {
            per_path_max[k] = per_path_max[k].max(mx[k]);
            per_path_sum[k] += sm[k];
        }
        total += n;
    }
    if total != config.n_samples {
        return Err(kernel_err(format!(
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
    use pathrep_core::hybrid::AdmmStats;
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
        let remaining: Vec<usize> = (0..dm.mu_paths().len())
            .filter(|i| !half.contains(i))
            .collect();
        let pick = |idx: &[usize]| -> Vec<f64> { idx.iter().map(|&i| dm.mu_paths()[i]).collect() };
        let pred = MeasurementPredictor::new(
            &dm.a().select_rows(&remaining),
            &pick(&remaining),
            &dm.a().select_rows(half),
            &pick(half),
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
        assert_eq!(
            evaluate(dm, &plan, &sel.remaining, &cfg),
            Err(McError::NoSamples)
        );
    }

    const SMALL: McConfig = McConfig {
        n_samples: 8,
        seed: 1,
        threads: 2,
    };

    /// Measures segments 0 and 1 plus path 2 and predicts every other path.
    fn hybrid_plan(dm: &DelayModel) -> HybridSelection {
        let (segments, paths) = (vec![0, 1], vec![2]);
        let remaining: Vec<usize> = (0..dm.mu_paths().len()).filter(|&p| p != 2).collect();
        let meas_sens = dm
            .sigma()
            .select_rows(&segments)
            .vstack(&dm.a().select_rows(&paths))
            .unwrap();
        let meas_mu = [dm.mu_segments()[0], dm.mu_segments()[1], dm.mu_paths()[2]];
        let target_mu: Vec<f64> = remaining.iter().map(|&p| dm.mu_paths()[p]).collect();
        let predictor = MeasurementPredictor::new(
            &dm.a().select_rows(&remaining),
            &target_mu,
            &meas_sens,
            &meas_mu,
            DEFAULT_KAPPA,
        )
        .unwrap();
        HybridSelection {
            segments,
            paths,
            remaining,
            predictor,
            epsilon_r: 0.0,
            exact_size: 0,
            epsilon_prime: 0.0,
            admm_stats: AdmmStats {
                iterations: 0,
                converged: true,
                primal_residual: 0.0,
                dual_residual: 0.0,
                objective: 0.0,
                worst_row_std: 0.0,
            },
        }
    }

    #[test]
    fn hybrid_plan_fixture_is_valid() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = hybrid_plan(dm);
        let plan = MeasurementPlan::Hybrid { selection: &sel };
        assert!(evaluate(dm, &plan, &sel.remaining, &SMALL).is_ok());
    }

    #[test]
    fn remaining_index_out_of_range_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        let plan = MeasurementPlan::Paths {
            selected: &sel.selected,
            predictor: &sel.predictor,
        };
        let n = dm.mu_paths().len();
        let mut remaining = sel.remaining.clone();
        remaining[0] = n;
        assert_eq!(
            evaluate(dm, &plan, &remaining, &SMALL),
            Err(McError::IndexOutOfRange {
                list: "remaining",
                index: n,
                bound: n
            })
        );
    }

    #[test]
    fn selected_index_out_of_range_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        let n = dm.mu_paths().len();
        let mut selected = sel.selected.clone();
        selected[0] = n + 5;
        let plan = MeasurementPlan::Paths {
            selected: &selected,
            predictor: &sel.predictor,
        };
        assert_eq!(
            evaluate(dm, &plan, &sel.remaining, &SMALL),
            Err(McError::IndexOutOfRange {
                list: "selected",
                index: n + 5,
                bound: n
            })
        );
    }

    #[test]
    fn hybrid_path_index_out_of_range_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let mut sel = hybrid_plan(dm);
        let n = dm.mu_paths().len();
        sel.paths[0] = n;
        let plan = MeasurementPlan::Hybrid { selection: &sel };
        assert_eq!(
            evaluate(dm, &plan, &sel.remaining, &SMALL),
            Err(McError::IndexOutOfRange {
                list: "selection.paths",
                index: n,
                bound: n
            })
        );
    }

    #[test]
    fn hybrid_segment_index_out_of_range_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let mut sel = hybrid_plan(dm);
        let n_seg = dm.mu_segments().len();
        sel.segments[1] = n_seg;
        let plan = MeasurementPlan::Hybrid { selection: &sel };
        assert_eq!(
            evaluate(dm, &plan, &sel.remaining, &SMALL),
            Err(McError::IndexOutOfRange {
                list: "selection.segments",
                index: n_seg,
                bound: n_seg
            })
        );
    }

    #[test]
    fn remaining_longer_than_predictor_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = hybrid_plan(dm);
        let plan = MeasurementPlan::Hybrid { selection: &sel };
        let mut remaining = sel.remaining.clone();
        remaining.push(2);
        assert_eq!(
            evaluate(dm, &plan, &remaining, &SMALL),
            Err(McError::TargetCountMismatch {
                remaining: sel.remaining.len() + 1,
                predicted: sel.remaining.len()
            })
        );
    }

    #[test]
    fn remaining_shorter_than_predictor_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let sel = hybrid_plan(dm);
        let plan = MeasurementPlan::Hybrid { selection: &sel };
        let remaining = &sel.remaining[1..];
        assert_eq!(
            evaluate(dm, &plan, remaining, &SMALL),
            Err(McError::TargetCountMismatch {
                remaining: sel.remaining.len() - 1,
                predicted: sel.remaining.len()
            })
        );
    }

    #[test]
    fn measurement_count_mismatch_rejected() {
        let pb = tiny();
        let dm = &pb.delay_model;
        let mut sel = hybrid_plan(dm);
        sel.paths.push(3);
        let plan = MeasurementPlan::Hybrid { selection: &sel };
        assert_eq!(
            evaluate(dm, &plan, &sel.remaining, &SMALL),
            Err(McError::MeasurementCountMismatch {
                measured: 4,
                expected: 3
            })
        );
    }
}
