//! Shared experiment front-end: circuit → timing constraint → target-path
//! extraction → linear delay model.

use crate::suite::BenchmarkSpec;
use pathrep_circuit::generator::{CircuitGenerator, PlacedCircuit};
use pathrep_circuit::paths::{decompose_into_segments, Path, SegmentDecomposition};
use pathrep_linalg::sparse::SparseMatrix;
use pathrep_ssta::extract::{CriticalPathExtractor, ExtractConfig};
use pathrep_ssta::yield_est::{monte_carlo_circuit_yield, nominal_circuit_delay};
use pathrep_variation::model::VariationModel;
use pathrep_variation::sensitivity::DelayModel;
use std::error::Error;
use std::fmt;

/// Pipeline tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Timing constraint as a fraction of the nominal circuit delay
    /// (1.0 reproduces Table 1; < 1.0 tightens the constraint so more paths
    /// become statistically critical, growing `|P_tar|` for Table 2).
    pub t_cons_factor: f64,
    /// Path yield-loss threshold as a fraction of the circuit yield loss
    /// (the paper uses 0.01·(1 − Y)).
    pub yield_loss_fraction: f64,
    /// Cap on the extracted path count.
    pub max_paths: usize,
    /// Monte-Carlo samples for the circuit-yield estimate.
    pub yield_samples: usize,
    /// Seed for the yield estimate.
    pub seed: u64,
    /// Multiplier on the per-gate random σ (1.0 = calibrated budget; the
    /// paper's Figure-2(b)/Table-2 regime grows it, e.g. 3.0).
    pub random_scale: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            t_cons_factor: 1.0,
            yield_loss_fraction: 0.01,
            max_paths: 5_000,
            yield_samples: 2_000,
            seed: 7,
            random_scale: 1.0,
        }
    }
}

/// A benchmark prepared for selection experiments.
#[derive(Debug)]
pub struct PreparedBenchmark {
    /// The generated circuit.
    pub circuit: PlacedCircuit,
    /// The variation model in force.
    pub model: VariationModel,
    /// Timing constraint (ps).
    pub t_cons: f64,
    /// Monte-Carlo circuit timing yield at `t_cons`.
    pub circuit_yield: f64,
    /// The extracted target paths.
    pub paths: Vec<Path>,
    /// Their segment decomposition.
    pub decomposition: SegmentDecomposition,
    /// The linear delay model `d = µ + A·x`.
    pub delay_model: DelayModel,
}

impl PreparedBenchmark {
    /// `|P_tar|`.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// `|G_C|`: gates covered by the target paths.
    pub fn covered_gate_count(&self) -> usize {
        self.decomposition.covered_gates().len()
    }

    /// `|R_C|`: regions covered by the target paths.
    pub fn covered_region_count(&self) -> usize {
        self.delay_model.covered_region_count()
    }
}

/// Error from pipeline preparation.
#[derive(Debug)]
pub struct PrepareError {
    message: String,
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline preparation failed: {}", self.message)
    }
}

impl Error for PrepareError {}

fn wrap<E: fmt::Display>(e: E) -> PrepareError {
    PrepareError {
        message: e.to_string(),
    }
}

/// Counters every experiment report carries even at zero — a Table-1 run
/// performs no ADMM solve, and the report should say so explicitly rather
/// than omit the row.
const STANDARD_COUNTERS: &[&str] = &[
    "convopt.admm.iterations",
    "core.approx.evaluations",
    "core.approx.selections",
    "core.exact.selections",
    "core.hybrid.selections",
    "core.subset.calls",
    "eval.mc.evaluations",
    "eval.mc.samples",
    "linalg.qr.pivoted_calls",
    "linalg.svd.calls",
    "ssta.extract.paths",
];

/// Declares the standard counters and generates `spec`'s circuit.
fn generate(spec: &BenchmarkSpec) -> Result<PlacedCircuit, PrepareError> {
    for name in STANDARD_COUNTERS {
        pathrep_obs::counter_add(name, 0);
    }
    let _g = pathrep_obs::span!("generate_circuit");
    CircuitGenerator::new(spec.generator_config())
        .generate()
        .map_err(wrap)
}

/// Runs the full front-end for one benchmark.
///
/// # Errors
///
/// Returns [`PrepareError`] when generation, extraction or model
/// construction fails (e.g. no critical path qualifies — tighten
/// `t_cons_factor`).
pub fn prepare(
    spec: &BenchmarkSpec,
    config: &PipelineConfig,
) -> Result<PreparedBenchmark, PrepareError> {
    let _span = pathrep_obs::span!("prepare");
    let circuit = generate(spec)?;
    let model = spec.variation_model().with_random_scale(config.random_scale);
    prepare_circuit(circuit, model, config)
}

/// [`prepare`] for an already-generated circuit (used by Figure 2, which
/// swaps the cell library while keeping topology).
///
/// # Errors
///
/// Same as [`prepare`].
pub fn prepare_circuit(
    circuit: PlacedCircuit,
    model: VariationModel,
    config: &PipelineConfig,
) -> Result<PreparedBenchmark, PrepareError> {
    let _span = pathrep_obs::span!("prepare_circuit");
    let t_cons = nominal_circuit_delay(&circuit) * config.t_cons_factor;
    let circuit_yield = {
        let _g = pathrep_obs::span!("circuit_yield");
        monte_carlo_circuit_yield(&circuit, &model, t_cons, config.yield_samples, config.seed)
    };
    // Paper: extract all paths with yield-loss > fraction·(1 − Y).
    let threshold = (config.yield_loss_fraction * (1.0 - circuit_yield)).max(1e-9);
    let budget = PathBudget::YieldLoss {
        threshold,
        max_paths: config.max_paths,
    };
    let (paths, decomposition, delay_model) = extract_and_build(&circuit, &model, t_cons, budget)?;
    pathrep_obs::ledger::record("eval", "prepare", |f| {
        f.int("target_paths", paths.len() as u64)
            .num("t_cons", t_cons)
            .num("circuit_yield", circuit_yield)
            .num("yield_loss_threshold", threshold);
    });
    let delay_model = delay_model.to_dense();
    Ok(PreparedBenchmark {
        circuit,
        model,
        t_cons,
        circuit_yield,
        paths,
        decomposition,
        delay_model,
    })
}

/// How a front end sizes `P_tar`: the one step in which [`prepare_circuit`]
/// and [`prepare_sparse`] differ.
#[derive(Debug)]
enum PathBudget {
    /// Every path whose yield loss exceeds `threshold`, capped at
    /// `max_paths` (the paper's rule).
    YieldLoss { threshold: f64, max_paths: usize },
    /// The `k` statistically-most-critical paths, with no threshold.
    KBest(usize),
}

/// The front end both pipelines share once `P_tar` is sized: extract the
/// target paths, decompose them into segments and assemble the delay
/// model.
fn extract_and_build(
    circuit: &PlacedCircuit,
    model: &VariationModel,
    t_cons: f64,
    budget: PathBudget,
) -> Result<(Vec<Path>, SegmentDecomposition, DelayModel<SparseMatrix>), PrepareError> {
    let extracted = match budget {
        PathBudget::YieldLoss {
            threshold,
            max_paths,
        } => {
            let cfg = ExtractConfig::new(t_cons, threshold).with_max_paths(max_paths);
            CriticalPathExtractor::new(circuit, model, cfg).extract()
        }
        // The threshold is irrelevant in k-best mode; t_cons still anchors
        // the per-path criticality scores.
        PathBudget::KBest(k) => {
            let cfg = ExtractConfig::new(t_cons, 1e-6);
            CriticalPathExtractor::new(circuit, model, cfg).extract_k_best(k)
        }
    };
    if extracted.is_empty() {
        return Err(PrepareError {
            message: format!("no statistically-critical paths at t_cons {t_cons:.1} ps ({budget:?})"),
        });
    }
    let paths: Vec<Path> = extracted.into_iter().map(|e| e.path).collect();
    pathrep_obs::gauge_set("eval.pipeline.target_paths", paths.len() as f64);
    let _g = pathrep_obs::span!("build_delay_model");
    let decomposition = decompose_into_segments(&paths).map_err(wrap)?;
    let delay_model = DelayModel::build(circuit, &paths, &decomposition, model).map_err(wrap)?;
    Ok((paths, decomposition, delay_model))
}

/// Tuning knobs for the sparse (large-instance) front-end.
///
/// The dense pipeline sizes `P_tar` by a Monte-Carlo yield threshold;
/// at 100k+ gates that estimate is itself a heavy dense computation, and
/// the threshold census can explode. The sparse front-end instead asks
/// for the `k` statistically-most-critical paths directly
/// ([`CriticalPathExtractor::extract_k_best`]) and keeps the CSR delay
/// model instead of its dense view.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsePipelineConfig {
    /// Timing constraint as a fraction of the nominal circuit delay.
    pub t_cons_factor: f64,
    /// Number of target paths to enumerate (`|P_tar| ≤ k`).
    pub k_paths: usize,
}

impl Default for SparsePipelineConfig {
    fn default() -> Self {
        SparsePipelineConfig {
            t_cons_factor: 1.0,
            k_paths: 1_000,
        }
    }
}

/// A benchmark prepared for sketched-selection experiments: same shape as
/// [`PreparedBenchmark`] minus the Monte-Carlo yield, with the delay model
/// held in CSR form.
#[derive(Debug)]
pub struct PreparedSparseBenchmark {
    /// The generated circuit.
    pub circuit: PlacedCircuit,
    /// The variation model in force.
    pub model: VariationModel,
    /// Timing constraint (ps).
    pub t_cons: f64,
    /// The extracted target paths (k-best order).
    pub paths: Vec<Path>,
    /// Their segment decomposition.
    pub decomposition: SegmentDecomposition,
    /// The linear delay model `d = µ + A·x`, in CSR form.
    pub delay_model: DelayModel<SparseMatrix>,
}

impl PreparedSparseBenchmark {
    /// `|P_tar|`.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }
}

/// Runs the sparse front-end for one benchmark: generate → k-best path
/// enumeration → segment decomposition → CSR delay model. No Monte-Carlo
/// yield estimate is performed (see [`SparsePipelineConfig`]).
///
/// # Errors
///
/// Returns [`PrepareError`] when generation, extraction or model
/// construction fails.
pub fn prepare_sparse(
    spec: &BenchmarkSpec,
    config: &SparsePipelineConfig,
) -> Result<PreparedSparseBenchmark, PrepareError> {
    let _span = pathrep_obs::span!("prepare_sparse");
    let circuit = generate(spec)?;
    let model = spec.variation_model();
    let t_cons = nominal_circuit_delay(&circuit) * config.t_cons_factor;
    let (paths, decomposition, delay_model) =
        extract_and_build(&circuit, &model, t_cons, PathBudget::KBest(config.k_paths))?;
    pathrep_obs::ledger::record("eval", "prepare_sparse", |f| {
        f.int("target_paths", paths.len() as u64)
            .int("segments", decomposition.segment_count() as u64)
            .int("variables", delay_model.variable_count() as u64)
            .int("nnz_g", delay_model.g().nnz() as u64)
            .int("nnz_sigma", delay_model.sigma().nnz() as u64)
            .int("nnz_a", delay_model.a().nnz() as u64)
            .num("density_a", delay_model.a().density())
            .num("t_cons", t_cons);
    });
    Ok(PreparedSparseBenchmark {
        circuit,
        model,
        t_cons,
        paths,
        decomposition,
        delay_model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::BenchmarkSpec;

    fn tiny_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "tiny",
            n_gates: 250,
            n_inputs: 20,
            n_outputs: 16,
            model_levels: 3,
            seed: 12,
                        depth: None,
}
    }

    #[test]
    fn prepared_benchmark_is_send_and_sync() {
        // Compile-time assertion: the bench harness shares one
        // `Arc<PreparedBenchmark>` across workloads, and pathrep-par workers
        // read it from pool threads. A non-Send field sneaking in (Rc, raw
        // pointer, RefCell) must fail here, not in a downstream crate.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedBenchmark>();
    }

    #[test]
    fn prepare_produces_consistent_model() {
        let pb = prepare(&tiny_spec(), &PipelineConfig::default()).unwrap();
        assert!(pb.path_count() >= 1);
        assert_eq!(pb.delay_model.a().nrows(), pb.path_count());
        assert_eq!(
            pb.delay_model.g().ncols(),
            pb.decomposition.segment_count()
        );
        assert!(pb.covered_gate_count() <= 250);
        assert!(pb.covered_region_count() <= 21);
        assert!(pb.t_cons > 0.0);
        assert!((0.0..=1.0).contains(&pb.circuit_yield));
    }

    #[test]
    fn tighter_constraint_grows_path_pool() {
        let base = prepare(&tiny_spec(), &PipelineConfig::default()).unwrap();
        let tight = prepare(
            &tiny_spec(),
            &PipelineConfig {
                t_cons_factor: 0.95,
                ..PipelineConfig::default()
            },
        )
        .unwrap();
        assert!(
            tight.path_count() >= base.path_count(),
            "tightening T_cons must not shrink |P_tar| ({} vs {})",
            tight.path_count(),
            base.path_count()
        );
    }

    #[test]
    fn rank_bounded_by_segment_count() {
        // Lemma 1: rank(A) ≤ n_S.
        let pb = prepare(&tiny_spec(), &PipelineConfig::default()).unwrap();
        let svd = pathrep_linalg::svd::Svd::compute(pb.delay_model.a()).unwrap();
        assert!(svd.rank(1e-9) <= pb.decomposition.segment_count());
    }

    #[test]
    fn determinism() {
        let a = prepare(&tiny_spec(), &PipelineConfig::default()).unwrap();
        let b = prepare(&tiny_spec(), &PipelineConfig::default()).unwrap();
        assert_eq!(a.path_count(), b.path_count());
        assert_eq!(a.t_cons, b.t_cons);
        assert!(a.delay_model.a().approx_eq(b.delay_model.a(), 0.0));
    }

    #[test]
    fn prepare_sparse_produces_consistent_model() {
        let cfg = SparsePipelineConfig {
            k_paths: 50,
            ..SparsePipelineConfig::default()
        };
        let pb = prepare_sparse(&tiny_spec(), &cfg).unwrap();
        assert_eq!(pb.path_count(), 50, "k-best must fill the request");
        assert_eq!(pb.delay_model.a().nrows(), pb.path_count());
        assert_eq!(
            pb.delay_model.g().ncols(),
            pb.decomposition.segment_count()
        );
        assert!(pb.t_cons > 0.0);
    }

    #[test]
    fn sparse_model_is_actually_sparse() {
        let cfg = SparsePipelineConfig {
            k_paths: 40,
            ..SparsePipelineConfig::default()
        };
        let dm = prepare_sparse(&tiny_spec(), &cfg).unwrap().delay_model;
        assert!(
            dm.a().density() < 0.5,
            "A density {} — the block structure should keep it sparse",
            dm.a().density()
        );
        assert!(dm.g().density() < 0.5);
    }

    #[test]
    fn prepare_sparse_determinism() {
        let cfg = SparsePipelineConfig {
            k_paths: 30,
            ..SparsePipelineConfig::default()
        };
        let a = prepare_sparse(&tiny_spec(), &cfg).unwrap();
        let b = prepare_sparse(&tiny_spec(), &cfg).unwrap();
        assert_eq!(a.path_count(), b.path_count());
        assert_eq!(a.t_cons.to_bits(), b.t_cons.to_bits());
        assert!(a.delay_model.a().to_dense().approx_eq(&b.delay_model.a().to_dense(), 0.0));
    }
}
