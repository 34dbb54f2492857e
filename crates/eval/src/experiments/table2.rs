//! Table 2: hybrid path/segment selection vs approximate path selection.
//!
//! The constraint is tightened (`t_cons_factor < 1`) so the statistically
//! critical pool grows to thousands of paths (the paper relaxes its
//! synthesis constraint to the same effect), ε is set to 8 %, and the
//! hybrid ε′ is swept below ε keeping the candidate with the fewest total
//! measurements.

use crate::experiments::ExperimentError;
use crate::metrics::{evaluate, McConfig, MeasurementPlan};
use crate::pipeline::{prepare, PipelineConfig};
use crate::report::{pct, Table};
use crate::suite::{BenchmarkSpec, Suite};
use pathrep_core::approx::{approx_select_with, ApproxConfig};
use pathrep_core::hybrid::{hybrid_select_sweep_with, HybridConfig, HybridInputs};
use pathrep_core::ModelFactors;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Total gate count `|G|`.
    pub gates: usize,
    /// Total region count `|R|`.
    pub regions: usize,
    /// Gates covered by the targets `|G_C|`.
    pub covered_gates: usize,
    /// Regions covered by the targets `|R_C|`.
    pub covered_regions: usize,
    /// Extracted target paths `|P_tar|`.
    pub n_tar: usize,
    /// Approximate path selection size.
    pub approx_paths: usize,
    /// Approximate selection `e1`.
    pub approx_e1: f64,
    /// Approximate selection `e2`.
    pub approx_e2: f64,
    /// Hybrid: directly measured paths `|P_r|`.
    pub hybrid_paths: usize,
    /// Hybrid: selected segments `|S_r|`.
    pub hybrid_segments: usize,
    /// Hybrid `e1`.
    pub hybrid_e1: f64,
    /// Hybrid `e2`.
    pub hybrid_e2: f64,
}

impl Table2Row {
    /// Total hybrid measurements `|P_r| + |S_r|`.
    pub fn hybrid_total(&self) -> usize {
        self.hybrid_paths + self.hybrid_segments
    }
}

/// Options for the Table-2 run.
#[derive(Debug, Clone)]
pub struct Table2Options {
    /// Benchmarks to run.
    pub specs: Vec<BenchmarkSpec>,
    /// Error tolerance ε (paper: 0.08).
    pub epsilon: f64,
    /// ε′ sweep candidates (all < ε).
    pub eps_prime_candidates: Vec<f64>,
    /// Pipeline configuration; `t_cons_factor < 1` grows `|P_tar|`.
    pub pipeline: PipelineConfig,
    /// Monte-Carlo configuration.
    pub mc: McConfig,
    /// Benchmark that runs at the paper's full headline scale (~3 500
    /// target paths); every other benchmark uses `pipeline.max_paths`.
    /// Dense single-machine SVD makes the full scale minutes-per-benchmark,
    /// so it is reserved for the paper's own headline circuit.
    pub headline: (&'static str, usize),
}

impl Default for Table2Options {
    fn default() -> Self {
        Table2Options {
            specs: Suite::all(),
            epsilon: 0.08,
            eps_prime_candidates: vec![0.06, 0.07],
            // Section 5 / Figure 2(b): the hybrid approach targets the
            // scaled-technology regime where the extent of independent
            // random variation has grown; 3× matches the paper's own
            // Figure-2(b) configuration.
            pipeline: PipelineConfig {
                t_cons_factor: 0.98,
                max_paths: 1_200,
                random_scale: 3.0,
                ..PipelineConfig::default()
            },
            mc: McConfig::default(),
            headline: ("s38417", 3_600),
        }
    }
}

impl Table2Options {
    /// A reduced configuration for quick runs (`--fast`) and tests.
    pub fn fast() -> Self {
        Table2Options {
            specs: Suite::small(),
            eps_prime_candidates: vec![0.04],
            pipeline: PipelineConfig {
                t_cons_factor: 0.98,
                max_paths: 600,
                random_scale: 3.0,
                ..PipelineConfig::default()
            },
            mc: McConfig {
                n_samples: 1_000,
                ..McConfig::default()
            },
            ..Table2Options::default()
        }
    }
}

/// Runs the Table-2 experiment for one benchmark.
///
/// # Errors
///
/// Returns [`ExperimentError`] when any stage fails.
pub fn run_one(spec: &BenchmarkSpec, opts: &Table2Options) -> Result<Table2Row, ExperimentError> {
    let _span = pathrep_obs::span!(spec.name);
    let mut pipeline = opts.pipeline.clone();
    if spec.name == opts.headline.0 {
        pipeline.max_paths = opts.headline.1;
    }
    let pb = prepare(spec, &pipeline).map_err(ExperimentError::new)?;
    let dm = &pb.delay_model;
    let factors = ModelFactors::compute(dm.a()).map_err(ExperimentError::new)?;

    // Approximate path selection at ε.
    let approx = approx_select_with(
        dm.a(),
        dm.mu_paths(),
        &ApproxConfig::new(opts.epsilon, pb.t_cons),
        &factors,
    )
    .map_err(ExperimentError::new)?;
    let approx_metrics = evaluate(
        dm,
        &MeasurementPlan::Paths {
            selected: &approx.selected,
            predictor: &approx.predictor,
        },
        &approx.remaining,
        &opts.mc,
    )
    .map_err(ExperimentError::new)?;

    // Hybrid path/segment selection with the ε′ sweep.
    let inputs = HybridInputs {
        g: dm.g(),
        sigma: dm.sigma(),
        a: dm.a(),
        mu_segments: dm.mu_segments(),
        mu_paths: dm.mu_paths(),
    };
    let base = HybridConfig::new(
        opts.epsilon,
        opts.eps_prime_candidates.first().copied().unwrap_or(0.04),
        pb.t_cons,
    );
    let hybrid =
        hybrid_select_sweep_with(&inputs, &base, &opts.eps_prime_candidates, &factors)
            .map_err(ExperimentError::new)?;
    let hybrid_metrics = evaluate(
        dm,
        &MeasurementPlan::Hybrid {
            selection: &hybrid,
        },
        &hybrid.remaining,
        &opts.mc,
    )
    .map_err(ExperimentError::new)?;

    Ok(Table2Row {
        name: spec.name.to_string(),
        gates: spec.n_gates,
        regions: spec.region_count(),
        covered_gates: pb.covered_gate_count(),
        covered_regions: pb.covered_region_count(),
        n_tar: pb.path_count(),
        approx_paths: approx.selected.len(),
        approx_e1: approx_metrics.e1,
        approx_e2: approx_metrics.e2,
        hybrid_paths: hybrid.paths.len(),
        hybrid_segments: hybrid.segments.len(),
        hybrid_e1: hybrid_metrics.e1,
        hybrid_e2: hybrid_metrics.e2,
    })
}

/// Runs the full Table-2 experiment.
///
/// # Errors
///
/// Returns the first [`ExperimentError`] encountered.
pub fn run(opts: &Table2Options) -> Result<Vec<Table2Row>, ExperimentError> {
    opts.specs.iter().map(|s| run_one(s, opts)).collect()
}

/// Renders rows in the paper's Table-2 layout, with the `Ave` row.
pub fn render(rows: &[Table2Row]) -> String {
    let mut t = Table::new([
        "BENCH", "|G|", "|R|", "|Gc|", "|Rc|", "|Ptar|", "|Pr|apx", "e1%", "e2%", "|Pr|",
        "|Sr|", "|Pr|+|Sr|", "e1%", "e2%",
    ]);
    for r in rows {
        t.push_row([
            r.name.clone(),
            r.gates.to_string(),
            r.regions.to_string(),
            r.covered_gates.to_string(),
            r.covered_regions.to_string(),
            r.n_tar.to_string(),
            r.approx_paths.to_string(),
            pct(r.approx_e1),
            pct(r.approx_e2),
            r.hybrid_paths.to_string(),
            r.hybrid_segments.to_string(),
            r.hybrid_total().to_string(),
            pct(r.hybrid_e1),
            pct(r.hybrid_e2),
        ]);
    }
    if !rows.is_empty() {
        let n = rows.len() as f64;
        let avg_usize = |f: &dyn Fn(&Table2Row) -> usize| {
            format!("{:.1}", rows.iter().map(f).sum::<usize>() as f64 / n)
        };
        t.push_row([
            "Ave".to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            avg_usize(&|r| r.approx_paths),
            pct(rows.iter().map(|r| r.approx_e1).sum::<f64>() / n),
            pct(rows.iter().map(|r| r.approx_e2).sum::<f64>() / n),
            avg_usize(&|r| r.hybrid_paths),
            avg_usize(&|r| r.hybrid_segments),
            avg_usize(&|r| r.hybrid_total()),
            pct(rows.iter().map(|r| r.hybrid_e1).sum::<f64>() / n),
            pct(rows.iter().map(|r| r.hybrid_e2).sum::<f64>() / n),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Table2Options {
        Table2Options {
            specs: vec![BenchmarkSpec {
                name: "tiny",
                n_gates: 240,
                n_inputs: 20,
                n_outputs: 16,
                model_levels: 3,
                seed: 61,
                            depth: None,
}],
            epsilon: 0.08,
            eps_prime_candidates: vec![0.03, 0.05],
            pipeline: PipelineConfig {
                t_cons_factor: 0.98,
                max_paths: 250,
                ..PipelineConfig::default()
            },
            mc: McConfig {
                n_samples: 250,
                seed: 2,
                threads: 2,
            },
            headline: ("none", 0),
        }
    }

    #[test]
    fn hybrid_row_is_consistent() {
        let rows = run(&tiny_opts()).unwrap();
        let r = &rows[0];
        assert!(r.covered_gates <= r.gates);
        assert!(r.covered_regions <= r.regions);
        assert!(r.hybrid_total() >= 1);
        // The hybrid errors respect the ε = 8 % regime.
        assert!(r.hybrid_e1 < 0.1, "hybrid e1 = {}", r.hybrid_e1);
        assert!(r.approx_e1 < 0.1, "approx e1 = {}", r.approx_e1);
    }

    #[test]
    fn render_has_all_columns() {
        let rows = run(&tiny_opts()).unwrap();
        let s = render(&rows);
        assert!(s.contains("|Pr|+|Sr|"));
        assert!(s.contains("Ave"));
    }
}
