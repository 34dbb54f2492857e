//! Table 1: exact vs approximate representative-path selection.
//!
//! For each benchmark: set `T_cons` to the nominal circuit delay, extract
//! all paths with yield-loss above `0.01·(1 − Y)`, then report the exact
//! selection size `rank(A)`, the approximate selection size at `ε = 5 %`,
//! and the Monte-Carlo errors `e1`, `e2` of the approximate predictor.

use crate::experiments::ExperimentError;
use crate::metrics::{evaluate, McConfig, MeasurementPlan};
use crate::pipeline::{prepare, PipelineConfig};
use crate::report::{pct, Table};
use crate::suite::{BenchmarkSpec, Suite};
use pathrep_core::approx::{approx_select, ApproxConfig};

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Total gate count `|G|`.
    pub gates: usize,
    /// Total region count `|R|`.
    pub regions: usize,
    /// Extracted target paths `|P_tar|`.
    pub n_tar: usize,
    /// Exact selection size `|P_r|` = rank(A).
    pub r_exact: usize,
    /// Approximate selection size at ε = 5 %.
    pub r_approx: usize,
    /// Monte-Carlo `e1` (average max relative error).
    pub e1: f64,
    /// Monte-Carlo `e2` (average mean relative error).
    pub e2: f64,
}

/// Options for the Table-1 run.
#[derive(Debug, Clone)]
pub struct Table1Options {
    /// Benchmarks to run.
    pub specs: Vec<BenchmarkSpec>,
    /// Error tolerance ε for Algorithm 1 (paper: 0.05).
    pub epsilon: f64,
    /// Pipeline configuration (paper: `T_cons` = nominal delay).
    pub pipeline: PipelineConfig,
    /// Monte-Carlo configuration (paper: 10 000 samples).
    pub mc: McConfig,
}

impl Default for Table1Options {
    fn default() -> Self {
        Table1Options {
            specs: Suite::all(),
            epsilon: 0.05,
            // The synthetic circuits are denser near the critical region
            // than the ISCAS originals; capping at the 800 most-critical
            // paths (best-first extraction) keeps |P_tar| in the paper's
            // Table-1 range without changing the method.
            pipeline: PipelineConfig {
                max_paths: 800,
                ..PipelineConfig::default()
            },
            mc: McConfig::default(),
        }
    }
}

impl Table1Options {
    /// A reduced configuration for quick runs (`--fast`) and tests.
    pub fn fast() -> Self {
        Table1Options {
            specs: Suite::small(),
            mc: McConfig {
                n_samples: 1_000,
                ..McConfig::default()
            },
            ..Table1Options::default()
        }
    }
}

/// Runs the Table-1 experiment for one benchmark.
///
/// # Errors
///
/// Returns [`ExperimentError`] when any pipeline stage fails.
pub fn run_one(spec: &BenchmarkSpec, opts: &Table1Options) -> Result<Table1Row, ExperimentError> {
    let _span = pathrep_obs::span!(spec.name);
    let pb = prepare(spec, &opts.pipeline).map_err(ExperimentError::new)?;
    let dm = &pb.delay_model;
    let approx = approx_select(
        dm.a(),
        dm.mu_paths(),
        &ApproxConfig::new(opts.epsilon, pb.t_cons),
    )
    .map_err(ExperimentError::new)?;
    let metrics = evaluate(
        dm,
        &MeasurementPlan::Paths {
            selected: &approx.selected,
            predictor: &approx.predictor,
        },
        &approx.remaining,
        &opts.mc,
    )
    .map_err(ExperimentError::new)?;
    Ok(Table1Row {
        name: spec.name.to_string(),
        gates: spec.n_gates,
        regions: spec.region_count(),
        n_tar: pb.path_count(),
        r_exact: approx.rank,
        r_approx: approx.selected.len(),
        e1: metrics.e1,
        e2: metrics.e2,
    })
}

/// Runs the full Table-1 experiment.
///
/// # Errors
///
/// Returns the first [`ExperimentError`] encountered.
pub fn run(opts: &Table1Options) -> Result<Vec<Table1Row>, ExperimentError> {
    opts.specs.iter().map(|s| run_one(s, opts)).collect()
}

/// Renders rows in the paper's Table-1 layout, with the `Ave` row.
pub fn render(rows: &[Table1Row]) -> String {
    let mut t = Table::new([
        "BENCH", "|G|", "|R|", "|Ptar|", "|Pr| exact", "|Pr| approx", "e1%", "e2%",
    ]);
    for r in rows {
        t.push_row([
            r.name.clone(),
            r.gates.to_string(),
            r.regions.to_string(),
            r.n_tar.to_string(),
            r.r_exact.to_string(),
            r.r_approx.to_string(),
            pct(r.e1),
            pct(r.e2),
        ]);
    }
    if !rows.is_empty() {
        let n = rows.len() as f64;
        t.push_row([
            "Ave".to_string(),
            String::new(),
            String::new(),
            String::new(),
            format!("{:.1}", rows.iter().map(|r| r.r_exact).sum::<usize>() as f64 / n),
            format!("{:.1}", rows.iter().map(|r| r.r_approx).sum::<usize>() as f64 / n),
            pct(rows.iter().map(|r| r.e1).sum::<f64>() / n),
            pct(rows.iter().map(|r| r.e2).sum::<f64>() / n),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Table1Options {
        Table1Options {
            specs: vec![BenchmarkSpec {
                name: "tiny",
                n_gates: 220,
                n_inputs: 18,
                n_outputs: 14,
                model_levels: 3,
                seed: 51,
                            depth: None,
}],
            epsilon: 0.05,
            pipeline: PipelineConfig::default(),
            mc: McConfig {
                n_samples: 300,
                seed: 1,
                threads: 2,
            },
        }
    }

    #[test]
    fn row_is_paper_shaped() {
        let rows = run(&tiny_opts()).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // Approximate never exceeds exact; exact never exceeds |P_tar|.
        assert!(r.r_approx <= r.r_exact);
        assert!(r.r_exact <= r.n_tar);
        // Errors bounded by the tolerance regime (ε = 5 % with κ = 3 gives
        // e1 comfortably below ~5 %).
        assert!(r.e1 < 0.06, "e1 = {}", r.e1);
        assert!(r.e2 <= r.e1);
    }

    #[test]
    fn render_includes_average_row() {
        let rows = run(&tiny_opts()).unwrap();
        let s = render(&rows);
        assert!(s.contains("Ave"));
        assert!(s.contains("tiny"));
        assert!(s.contains("e1%"));
    }
}
