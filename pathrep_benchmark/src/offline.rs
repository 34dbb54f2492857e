//! The three offline workloads: design-time flows from a circuit to a
//! checked measurement plan.

use crate::report::Report;
use crate::seeds::derive;
use crate::stats::median;
use pathrep_core::approx::{approx_select_with, ApproxConfig};
use pathrep_core::factors::ModelFactors;
use pathrep_core::hybrid::{hybrid_select_sweep_with, HybridConfig, HybridInputs};
use pathrep_core::predictor::DEFAULT_KAPPA;
use pathrep_core::sketch::{sketch_approx_select, sketch_exact_select, SketchApproxConfig};
use pathrep_eval::metrics::{evaluate, McConfig, MeasurementPlan};
use pathrep_eval::pipeline::{prepare, prepare_sparse, PipelineConfig, SparsePipelineConfig};
use pathrep_eval::suite::{BenchmarkSpec, Suite};
use pathrep_linalg::sketch::SketchConfig;
use pathrep_obs::span;
use std::time::Instant;

/// Which offline regime a flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Table 1: approximate selection at ε = 5 %, 10 000 MC samples.
    Table1,
    /// Table 2: approximate then hybrid path/segment selection, ε = 8 %.
    Table2,
    /// The 120k-gate instance through the sparse, sketched pipeline.
    Sketch,
}

/// Table-1 tolerance ε (fraction of `T_cons`).
const T1_EPSILON: f64 = 0.05;
/// Table-2 tolerance ε and the ε′ sweep.
const T2_EPSILON: f64 = 0.08;
const T2_EPS_PRIME: [f64; 2] = [0.06, 0.07];
/// Sketched-selection tolerance. With the default 96-column sketch the
/// exact-size selection of the 120k-gate instance already carries
/// ε_r ≈ 13–15 %, so a 5 % tolerance could never be met.
const SKETCH_EPSILON: f64 = 0.20;

/// One flow's inputs, all fixed by the workload seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Which regime runs.
    pub regime: Regime,
    /// The circuit (generator seed included).
    pub spec: BenchmarkSpec,
    /// Seed of the flow's random stream: the evaluation Monte Carlo (the
    /// simulated dies) of the dense regimes, the range finder's test
    /// matrix of the sketched one.
    pub seed: u64,
}

/// The seeded flow list of `regime`.
///
/// The circuits are fixed: the suite's instances of each class, and six
/// generator seeds of the 120k-gate class, with the pipeline's fixed
/// yield seed. A flow's
/// cost varies by up to 3× between generator seeds (ADMM size, `|P_tar|`,
/// variable count), so seed-derived circuits would make wall time and
/// measurement counts a property of the seed rather than of the code.
/// The workload seed drives each flow's random stream.
pub fn flows(regime: Regime, seed: u64) -> Vec<FlowSpec> {
    let specs: Vec<BenchmarkSpec> = match regime {
        Regime::Table1 => suite(&["s1196", "s1423", "s5378", "s9234"]),
        Regime::Table2 => suite(&["s1196", "s1238", "s1423"]),
        Regime::Sketch => (0..6)
            .map(|i| {
                let base = Suite::large();
                BenchmarkSpec {
                    seed: base.seed + i,
                    ..base
                }
            })
            .collect(),
    };
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| FlowSpec {
            regime,
            spec,
            seed: derive(seed, 2, i as u64),
        })
        .collect()
}

fn suite(classes: &[&str]) -> Vec<BenchmarkSpec> {
    classes
        .iter()
        .map(|name| Suite::by_name(name).expect("class is in the suite"))
        .collect()
}

/// A small fixed flow of `regime`, run untimed as set-up so first-touch
/// costs (worker threads, allocator growth) land outside the measurement.
pub fn warmup_flow(regime: Regime) -> FlowSpec {
    let n_gates = if regime == Regime::Sketch { 5_000 } else { 250 };
    FlowSpec {
        regime,
        spec: BenchmarkSpec {
            name: "warmup",
            n_gates,
            n_inputs: 20,
            n_outputs: 16,
            model_levels: 3,
            seed: 12,
            depth: None,
        },
        seed: 99,
    }
}

/// What one flow produced, reduced to what the checks and metrics need.
#[derive(Debug, Clone, Default)]
pub struct FlowResult {
    /// The tolerance ε the flow's plans must meet.
    pub epsilon: f64,
    /// MC `e1` of the plan the regime guarantees (`None` without MC).
    pub e1: Option<f64>,
    /// Analytic `ε_r` of every selection the flow made.
    pub epsilon_r: Vec<f64>,
    /// `(r, rank, |P_tar|)` where the regime checks the Table-1 shape.
    pub shape: Option<(usize, usize, usize)>,
    /// Every other reported number, which must be finite.
    pub values: Vec<f64>,
    /// Post-silicon measurements per die of the flow's plan.
    pub measurements: usize,
    /// Algorithm-1 candidates evaluated and accepted (`ε_r ≤ ε`).
    pub candidates: (usize, usize),
    /// Whether each ADMM solve behind the chosen hybrid plan converged.
    pub admm_converged: Vec<bool>,
}

impl FlowResult {
    /// Every correctness check the flow fails, as messages.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let finite = self
            .e1
            .iter()
            .chain(&self.epsilon_r)
            .chain(&self.values)
            .all(|v| v.is_finite());
        if !finite {
            out.push("non-finite result".to_owned());
        }
        if let Some(e1) = self.e1 {
            if e1 >= self.epsilon {
                out.push(format!("e1 {e1:.5} is not below epsilon {}", self.epsilon));
            }
        }
        for &eps_r in &self.epsilon_r {
            if eps_r > self.epsilon {
                out.push(format!(
                    "epsilon_r {eps_r:.5} exceeds epsilon {}",
                    self.epsilon
                ));
            }
        }
        if let Some((r, rank, paths)) = self.shape {
            if !(r <= rank && rank <= paths) {
                out.push(format!(
                    "shape r {r} <= rank {rank} <= |P_tar| {paths} fails"
                ));
            }
        }
        out
    }
}

fn accepted(trace: &[(usize, f64)], epsilon: f64) -> (usize, usize) {
    (trace.len(), trace.iter().filter(|t| t.1 <= epsilon).count())
}

/// Runs one flow. Spans named `<layer>.<call>` wrap each public call so
/// a traced run can attribute the time the crates' own spans miss.
pub fn run_flow(flow: &FlowSpec) -> Result<FlowResult, String> {
    match flow.regime {
        Regime::Table1 => table1(flow),
        Regime::Table2 => table2(flow),
        Regime::Sketch => sketch(flow),
    }
}

fn table1(flow: &FlowSpec) -> Result<FlowResult, String> {
    let config = PipelineConfig {
        max_paths: 800,
        ..PipelineConfig::default()
    };
    let pb = {
        let _s = span!("eval.prepare");
        prepare(&flow.spec, &config).map_err(|e| e.to_string())?
    };
    let dm = &pb.delay_model;
    let factors = {
        let _s = span!("core.factors");
        ModelFactors::compute(dm.a()).map_err(|e| e.to_string())?
    };
    let sel = {
        let _s = span!("core.approx_select");
        let config = ApproxConfig::new(T1_EPSILON, pb.t_cons);
        approx_select_with(dm.a(), dm.mu_paths(), &config, &factors).map_err(|e| e.to_string())?
    };
    let plan = MeasurementPlan::Paths {
        selected: &sel.selected,
        predictor: &sel.predictor,
    };
    let mc = McConfig {
        n_samples: 10_000,
        seed: flow.seed,
        threads: 0,
    };
    let m = {
        let _s = span!("eval.evaluate");
        evaluate(dm, &plan, &sel.remaining, &mc).map_err(|e| e.to_string())?
    };
    Ok(FlowResult {
        epsilon: T1_EPSILON,
        e1: Some(m.e1),
        epsilon_r: vec![sel.epsilon_r],
        shape: Some((sel.selected.len(), sel.rank, pb.path_count())),
        values: vec![m.e2, pb.t_cons, pb.circuit_yield],
        measurements: sel.selected.len(),
        candidates: accepted(&sel.trace, T1_EPSILON),
        admm_converged: Vec::new(),
    })
}

fn table2(flow: &FlowSpec) -> Result<FlowResult, String> {
    let config = PipelineConfig {
        t_cons_factor: 0.98,
        random_scale: 3.0,
        max_paths: 600,
        ..PipelineConfig::default()
    };
    let pb = {
        let _s = span!("eval.prepare");
        prepare(&flow.spec, &config).map_err(|e| e.to_string())?
    };
    let dm = &pb.delay_model;
    let factors = {
        let _s = span!("core.factors");
        ModelFactors::compute(dm.a()).map_err(|e| e.to_string())?
    };
    let sel = {
        let _s = span!("core.approx_select");
        let config = ApproxConfig::new(T2_EPSILON, pb.t_cons);
        approx_select_with(dm.a(), dm.mu_paths(), &config, &factors).map_err(|e| e.to_string())?
    };
    let hybrid = {
        let _s = span!("core.hybrid_sweep");
        let inputs = HybridInputs {
            g: dm.g(),
            sigma: dm.sigma(),
            a: dm.a(),
            mu_segments: dm.mu_segments(),
            mu_paths: dm.mu_paths(),
        };
        let base = HybridConfig::new(T2_EPSILON, T2_EPS_PRIME[0], pb.t_cons);
        hybrid_select_sweep_with(&inputs, &base, &T2_EPS_PRIME, &factors)
            .map_err(|e| e.to_string())?
    };
    let mc = McConfig {
        n_samples: 2_000,
        seed: flow.seed,
        threads: 0,
    };
    let (approx_m, hybrid_m) = {
        let _s = span!("eval.evaluate");
        let approx_plan = MeasurementPlan::Paths {
            selected: &sel.selected,
            predictor: &sel.predictor,
        };
        let hybrid_plan = MeasurementPlan::Hybrid { selection: &hybrid };
        let a = evaluate(dm, &approx_plan, &sel.remaining, &mc).map_err(|e| e.to_string())?;
        let h = evaluate(dm, &hybrid_plan, &hybrid.remaining, &mc).map_err(|e| e.to_string())?;
        (a, h)
    };
    // Table 2's claim is on the combined (hybrid) plan; the approximate
    // plan's guarantee is its analytic ε_r (its MC e1 can exceed ε, since
    // the max over 2 000 samples reaches past κ = 3 σ).
    Ok(FlowResult {
        epsilon: T2_EPSILON,
        e1: Some(hybrid_m.e1),
        epsilon_r: vec![sel.epsilon_r, hybrid.epsilon_r],
        shape: None,
        values: vec![approx_m.e1, approx_m.e2, hybrid_m.e2],
        measurements: hybrid.measurement_count(),
        candidates: accepted(&sel.trace, T2_EPSILON),
        admm_converged: vec![hybrid.admm_stats.converged],
    })
}

fn sketch(flow: &FlowSpec) -> Result<FlowResult, String> {
    let config = SparsePipelineConfig {
        t_cons_factor: 1.0,
        k_paths: if flow.spec.name == "warmup" { 200 } else { 800 },
    };
    let pb = {
        let _s = span!("eval.prepare_sparse");
        prepare_sparse(&flow.spec, &config).map_err(|e| e.to_string())?
    };
    let dm = &pb.delay_model;
    let sketch = SketchConfig {
        seed: flow.seed,
        ..SketchConfig::default()
    };
    let exact = {
        let _s = span!("core.sketch_exact_select");
        sketch_exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA, &sketch)
            .map_err(|e| e.to_string())?
    };
    let approx = {
        let _s = span!("core.sketch_approx_select");
        let config = SketchApproxConfig {
            epsilon: SKETCH_EPSILON,
            t_cons: pb.t_cons,
            kappa: DEFAULT_KAPPA,
            sketch,
        };
        sketch_approx_select(dm.a(), dm.mu_paths(), &config).map_err(|e| e.to_string())?
    };
    Ok(FlowResult {
        epsilon: SKETCH_EPSILON,
        e1: None,
        epsilon_r: vec![exact.epsilon_r, approx.epsilon_r],
        shape: Some((approx.selected.len(), exact.rank, pb.path_count())),
        values: vec![exact.energy_capture, approx.energy_capture],
        measurements: approx.selected.len(),
        candidates: accepted(&approx.trace, SKETCH_EPSILON),
        admm_converged: Vec::new(),
    })
}

/// Wall time and result of every flow of one pass over the flow list.
pub type Pass = Vec<(f64, Result<FlowResult, String>)>;

/// Runs every flow once, in order, timing each.
pub fn run_pass(flows: &[FlowSpec]) -> Pass {
    flows
        .iter()
        .map(|f| {
            let t0 = Instant::now();
            let r = run_flow(f);
            (t0.elapsed().as_secs_f64(), r)
        })
        .collect()
}

/// Runs passes over `flows`: at least two, and another while it is
/// expected to end within `seconds`.
pub fn run_passes(flows: &[FlowSpec], seconds: f64) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    loop {
        let p0 = Instant::now();
        passes.push(run_pass(flows));
        let last = p0.elapsed().as_secs_f64();
        if passes.len() >= 2 && t0.elapsed().as_secs_f64() + last > seconds {
            return passes;
        }
    }
}

/// Counts every flow of `pass`; a flow the library rejects fails too.
fn tally_pass(report: &mut Report, pass: &Pass) {
    for (_, r) in pass {
        report.tally(match r {
            Ok(res) => res.failures(),
            Err(e) => vec![format!("flow failed: {e}")],
        });
    }
}

/// Tallies every flow of every pass and sets the offline end-to-end
/// metrics from each flow's fastest pass (other tenants of the host only
/// ever add time): the median and the slowest flow, flows per second,
/// and the mean measurements per die over the flow list.
pub fn report_end_to_end(report: &mut Report, passes: &[Pass]) {
    for pass in passes {
        tally_pass(report, pass);
    }
    let best: Vec<f64> = (0..passes[0].len())
        .map(|i| passes.iter().map(|p| p[i].0).fold(f64::INFINITY, f64::min))
        .collect();
    let meas: Vec<f64> = passes[0]
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().map(|r| r.measurements as f64))
        .collect();
    report.set("p50_ms", median(&best).unwrap_or(0.0) * 1e3);
    report.set("tail_ms", best.iter().copied().fold(0.0, f64::max) * 1e3);
    report.set("throughput", best.len() as f64 / best.iter().sum::<f64>());
    report.set(
        "meas_per_die",
        meas.iter().sum::<f64>() / meas.len().max(1) as f64,
    );
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Runs an offline workload: set-up (derive the seeded flow list and run
/// the warm-up flow, [`SETUP_REPEATS`] times), then either the timed
/// passes (untraced) or the three passes of a traced run.
pub fn run_workload(regime: Regime, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut list = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        list = flows(regime, seed);
        let warm = run_flow(&warmup_flow(regime));
        setups.push(t0.elapsed().as_secs_f64());
        report.tally(match warm {
            Ok(r) => r.failures(),
            Err(e) => vec![format!("warm-up flow failed: {e}")],
        });
    }
    if !trace {
        let passes = run_passes(&list, seconds);
        report_end_to_end(&mut report, &passes);
        report.set("setup_s", median(&setups).unwrap_or(0.0));
        report.set("peak_rss_mb", crate::peak_rss_mb());
        return report;
    }
    crate::layers::zero_all(&mut report);
    let timed = |list: &[FlowSpec]| {
        let t0 = Instant::now();
        let pass = run_pass(list);
        (t0.elapsed().as_secs_f64(), pass)
    };
    let (untraced_s, untraced) = timed(&list);
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    let (traced_s, traced) = timed(&list);
    pathrep_obs::work::flush();
    let snap = pathrep_obs::registry().snapshot();
    pathrep_obs::set_enabled(false);
    pathrep_par::set_threads(1);
    let (one_worker_s, one_worker) = timed(&list);
    pathrep_par::set_threads(0);
    for pass in [&untraced, &traced, &one_worker] {
        tally_pass(&mut report, pass);
    }
    crate::layers::from_snapshot(&mut report, &snap);
    report.set("obs.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0));
    report.set("par.speedup", one_worker_s / untraced_s);
    let results: Vec<&FlowResult> = traced.iter().filter_map(|(_, r)| r.as_ref().ok()).collect();
    let (evaluated, accepted) = results.iter().fold((0, 0), |acc, r| {
        (acc.0 + r.candidates.0, acc.1 + r.candidates.1)
    });
    if evaluated > 0 {
        report.set("core.accept_frac", accepted as f64 / evaluated as f64);
    }
    let solves: Vec<bool> = results
        .iter()
        .flat_map(|r| r.admm_converged.iter().copied())
        .collect();
    if !solves.is_empty() {
        let converged = solves.iter().filter(|&&c| c).count();
        report.set(
            "convopt.converged_frac",
            converged as f64 / solves.len() as f64,
        );
    }
    let e1: Vec<f64> = results.iter().filter_map(|r| r.e1).collect();
    if !e1.is_empty() {
        report.set(
            "eval.e1_pct",
            100.0 * e1.iter().sum::<f64>() / e1.len() as f64,
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn passing() -> FlowResult {
        FlowResult {
            epsilon: 0.05,
            e1: Some(0.03),
            epsilon_r: vec![0.04],
            shape: Some((5, 80, 200)),
            values: vec![1.0],
            ..FlowResult::default()
        }
    }

    #[test]
    fn a_passing_flow_has_no_failures() {
        assert!(passing().failures().is_empty());
    }

    #[test]
    fn e1_at_or_above_epsilon_fails() {
        let mut r = passing();
        r.e1 = Some(0.05);
        assert_eq!(r.failures().len(), 1);
        let mut report = Report::default();
        report.tally(r.failures());
        assert!(!report.correct());
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn nan_result_fails() {
        for poison in 0..3 {
            let mut r = passing();
            match poison {
                0 => r.e1 = Some(f64::NAN),
                1 => r.epsilon_r[0] = f64::NAN,
                _ => r.values.push(f64::NAN),
            }
            assert!(
                r.failures().iter().any(|f| f.contains("non-finite")),
                "case {poison}: {:?}",
                r.failures()
            );
        }
    }

    #[test]
    fn shape_and_tolerance_violations_fail() {
        let mut r = passing();
        r.shape = Some((90, 80, 200));
        r.epsilon_r.push(0.06);
        assert_eq!(r.failures().len(), 2);
    }

    #[test]
    fn a_flow_the_library_rejects_is_a_failure() {
        let mut report = Report::default();
        let passes = vec![vec![(0.5, Err::<FlowResult, _>("no paths".to_owned()))]];
        report_end_to_end(&mut report, &passes);
        assert_eq!((report.attempted, report.failed), (1, 1));
    }

    #[test]
    fn warmup_flows_run_and_pass_their_checks() {
        for regime in [Regime::Table1, Regime::Table2, Regime::Sketch] {
            let r = run_flow(&warmup_flow(regime)).expect("warm-up flow runs");
            assert!(r.failures().is_empty(), "{regime:?}: {:?}", r.failures());
        }
    }
}
