//! Accuracy diagnosis over numerical-health ledgers (`pathrep-doctor`).
//!
//! Reads the JSONL ledger written by `pathrep_obs::ledger`
//! (`PATHREP_OBS_LEDGER=<path>`) and condenses it into a [`RunSummary`]:
//! per-stage error-budget attribution, the top-k ill-conditioned
//! factorizations, and ADMM convergence quality (iterations-to-tolerance
//! and stall detection over the full residual curves). Two summaries can
//! be [`diff`]ed under configurable [`HealthThresholds`] — the accuracy
//! analogue of the perf gate in [`crate::gate`] — producing findings like
//! "ε_wc grew 3.0× while effective rank dropped from 41 to 28" and a
//! non-zero exit in the `pathrep-doctor` binary on any breach.

use pathrep_obs::json::JsonValue;
use pathrep_obs::ledger::LedgerRecord;
use std::collections::{BTreeMap, BTreeSet};

/// Relative-change limits between a baseline run and a candidate run.
/// All are ratios, so cross-machine floating-point jitter stays below
/// them on identical seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthThresholds {
    /// Maximum allowed growth of the analytic worst-case error `ε_r`.
    pub max_eps_growth: f64,
    /// Maximum allowed growth of the measured Monte-Carlo error `e1`.
    pub max_e1_growth: f64,
    /// Maximum allowed growth of the worst condition-number estimate.
    pub max_cond_growth: f64,
    /// Minimum allowed ratio `effective_rank(candidate)/effective_rank(baseline)`.
    pub min_rank_ratio: f64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        HealthThresholds {
            max_eps_growth: 1.5,
            max_e1_growth: 1.5,
            max_cond_growth: 10.0,
            min_rank_ratio: 0.7,
        }
    }
}

/// Convergence quality of one ADMM solve, derived from its ledger record.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmQuality {
    /// Solver name (`admm_linearized` / `admm_ellipsoid`).
    pub name: String,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the stopping criterion was met.
    pub converged: bool,
    /// First iteration at which the primal residual was within 5 % of its
    /// final floor — how quickly the solve actually got there.
    pub iters_to_tol: Option<usize>,
    /// True when the solve was unconverged *and* the primal residual
    /// improved by less than 5 % over the last quarter of the curve:
    /// spending more iterations would not have helped.
    pub stalled: bool,
    /// Final primal residual.
    pub primal: f64,
    /// Final dual residual.
    pub dual: f64,
    /// Achieved worst row std vs the feasibility radius (≤ 1 is feasible).
    pub feasibility: Option<f64>,
}

/// One ill-conditioned factorization, for the top-k report.
#[derive(Debug, Clone, PartialEq)]
pub struct CondEntry {
    /// Ledger sequence number (orders the factorizations within the run).
    pub seq: u64,
    /// Record name (`svd` / `qr_pivoted`).
    pub name: String,
    /// Condition-number estimate (`s_max/s_min`, or the inverse pivot
    /// decay for pivoted QR). Infinite for an exactly singular matrix.
    pub cond: f64,
}

/// Everything the doctor derives from one ledger.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// Run id of the last record.
    pub run: String,
    /// Workload label from the `meta/run_context` record, when present.
    pub label: Option<String>,
    /// Workload seed, when announced.
    pub seed: Option<u64>,
    /// Distinct pipeline stages that wrote records.
    pub stages: BTreeSet<String>,
    /// Total record count.
    pub records: usize,
    /// Every factorization's conditioning, worst first.
    pub conditioning: Vec<CondEntry>,
    /// Numerical rank from the last selection record.
    pub rank: Option<f64>,
    /// Effective rank (paper §4.2) from the last Algorithm-1 record.
    pub effective_rank: Option<f64>,
    /// Analytic worst-case error `ε_r` of the returned selection.
    pub epsilon_r: Option<f64>,
    /// The pre-specified tolerance ε it was checked against.
    pub epsilon: Option<f64>,
    /// Whether the selection met the tolerance.
    pub accepted: Option<bool>,
    /// Length of the `r`-decrement trace (Algorithm-1 evaluations).
    pub decrement_steps: usize,
    /// Quality of every ADMM solve, in ledger order.
    pub admm: Vec<AdmmQuality>,
    /// Monte-Carlo mean worst-case relative error `e1`.
    pub e1: Option<f64>,
    /// Monte-Carlo mean average relative error `e2`.
    pub e2: Option<f64>,
    /// Average guard-band `φ = ε_i·T_cons` in delay units.
    pub avg_phi: Option<f64>,
    /// Guard-band decisiveness (fraction of confident verdicts).
    pub decisiveness: Option<f64>,
    /// Record kinds (`stage/name`) the doctor has no analysis for, with
    /// counts. Newer library versions (e.g. `pathrep-serve`'s
    /// `serve/model_load`) may write kinds this doctor predates; they are
    /// surfaced here — never silently dropped, never a failure.
    pub unknown_kinds: BTreeMap<String, usize>,
}

fn cond_of(rec: &LedgerRecord) -> Option<f64> {
    match rec.name.as_str() {
        // `cond` serializes as JSON null when infinite (singular matrix).
        "svd" => match rec.fact("cond") {
            Some(JsonValue::Null) => Some(f64::INFINITY),
            Some(v) => v.number().ok(),
            None => None,
        },
        "qr_pivoted" => rec.num("pivot_decay").map(|d| {
            if d > 0.0 {
                1.0 / d
            } else {
                f64::INFINITY
            }
        }),
        _ => None,
    }
}

fn admm_quality(rec: &LedgerRecord) -> AdmmQuality {
    let curve = rec.curve("primal_curve").unwrap_or_default();
    let converged = matches!(rec.fact("converged"), Some(JsonValue::Bool(true)));
    let final_primal = rec.num("primal_residual").unwrap_or(f64::NAN);
    let iters_to_tol = if final_primal.is_finite() {
        curve
            .iter()
            .position(|&p| p <= final_primal * 1.05)
            .map(|i| i + 1)
    } else {
        None
    };
    // Stall: unconverged and <5 % improvement over the last quarter.
    let stalled = !converged
        && curve.len() >= 20
        && {
            let q = curve.len() / 4;
            let mid: f64 = curve[curve.len() - 2 * q..curve.len() - q].iter().sum::<f64>() / q as f64;
            let tail: f64 = curve[curve.len() - q..].iter().sum::<f64>() / q as f64;
            tail > 0.95 * mid
        };
    let feasibility = match (rec.num("worst_row_std"), rec.num("radius")) {
        (Some(w), Some(r)) if r > 0.0 => Some(w / r),
        _ => None,
    };
    AdmmQuality {
        name: rec.name.clone(),
        iterations: rec.num("iterations").unwrap_or(0.0) as usize,
        converged,
        iters_to_tol,
        stalled,
        primal: final_primal,
        dual: rec.num("dual_residual").unwrap_or(f64::NAN),
        feasibility,
    }
}

/// Condenses a parsed ledger into a [`RunSummary`]. Later records win
/// where a quantity appears more than once (e.g. repeated selections).
pub fn summarize(records: &[LedgerRecord]) -> RunSummary {
    let mut s = RunSummary {
        records: records.len(),
        ..RunSummary::default()
    };
    for rec in records {
        s.run = rec.run.clone();
        if rec.seed.is_some() {
            s.seed = rec.seed;
        }
        s.stages.insert(rec.stage.clone());
        match (rec.stage.as_str(), rec.name.as_str()) {
            ("meta", "run_context") => {
                s.label = rec.text("label");
            }
            ("linalg", _) => {
                if let Some(cond) = cond_of(rec) {
                    s.conditioning.push(CondEntry {
                        seq: rec.seq,
                        name: rec.name.clone(),
                        cond,
                    });
                }
            }
            ("convopt", _) => s.admm.push(admm_quality(rec)),
            ("core", "approx_select") => {
                s.rank = rec.num("rank");
                s.effective_rank = rec.num("effective_rank");
                s.epsilon_r = rec.num("epsilon_r");
                s.epsilon = rec.num("epsilon");
                s.accepted = match rec.fact("accepted") {
                    Some(JsonValue::Bool(b)) => Some(*b),
                    _ => None,
                };
                s.decrement_steps = rec
                    .curve("epsilon_r_trace")
                    .map(|t| t.len())
                    .unwrap_or(0);
            }
            ("core", "hybrid_select") => {
                s.epsilon_r = rec.num("epsilon_r");
                s.epsilon = rec.num("epsilon");
            }
            ("core", "exact_select") => {
                s.rank = rec.num("rank");
            }
            ("eval", "mc_evaluate") => {
                s.e1 = rec.num("e1");
                s.e2 = rec.num("e2");
            }
            ("eval", "guardband") => {
                s.avg_phi = rec.num("avg_phi");
                s.decisiveness = rec.num("decisiveness");
            }
            // Kinds with no extracted metric but known provenance; they
            // contribute stage coverage only.
            ("ssta", "extract") | ("eval", "prepare") => {}
            // Anything else was written by a library newer than this
            // doctor (e.g. `serve/model_load`). Count and report it —
            // silently dropping records would hide coverage, and failing
            // would make every ledger-schema addition a breaking change.
            (stage, name) => {
                *s.unknown_kinds
                    .entry(format!("{stage}/{name}"))
                    .or_insert(0) += 1;
            }
        }
    }
    // NaN-total descending order (NaNs last; infinite conditioning sorts
    // first, as it should).
    s.conditioning
        .sort_by(|a, b| pathrep_linalg::vecops::cmp_nan_smallest(b.cond, a.cond));
    s
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4e}"),
        None => "-".into(),
    }
}

/// Renders the single-run diagnosis: stage coverage, the error budget,
/// the `top_k` worst-conditioned factorizations, and ADMM quality.
pub fn render_summary(s: &RunSummary, top_k: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "run {}{}{} — {} records across stages [{}]\n",
        s.run,
        s.label
            .as_deref()
            .map(|l| format!(" ({l})"))
            .unwrap_or_default(),
        s.seed
            .map(|x| format!(", seed {x}"))
            .unwrap_or_default(),
        s.records,
        s.stages.iter().cloned().collect::<Vec<_>>().join(", "),
    ));

    out.push_str("\nerror budget (per-stage attribution):\n");
    out.push_str(&format!(
        "  core    analytic eps_r      {}  (tolerance eps {}, accepted {})\n",
        fmt_opt(s.epsilon_r),
        fmt_opt(s.epsilon),
        s.accepted.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
    ));
    if let (Some(er), Some(e)) = (s.epsilon_r, s.epsilon) {
        if e > 0.0 {
            out.push_str(&format!(
                "          budget used         {:.1} %\n",
                100.0 * er / e
            ));
        }
    }
    for q in &s.admm {
        out.push_str(&format!(
            "  convopt {:<18} feasibility {} (worst_row_std / radius)\n",
            q.name,
            fmt_opt(q.feasibility)
        ));
    }
    out.push_str(&format!(
        "  eval    measured e1         {}  (e2 {})\n",
        fmt_opt(s.e1),
        fmt_opt(s.e2)
    ));
    if let (Some(e1), Some(er)) = (s.e1, s.epsilon_r) {
        if er > 0.0 {
            out.push_str(&format!(
                "          bound slack         {:.2}x (analytic bound / measured)\n",
                er / e1.max(1e-300)
            ));
        }
    }
    if s.avg_phi.is_some() || s.decisiveness.is_some() {
        out.push_str(&format!(
            "  eval    guard-band phi      {} ps, decisiveness {}\n",
            fmt_opt(s.avg_phi),
            fmt_opt(s.decisiveness)
        ));
    }

    out.push_str(&format!(
        "\nrank: numerical {} | effective {} | r-decrement evaluations {}\n",
        fmt_opt(s.rank),
        fmt_opt(s.effective_rank),
        s.decrement_steps
    ));

    if !s.conditioning.is_empty() {
        out.push_str(&format!("\ntop-{top_k} ill-conditioned factorizations:\n"));
        for c in s.conditioning.iter().take(top_k) {
            out.push_str(&format!(
                "  #{:<6} {:<12} cond ~ {:.3e}\n",
                c.seq, c.name, c.cond
            ));
        }
    }

    if !s.admm.is_empty() {
        out.push_str("\nADMM convergence quality:\n");
        for q in &s.admm {
            out.push_str(&format!(
                "  {:<18} {} iters (to tolerance: {}), primal {:.3e}, dual {:.3e}{}{}\n",
                q.name,
                q.iterations,
                q.iters_to_tol
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".into()),
                q.primal,
                q.dual,
                if q.converged { "" } else { " [UNCONVERGED]" },
                if q.stalled { " [STALLED]" } else { "" },
            ));
        }
    }

    if !s.unknown_kinds.is_empty() {
        out.push_str("\nrecord kinds this doctor has no analysis for (informational):\n");
        for (kind, n) in &s.unknown_kinds {
            out.push_str(&format!("  {kind} x{n}\n"));
        }
    }
    out
}

/// One metric comparison between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffFinding {
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// Candidate value.
    pub b: f64,
    /// `b / a` (guarded for zero baselines).
    pub ratio: f64,
    /// Whether this finding breaches its threshold.
    pub breach: bool,
    /// Human explanation, causal where the ledger supports it.
    pub note: String,
}

fn ratio(a: f64, b: f64) -> f64 {
    if a.abs() < 1e-300 {
        if b.abs() < 1e-300 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        b / a
    }
}

/// Compares a `candidate` run against a `baseline` run under `t`,
/// producing one finding per comparable metric. A finding only breaches
/// when both sides carry the metric — a missing stage is reported in
/// [`missing_stages`] instead.
pub fn diff(baseline: &RunSummary, candidate: &RunSummary, t: &HealthThresholds) -> Vec<DiffFinding> {
    let mut out = Vec::new();
    let rank_note = match (baseline.effective_rank, candidate.effective_rank) {
        (Some(ra), Some(rb)) if ra != rb => {
            format!(" while effective rank {} from {:.0} to {:.0}",
                if rb < ra { "dropped" } else { "rose" }, ra, rb)
        }
        _ => String::new(),
    };
    if let (Some(a), Some(b)) = (baseline.epsilon_r, candidate.epsilon_r) {
        let r = ratio(a, b);
        out.push(DiffFinding {
            metric: "epsilon_r".into(),
            a,
            b,
            ratio: r,
            breach: r > t.max_eps_growth,
            note: format!("analytic worst-case error eps_wc grew {r:.2}x{rank_note}"),
        });
    }
    if let (Some(a), Some(b)) = (baseline.e1, candidate.e1) {
        let r = ratio(a, b);
        out.push(DiffFinding {
            metric: "e1".into(),
            a,
            b,
            ratio: r,
            breach: r > t.max_e1_growth,
            note: format!("measured Monte-Carlo error e1 grew {r:.2}x"),
        });
    }
    let worst_cond = |s: &RunSummary| s.conditioning.first().map(|c| c.cond);
    if let (Some(a), Some(b)) = (worst_cond(baseline), worst_cond(candidate)) {
        let r = ratio(a, b);
        out.push(DiffFinding {
            metric: "worst_cond".into(),
            a,
            b,
            ratio: r,
            breach: r > t.max_cond_growth,
            note: format!("worst condition estimate grew {r:.2}x"),
        });
    }
    if let (Some(a), Some(b)) = (baseline.effective_rank, candidate.effective_rank) {
        let r = ratio(a, b);
        out.push(DiffFinding {
            metric: "effective_rank".into(),
            a,
            b,
            ratio: r,
            breach: r < t.min_rank_ratio,
            note: format!("effective rank ratio {r:.2} (model expressiveness)"),
        });
    }
    let stalls = |s: &RunSummary| s.admm.iter().filter(|q| q.stalled).count() as f64;
    let (sa, sb) = (stalls(baseline), stalls(candidate));
    if !baseline.admm.is_empty() || !candidate.admm.is_empty() {
        out.push(DiffFinding {
            metric: "admm_stalls".into(),
            a: sa,
            b: sb,
            ratio: ratio(sa.max(1.0), sb.max(1.0)),
            breach: sb > sa,
            note: format!("stalled ADMM solves: {sa:.0} -> {sb:.0}"),
        });
    }
    out
}

/// Stages present in `baseline` but absent from `candidate` — a silent
/// coverage regression the metric diff cannot see.
pub fn missing_stages(baseline: &RunSummary, candidate: &RunSummary) -> Vec<String> {
    baseline
        .stages
        .difference(&candidate.stages)
        .cloned()
        .collect()
}

/// Whether any finding breached its threshold.
pub fn has_breach(findings: &[DiffFinding]) -> bool {
    findings.iter().any(|f| f.breach)
}

/// Renders the diff table plus per-finding notes for breaches.
pub fn render_diff(findings: &[DiffFinding]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>12} {:>12} {:>8}  verdict\n",
        "METRIC", "baseline", "candidate", "ratio"
    ));
    for f in findings {
        out.push_str(&format!(
            "{:<16} {:>12.4e} {:>12.4e} {:>8.2}  {}\n",
            f.metric,
            f.a,
            f.b,
            f.ratio,
            if f.breach { "BREACH" } else { "ok" }
        ));
    }
    for f in findings.iter().filter(|f| f.breach) {
        out.push_str(&format!("breach: {}\n", f.note));
    }
    out
}

/// Self-test hook for the accuracy gate: perturbs a summary the way a
/// genuine rank-collapse regression would look (effective rank halved,
/// analytic and measured errors tripled), proving the thresholds trip.
pub fn inject_rank_drop(s: &mut RunSummary) {
    s.effective_rank = s.effective_rank.map(|r| (r * 0.5).max(1.0));
    s.epsilon_r = s.epsilon_r.map(|e| e * 3.0);
    s.e1 = s.e1.map(|e| e * 3.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrep_obs::ledger::parse_jsonl;

    fn sample_ledger() -> String {
        let mk = |seq: u64, stage: &str, name: &str, facts: &str| {
            format!(
                "{{\"schema_version\":1,\"seq\":{seq},\"run\":\"pid1-t\",\"seed\":11,\
                 \"stage\":\"{stage}\",\"name\":\"{name}\",\"facts\":{facts}}}"
            )
        };
        [
            mk(0, "meta", "run_context", "{\"label\":\"t\",\"seed\":11}"),
            mk(1, "linalg", "svd", "{\"cond\":125.0,\"smax\":5.0,\"smin\":0.04}"),
            mk(2, "linalg", "qr_pivoted", "{\"pivot_decay\":0.01}"),
            mk(
                3,
                "convopt",
                "admm_linearized",
                "{\"iterations\":4,\"converged\":true,\"primal_residual\":0.001,\
                 \"dual_residual\":0.002,\"worst_row_std\":0.5,\"radius\":1.0,\
                 \"primal_curve\":[0.1,0.01,0.002,0.001],\"dual_curve\":[0.2,0.02,0.004,0.002]}",
            ),
            mk(
                4,
                "core",
                "approx_select",
                "{\"rank\":40,\"effective_rank\":28,\"selected\":30,\"epsilon_r\":0.03,\
                 \"epsilon\":0.05,\"accepted\":true,\"r_trace\":[40,35,30],\
                 \"epsilon_r_trace\":[0.001,0.01,0.03]}",
            ),
            mk(5, "eval", "mc_evaluate", "{\"e1\":0.012,\"e2\":0.004,\"samples\":100}"),
            mk(6, "eval", "guardband", "{\"avg_phi\":12.5,\"decisiveness\":0.97}"),
        ]
        .join("\n")
    }

    #[test]
    fn summarize_extracts_every_stage() {
        let s = summarize(&parse_jsonl(&sample_ledger()).unwrap());
        assert_eq!(s.label.as_deref(), Some("t"));
        assert_eq!(s.seed, Some(11));
        assert_eq!(s.records, 7);
        assert_eq!(s.effective_rank, Some(28.0));
        assert_eq!(s.epsilon_r, Some(0.03));
        assert_eq!(s.e1, Some(0.012));
        assert_eq!(s.avg_phi, Some(12.5));
        assert_eq!(s.decrement_steps, 3);
        // qr pivot decay 0.01 → cond estimate 100; svd cond 125 is worst.
        assert_eq!(s.conditioning[0].cond, 125.0);
        assert_eq!(s.admm.len(), 1);
        assert!(s.admm[0].converged);
        assert!(!s.admm[0].stalled);
        assert_eq!(s.admm[0].iters_to_tol, Some(4));
        let text = render_summary(&s, 3);
        assert!(text.contains("error budget"));
        assert!(text.contains("admm_linearized"));
    }

    #[test]
    fn unknown_record_kinds_are_reported_not_fatal() {
        // A ledger written by a newer library (pathrep-serve) carries a
        // `serve/model_load` record the doctor has no analysis for. It
        // must be surfaced — never silently skipped, never a failure.
        let mut ledger = sample_ledger();
        ledger.push('\n');
        ledger.push_str(
            "{\"schema_version\":1,\"seq\":7,\"run\":\"pid1-t\",\"seed\":11,\
             \"stage\":\"serve\",\"name\":\"model_load\",\
             \"facts\":{\"model\":\"1fb78fd0563c16f0\",\"label\":\"quickstart\",\
             \"targets\":3,\"measurements\":1}}",
        );
        let s = summarize(&parse_jsonl(&ledger).unwrap());
        assert_eq!(s.records, 8, "the unknown record still counts");
        assert_eq!(s.unknown_kinds.get("serve/model_load"), Some(&1));
        assert!(s.stages.contains("serve"), "stage coverage includes serve");
        // Known metrics are untouched by the extra record.
        assert_eq!(s.epsilon_r, Some(0.03));
        assert_eq!(s.e1, Some(0.012));
        // Rendering mentions it, and diffing two such runs never breaches
        // on it — unknown kinds are informational by construction.
        let text = render_summary(&s, 3);
        assert!(text.contains("serve/model_load x1"), "{text}");
        let findings = diff(&s, &s.clone(), &HealthThresholds::default());
        assert!(!has_breach(&findings), "{findings:?}");
    }

    #[test]
    fn identical_runs_do_not_breach() {
        let s = summarize(&parse_jsonl(&sample_ledger()).unwrap());
        let findings = diff(&s, &s.clone(), &HealthThresholds::default());
        assert!(!findings.is_empty());
        assert!(!has_breach(&findings), "{findings:?}");
        assert!(missing_stages(&s, &s).is_empty());
    }

    #[test]
    fn injected_rank_drop_breaches() {
        let a = summarize(&parse_jsonl(&sample_ledger()).unwrap());
        let mut b = a.clone();
        inject_rank_drop(&mut b);
        let findings = diff(&a, &b, &HealthThresholds::default());
        assert!(has_breach(&findings));
        let eps = findings.iter().find(|f| f.metric == "epsilon_r").unwrap();
        assert!(eps.breach);
        assert!(eps.note.contains("dropped"), "{}", eps.note);
        let rank = findings.iter().find(|f| f.metric == "effective_rank").unwrap();
        assert!(rank.breach);
        assert!(render_diff(&findings).contains("BREACH"));
    }

    #[test]
    fn stall_detection_flags_flat_unconverged_curves() {
        let flat: Vec<f64> = (0..40).map(|i| 1.0 - 0.001 * i as f64).collect();
        let falling: Vec<f64> = (0..40).map(|i| 0.9_f64.powi(i)).collect();
        let mk = |curve: &[f64], converged: bool| {
            let body = format!(
                "{{\"schema_version\":1,\"seq\":0,\"run\":\"r\",\"seed\":null,\
                 \"stage\":\"convopt\",\"name\":\"admm_linearized\",\"facts\":{{\
                 \"iterations\":{},\"converged\":{converged},\
                 \"primal_residual\":{},\"dual_residual\":0.1,\
                 \"primal_curve\":{curve_json}}}}}",
                curve.len(),
                curve.last().unwrap(),
                curve_json = pathrep_obs::json::JsonValue::Array(
                    curve.iter().map(|&v| pathrep_obs::json::JsonValue::Number(v)).collect()
                )
                .render(),
            );
            summarize(&parse_jsonl(&body).unwrap()).admm[0].clone()
        };
        assert!(mk(&flat, false).stalled);
        assert!(!mk(&falling, false).stalled, "steadily-falling curve is not a stall");
        assert!(!mk(&flat, true).stalled, "converged solves never stall");
    }
}
