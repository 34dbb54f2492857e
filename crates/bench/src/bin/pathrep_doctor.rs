//! Accuracy-diagnosis CLI over numerical-health ledgers.
//!
//! ```text
//! pathrep-doctor <ledger.jsonl> [--diff <other.jsonl>] [--bench BENCH_k.json]
//!                [--top K] [--max-eps-growth X] [--max-e1-growth X]
//!                [--max-cond-growth X] [--min-rank-ratio X] [--inject-rank-drop]
//! pathrep-doctor --perf-diff <base BENCH_a.json> <current BENCH_b.json> [--top K]
//! ```
//!
//! `--perf-diff` mode needs no ledger: it loads two `BENCH_*.json`
//! reports and prints the differential performance attribution — per
//! workload, the spans ranked by Δself-time with achieved-GFLOP/s
//! annotations from the work counters (see `pathrep_bench::attribute`).
//!
//! Single-ledger mode prints the run diagnosis (error-budget attribution,
//! top-k ill-conditioned stages, ADMM convergence quality) and exits 0.
//! With `--diff`, the second ledger is compared against the first under the
//! health thresholds and the process exits 1 on any breach — an accuracy
//! gate for CI. `--inject-rank-drop` perturbs the candidate summary the way
//! a genuine rank-collapse regression would look (self-test: the gate must
//! trip). `--bench` adds the perf report's wall times as context.

use pathrep_bench::attribute::{attribute_reports, render_attribution};
use pathrep_bench::doctor::{
    diff, has_breach, inject_rank_drop, missing_stages, render_diff, render_summary, summarize,
    HealthThresholds, RunSummary,
};
use pathrep_bench::gate::BenchReport;
use std::process::ExitCode;

struct Args {
    ledger: String,
    diff_ledger: Option<String>,
    bench: Option<String>,
    top: usize,
    thresholds: HealthThresholds,
    inject_rank_drop: bool,
    perf_diff: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut ledger = None;
    let mut args = Args {
        ledger: String::new(),
        diff_ledger: None,
        bench: None,
        top: 5,
        thresholds: HealthThresholds::default(),
        inject_rank_drop: false,
        perf_diff: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let parse_f64 = |name: &str, v: String| {
            v.parse::<f64>().map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--diff" => args.diff_ledger = Some(value("--diff")?),
            "--bench" => args.bench = Some(value("--bench")?),
            "--top" => {
                args.top = value("--top")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            "--max-eps-growth" => {
                args.thresholds.max_eps_growth = parse_f64("--max-eps-growth", value("--max-eps-growth")?)?;
            }
            "--max-e1-growth" => {
                args.thresholds.max_e1_growth = parse_f64("--max-e1-growth", value("--max-e1-growth")?)?;
            }
            "--max-cond-growth" => {
                args.thresholds.max_cond_growth = parse_f64("--max-cond-growth", value("--max-cond-growth")?)?;
            }
            "--min-rank-ratio" => {
                args.thresholds.min_rank_ratio = parse_f64("--min-rank-ratio", value("--min-rank-ratio")?)?;
            }
            "--inject-rank-drop" => args.inject_rank_drop = true,
            "--perf-diff" => {
                let base = value("--perf-diff")?;
                let cur = it
                    .next()
                    .ok_or("--perf-diff requires two BENCH_*.json paths")?;
                args.perf_diff = Some((base, cur));
            }
            "--help" | "-h" => {
                println!(
                    "pathrep-doctor <ledger.jsonl> [--diff other.jsonl] [--bench BENCH_k.json] \
                     [--top K] [--max-eps-growth X] [--max-e1-growth X] [--max-cond-growth X] \
                     [--min-rank-ratio X] [--inject-rank-drop]\n\
                     pathrep-doctor --perf-diff BENCH_a.json BENCH_b.json [--top K]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') && ledger.is_none() => {
                ledger = Some(other.to_owned());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.perf_diff.is_none() {
        args.ledger = ledger.ok_or("a ledger path is required")?;
    }
    Ok(args)
}

/// Runs `--perf-diff` mode: loads two bench reports, prints the env
/// comparability banner and per-workload Δself-time attribution, and
/// exits 0 (attribution diagnoses; the perf gate decides pass/fail).
fn perf_diff(base_path: &str, cur_path: &str, top: usize) -> ExitCode {
    let load = |path: &str| -> Result<BenchReport, String> {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|t| BenchReport::from_json(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (base, cur) = match (load(base_path), load(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pathrep-doctor: {e}");
            return ExitCode::from(2);
        }
    };
    let env_verdict = pathrep_bench::gate::assess_env(&base.env, &cur.env);
    if env_verdict.unreliable {
        println!("WARNING: COMPARISON UNRELIABLE — environment mismatch:");
        for reason in &env_verdict.reasons {
            println!("  reason: {reason}");
        }
        println!(
            "pathrep-doctor: env_unreliable=true reasons={}",
            env_verdict.reasons.join("; ")
        );
    }
    println!(
        "perf attribution: {cur_path} (commit {}) vs {base_path} (commit {}):",
        cur.commit, base.commit
    );
    for a in attribute_reports(&base, &cur) {
        print!("{}", render_attribution(&a, top));
    }
    ExitCode::SUCCESS
}

fn load_summary(path: &str) -> Result<RunSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let records = pathrep_obs::ledger::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path}: ledger is empty"));
    }
    Ok(summarize(&records))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pathrep-doctor: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some((base_path, cur_path)) = &args.perf_diff {
        return perf_diff(base_path, cur_path, args.top);
    }

    let baseline = match load_summary(&args.ledger) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pathrep-doctor: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(bench_path) = &args.bench {
        match std::fs::read_to_string(bench_path)
            .map_err(|e| e.to_string())
            .and_then(|t| BenchReport::from_json(&t))
        {
            Ok(report) => {
                println!(
                    "perf context from {bench_path} (commit {}):",
                    report.commit
                );
                for w in &report.workloads {
                    println!("  {:<20} p50 {:>9.2} ms", w.name, w.p50_ms);
                }
                println!();
            }
            Err(e) => eprintln!("pathrep-doctor: [warn] cannot load {bench_path}: {e}"),
        }
    }

    let Some(diff_path) = &args.diff_ledger else {
        print!("{}", render_summary(&baseline, args.top));
        return ExitCode::SUCCESS;
    };

    let mut candidate = match load_summary(diff_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pathrep-doctor: {e}");
            return ExitCode::from(2);
        }
    };
    if args.inject_rank_drop {
        eprintln!("pathrep-doctor: injecting rank-drop regression into candidate (self-test)");
        inject_rank_drop(&mut candidate);
    }

    println!("baseline  {}:", args.ledger);
    print!("{}", render_summary(&baseline, args.top));
    println!("\ncandidate {diff_path}:");
    print!("{}", render_summary(&candidate, args.top));

    let findings = diff(&baseline, &candidate, &args.thresholds);
    let missing = missing_stages(&baseline, &candidate);
    println!("\ndiff (candidate vs baseline):");
    print!("{}", render_diff(&findings));
    for stage in &missing {
        println!("breach: stage `{stage}` wrote records in the baseline but none in the candidate");
    }

    if has_breach(&findings) || !missing.is_empty() {
        eprintln!("pathrep-doctor: FAIL — accuracy health thresholds breached");
        ExitCode::FAILURE
    } else {
        println!("pathrep-doctor: OK — runs are accuracy-equivalent within thresholds");
        ExitCode::SUCCESS
    }
}
