//! The perf-regression gate runner.
//!
//! Runs the calibrated workload matrix (see `pathrep_bench::workloads`),
//! writes the report to `--out PATH` (default: the next-numbered
//! `BENCH_<k>.json` at the repo root), and — when
//! `--baseline <path>` is given — diffs p50 wall times per workload
//! against that baseline, printing a comparison table and exiting
//! non-zero if any sequential workload regressed beyond [`THRESHOLD`].
//!
//! ```text
//! perf_gate [--baseline BENCH_1.json] [--out PATH]
//!           [--inject-slowdown WORKLOAD] [--only NAME[,NAME…]]
//!           [--include-large]
//! ```
//!
//! `--inject-slowdown` doubles the recorded wall times of one workload
//! after measurement — a self-test hook proving the gate actually trips
//! (`perf_gate --baseline BENCH_1.json --inject-slowdown exact_small`
//! must exit 1). `pathrep-doctor --perf-diff A B` attributes a wall-time
//! change between two reports to spans.
//!
//! Each workload runs [`REPEAT`] times. After the sequential pass
//! (pathrep-par pinned to 1 worker, recorded under the original workload
//! names and gated against the baseline), the matrix runs again with
//! [`PAR_THREADS`] workers, recorded as `{name}@t4` rows — informational
//! for the wall-time gate, but the operation counters of the two axes must
//! match *exactly*: a counter that moves with the worker count means a
//! kernel's work depends on scheduling, which breaks the bit-determinism
//! contract, and the gate hard-fails.

use pathrep_bench::gate::{
    assess_env, diff, environment_fingerprint, has_regression, render_diff, render_env_diff,
    BenchReport, SCHEMA_VERSION, THRESHOLD,
};
use pathrep_bench::workloads::{large_workload_matrix, measure, workload_matrix};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Timed repeats per workload and axis.
const REPEAT: usize = 5;

/// Worker count of the thread axis; the `@t4` row names in committed
/// baselines depend on it.
const PAR_THREADS: usize = 4;

struct Args {
    baseline: Option<String>,
    out: Option<String>,
    inject_slowdown: Option<String>,
    only: Option<Vec<String>>,
    include_large: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: None,
        out: None,
        inject_slowdown: None,
        only: None,
        include_large: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--baseline" => args.baseline = Some(value("--baseline")?),
            "--out" => args.out = Some(value("--out")?),
            "--inject-slowdown" => args.inject_slowdown = Some(value("--inject-slowdown")?),
            "--include-large" => args.include_large = true,
            "--only" => {
                let names: Vec<String> = value("--only")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    return Err("--only requires at least one workload name".into());
                }
                args.only.get_or_insert_with(Vec::new).extend(names);
            }
            "--help" | "-h" => {
                println!(
                    "perf_gate [--baseline BENCH_k.json] [--out PATH] \
                     [--inject-slowdown WORKLOAD] \
                     [--include-large] [--only NAME[,NAME…]]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// The workspace root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// The next unused `BENCH_<k>.json` index at `root` (1 on a clean tree).
fn next_bench_index(root: &Path) -> u64 {
    let mut max = 0;
    if let Ok(entries) = std::fs::read_dir(root) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(k) = name
                .strip_prefix("BENCH_")
                .and_then(|r| r.strip_suffix(".json"))
                .and_then(|k| k.parse::<u64>().ok())
            {
                max = max.max(k);
            }
        }
    }
    max + 1
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            return ExitCode::from(2);
        }
    };

    // When `--only` names exclusively `*_large` rows, skip the default
    // matrix entirely — its shared instances take seconds to prepare and
    // none of them would be measured.
    let skip_base = args.include_large
        && args
            .only
            .as_ref()
            .is_some_and(|o| o.iter().all(|n| n.ends_with("_large")));
    let mut workloads = if skip_base {
        Vec::new()
    } else {
        eprintln!("perf_gate: preparing workload matrix (untimed)…");
        workload_matrix()
    };
    if args.include_large {
        eprintln!("perf_gate: preparing large workload matrix (untimed)…");
        workloads.extend(large_workload_matrix());
    }
    if let Some(only) = &args.only {
        for name in only {
            if !workloads.iter().any(|w| w.name == *name) {
                eprintln!(
                    "perf_gate: --only: no workload named `{name}`{}",
                    if name.ends_with("_large") && !args.include_large {
                        " (did you forget --include-large?)"
                    } else {
                        ""
                    }
                );
                return ExitCode::from(2);
            }
        }
        workloads.retain(|w| only.iter().any(|n| n == w.name));
    }
    eprintln!(
        "perf_gate: measuring {} workloads × {REPEAT} repeats (1 worker)…",
        workloads.len(),
    );
    pathrep_par::set_threads(1);
    let mut results = measure(&workloads, REPEAT);

    eprintln!("perf_gate: measuring thread axis ({PAR_THREADS} workers)…");
    pathrep_par::set_threads(PAR_THREADS);
    let threaded = measure(&workloads, REPEAT);
    pathrep_par::set_threads(0);

    // Determinism cross-check: identical seeds at a different worker
    // count must do identical work. Any counter drift is a scheduling
    // dependence in a kernel — a hard failure, not a perf question.
    let mut counter_mismatch = false;
    println!(
        "\nperf_gate: thread axis t1 → t{PAR_THREADS} (wall-time informational, \
         counters must match):"
    );
    println!(
        "  {:<20} {:>12} {:>12} {:>9}",
        "workload", "t1 p50", format!("t{PAR_THREADS} p50"), "speedup"
    );
    for (seq, par) in results.iter().zip(threaded.iter()) {
        let speedup = if par.p50_ms > 0.0 {
            seq.p50_ms / par.p50_ms
        } else {
            1.0
        };
        println!(
            "  {:<20} {:>9.2} ms {:>9.2} ms {:>8.2}×",
            seq.name, seq.p50_ms, par.p50_ms, speedup
        );
        if seq.counters != par.counters {
            counter_mismatch = true;
            eprintln!(
                "perf_gate: FAIL — workload `{}` counters differ between \
                 1 and {PAR_THREADS} workers:",
                seq.name
            );
            for (k, v1) in &seq.counters {
                let vn = par.counters.get(k).copied().unwrap_or(0);
                if *v1 != vn {
                    eprintln!("  counter {k}: t1 {v1} → t{PAR_THREADS} {vn}");
                }
            }
            for (k, vn) in &par.counters {
                if !seq.counters.contains_key(k) {
                    eprintln!("  counter {k}: t1 0 → t{PAR_THREADS} {vn}");
                }
            }
        }
    }
    if counter_mismatch {
        eprintln!(
            "perf_gate: FAIL — operation counters depend on the worker \
             count; a kernel broke the determinism contract"
        );
        return ExitCode::FAILURE;
    }
    results.extend(threaded.into_iter().map(|mut r| {
        r.name = format!("{}@t{PAR_THREADS}", r.name);
        r
    }));

    if let Some(victim) = &args.inject_slowdown {
        let Some(r) = results.iter_mut().find(|r| r.name == *victim) else {
            eprintln!("perf_gate: --inject-slowdown: no workload named `{victim}`");
            return ExitCode::from(2);
        };
        eprintln!("perf_gate: injecting 2× slowdown into `{victim}` (self-test)");
        r.p50_ms *= 2.0;
        r.p95_ms *= 2.0;
        r.p999_ms = r.p999_ms.map(|v| v * 2.0);
    }

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        commit: git_commit(),
        env: environment_fingerprint(),
        workloads: results,
    };

    let root = repo_root();
    let out_path = match &args.out {
        Some(p) => PathBuf::from(p),
        None => root.join(format!("BENCH_{}.json", next_bench_index(&root))),
    };
    if let Err(e) = std::fs::write(&out_path, report.to_json() + "\n") {
        eprintln!("perf_gate: failed to write {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!("perf_gate: wrote {}", out_path.display());
    for w in &report.workloads {
        let p999 = match w.p999_ms {
            Some(v) => format!("   p999 {v:>9.2} ms"),
            None => String::new(),
        };
        println!(
            "  {:<20} p50 {:>9.2} ms   p95 {:>9.2} ms{p999}",
            w.name, w.p50_ms, w.p95_ms
        );
    }

    let Some(baseline_path) = &args.baseline else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| BenchReport::from_json(&text))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf_gate: cannot load baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let rows = diff(&baseline, &report);
    println!(
        "\nperf_gate: vs {} (commit {}, threshold {:.0} %):",
        baseline_path,
        baseline.commit,
        THRESHOLD * 100.0
    );
    // Environment fingerprint comparison: a regression measured on a
    // loaded or differently-provisioned box should read as an environment
    // delta, not a code problem.
    print!("{}", render_env_diff(&baseline.env, &report.env));
    let env_verdict = assess_env(&baseline.env, &report.env);
    if env_verdict.unreliable {
        println!("┌──────────────────────────────────────────────────────────────┐");
        println!("│ WARNING: COMPARISON UNRELIABLE — environment mismatch        │");
        println!("│ wall-time verdicts below are suspect; exact counters hold    │");
        println!("└──────────────────────────────────────────────────────────────┘");
        for reason in &env_verdict.reasons {
            println!("  reason: {reason}");
        }
        // Machine-readable: scripts grep this exact line.
        println!(
            "perf_gate: env_unreliable=true reasons={}",
            env_verdict.reasons.join("; ")
        );
    }
    print!("{}", render_diff(&rows));
    if has_regression(&rows) {
        eprintln!("perf_gate: FAIL — at least one workload regressed");
        ExitCode::FAILURE
    } else {
        println!("perf_gate: OK — no workload regressed beyond the threshold");
        ExitCode::SUCCESS
    }
}
