//! `pathrep_benchmark` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path pathrep_benchmark/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload per process. `--workload all` (the default) re-runs this
//! binary once per workload, each in a fresh child process, and with
//! `--out PATH` writes every child's result to one JSON file. Each
//! workload prints one `workload metric value unit` line per metric and,
//! last, one JSON object `{"correct", "attempted", "failed", "metrics"}`;
//! it exits non-zero when any correctness check fails. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones (see
//! `BENCHMARK.json` at the repository root for both lists).
//!
//! Every input is a pure function of `--seed`: the simulated dies of the
//! Monte-Carlo evaluation, the sketch's test matrix, the served chips and
//! the request schedule. The circuits are fixed, because a flow's cost
//! varies up to 3× between generator seeds. The program sees only the
//! generated inputs: telemetry is switched off and every `PATHREP_*`
//! variable is cleared at start-up, so the worker pool runs at its
//! default size (the machine's available parallelism).
//!
//! # Workloads
//!
//! * `table1_paths` — the paper's Table-1 regime: 4 flows (the suite's
//!   s1196, s1423, s5378 and s9234 instances), each circuit → `prepare`
//!   (`T_cons` = nominal delay, 800-path cap) → `ModelFactors` →
//!   Algorithm 1 at ε = 5 % → `evaluate` with 10 000 MC samples. MC evaluation, the circuit-yield MC and the dense SVD/QR do
//!   the work and ADMM does none: an MC or dense-selection change shows
//!   here, and an ADMM change must read as no change.
//! * `table2_hybrid` — the Table-2 regime: 3 flows (the s1196, s1238 and
//!   s1423 instances), `prepare` at 0.98·`T_cons` with
//!   `random_scale` 3 and a 600-path cap → Algorithm 1 at ε = 8 % →
//!   `hybrid_select_sweep_with` over ε′ ∈ {6 %, 7 %} → `evaluate` on both
//!   plans with 2 000 samples. ADMM is most of the time; the measurement
//!   count and the e1 check catch a solver change that trades accuracy for
//!   speed.
//! * `xl_sketch` — 6 flows of the 120k-gate `Suite::large()` class at
//!   fixed generator seeds: `prepare_sparse` (k-best, 800 paths) →
//!   `sketch_exact_select` + `sketch_approx_select` at ε = 20 % with the
//!   default `SketchConfig` but a seeded test matrix (the default sketch
//!   leaves ε_r ≈ 13–15 % at full sketch rank, so 5 % is unreachable). The
//!   same selection layer through the sparse, sketched path with no MC and
//!   no ADMM: a change to the dense path must cost it nothing, and it is
//!   where parallel kernels have lost before.
//! * `serve_open` — open-loop production-test traffic against an
//!   in-process daemon (default `ServerConfig`, ephemeral port). Set-up
//!   builds 4 artifacts from real approximate and exact selections of the
//!   s1423- and s9234-class circuits, fabricates chips with
//!   `VariationSampler` and precomputes the offline reply to each. Two
//!   generator threads, one connection each, send 70 % binary 1-row
//!   `predict`, 20 % binary 8-row `predict_batch` and 10 % JSON 1-row
//!   `predict`, over the models 40/30/20/10, plus a `load_model` of a
//!   re-labelled artifact every 0.5 s. Twelve rounds each run a 0.5 s
//!   window at 1 000 req/s, one at 4 000 req/s, and a burst of 2 000
//!   requests sent back to back (the saturation rate); interleaving
//!   spreads every measure over the run, so a stall spoils one
//!   window, not one measure. Latency runs from each request's due time.
//!   It is the only workload that exercises serve, net and the wire
//!   protocol, and it runs no selection.
//!
//! # End-to-end metrics
//!
//! For the offline workloads an operation is a flow, run in at least two
//! passes over the flow list, and a flow's time is its fastest pass
//! (other tenants of the host only ever add time): `p50_ms` is the median
//! flow, `tail_ms` the slowest (too few flows support a percentile tail),
//! `throughput` flows per second and `meas_per_die` the mean
//! post-silicon measurement count of the flows' plans (approximate
//! `|P_r|`, or `|P_r| + |S_r|` for the hybrid plan). For `serve_open` they
//! are the median and p90 latency at 1 000 req/s, the saturation rate of
//! the two connections, and the mean measurements per
//! predicted die. `setup_s` is the median of repeated set-ups (offline:
//! five times deriving the flows and running one small warm-up flow;
//! serving: three times building, fabricating, starting and loading),
//! and `peak_rss_mb` the process's VmHWM after the measurement (serving:
//! read before the two extra set-ups).
//!
//! The serving latencies are read at 1 000 req/s and the tail is p90, not
//! p99: on a small shared host the p99, and any percentile with queueing
//! in it, swings by 30 % to 10× between runs with stalls by other tenants,
//! so no bound could hold it. Load shows in the saturation rate.
//!
//! # Correctness checks
//!
//! Every flow must give finite results with e1 < ε (on the hybrid plan
//! for Table 2, whose approximate plan is held to its analytic ε_r) and
//! ε_r ≤ ε for every selection; Table 1 and the sketch also check
//! `r ≤ rank ≤ |P_tar|`. Every serving reply must be bit-identical to the
//! offline reply; an error reply or a broken connection also fails.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! Offline: one untraced pass, one pass with telemetry on, one untraced
//! pass at one worker. Serving: set-up at the default worker count and at
//! one worker, then the 1 000 req/s windows untraced and traced. The
//! benchmark wraps each public call in a `<layer>.<call>` span; layer
//! shares are span self-times, counts come from the crates' own counters
//! and work counters (computed, not measured).

mod layers;
mod loadgen;
mod offline;
mod report;
mod seeds;
mod serve;
mod stats;

use offline::Regime;
use report::{Report, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// The workloads, in run order.
const WORKLOADS: [&str; 4] = ["table1_paths", "table2_hybrid", "xl_sketch", "serve_open"];

/// Default measuring time per run, matching `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 11,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

/// Peak resident set (VmHWM) of this process in MB, 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_one(args: &Args) -> ExitCode {
    // The program receives only the generated inputs: no telemetry, no
    // environment overrides of worker count, sketch or serving settings.
    for (key, _) in std::env::vars() {
        if key.starts_with("PATHREP_") {
            std::env::remove_var(key);
        }
    }
    pathrep_obs::set_enabled(false);
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut report: Report = match args.workload.as_str() {
        "table1_paths" => offline::run_workload(Regime::Table1, seed, seconds, trace),
        "table2_hybrid" => offline::run_workload(Regime::Table2, seed, seconds, trace),
        "xl_sketch" => offline::run_workload(Regime::Sketch, seed, seconds, trace),
        _ => serve::run_workload(seed, seconds, trace),
    };
    let declared = if trace { PER_LAYER } else { END_TO_END };
    report.fill_missing(declared);
    for line in report.lines(&args.workload, declared) {
        println!("{line}");
    }
    for f in report.failures.iter().take(10) {
        eprintln!("{}: FAILED: {f}", args.workload);
    }
    println!("{}", report.to_json(declared));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a fresh child process, forwards their metric
/// lines, and optionally writes all results to `args.out`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pathrep_benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("pathrep_benchmark: {w}: {e}");
                ok = false;
                continue;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().and_then(|l| pathrep_obs::json::parse(l).ok());
        for l in lines {
            println!("{l}");
        }
        ok &= output.status.success();
        match result {
            Some(r) => results.push((w.to_owned(), r)),
            None => {
                eprintln!("pathrep_benchmark: {w} printed no result");
                ok = false;
            }
        }
    }
    if let Some(path) = &args.out {
        let doc = pathrep_obs::json::JsonValue::Object(vec![
            (
                "seed".into(),
                pathrep_obs::json::JsonValue::Number(args.seed as f64),
            ),
            (
                "workloads".into(),
                pathrep_obs::json::JsonValue::Object(results),
            ),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("pathrep_benchmark: cannot write {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pathrep_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    /// Every generated input of every workload at `seed`, rendered so that
    /// equal bytes mean bit-equal inputs. The served models come from the
    /// small warm-up circuit to keep the test fast; the generation path is
    /// the workload's own.
    fn inputs(seed: u64) -> String {
        let mut out = String::new();
        for regime in [Regime::Table1, Regime::Table2, Regime::Sketch] {
            writeln!(out, "{:?}", offline::flows(regime, seed)).unwrap();
        }
        let tiny = vec![offline::warmup_flow(Regime::Table1).spec];
        let models = serve::build_models(&tiny, seed).expect("tiny models build");
        for m in &models {
            for row in m.chips.iter().chain(&m.expected) {
                let bits: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                writeln!(out, "{bits:?}").unwrap();
            }
        }
        let schedule = loadgen::schedule(
            seeds::derive(seed, 20, 0),
            1000.0,
            0.5,
            &serve::mix(&models),
        );
        writeln!(out, "{schedule:?}").unwrap();
        out
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = inputs(11);
        assert_eq!(a.as_bytes(), inputs(11).as_bytes(), "same seed, same bytes");
        assert_ne!(a, inputs(12), "another seed gives other inputs");
    }
}
