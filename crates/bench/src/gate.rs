//! The perf-regression gate: `BENCH_*.json` schema, serialization and the
//! baseline diff that decides pass/fail.
//!
//! A [`BenchReport`] is what one `perf_gate` run writes:
//! per-workload p50/p95 wall times plus the exact operation counters
//! (SVD sweeps, QR pivots, ADMM iterations, …) collected from the
//! `pathrep-obs` registry. Because every workload runs with fixed RNG
//! seeds, counter diffs between two reports are exact — a changed counter
//! means the algorithm did different work, not that the machine was noisy.

use pathrep_obs::json::{self, JsonValue};
use pathrep_obs::selftime::ProfileEntry;
use std::collections::BTreeMap;

/// Version stamp of the `BENCH_*.json` layout. Bump on breaking changes so
/// the diff can refuse incomparable baselines.
pub const SCHEMA_VERSION: u64 = 1;

/// Relative p50 slowdown tolerated before the gate fails (25 %).
pub const THRESHOLD: f64 = 0.25;

/// Measured result of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name (stable across runs; the diff joins on it).
    pub name: String,
    /// Median wall time over the repeats, in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile wall time, in milliseconds.
    pub p95_ms: f64,
    /// 99.9th-percentile wall time in milliseconds, from the HDR latency
    /// machinery. `None` in baselines written before the field existed —
    /// the parse is lenient so old `BENCH_*.json` files stay loadable.
    pub p999_ms: Option<f64>,
    /// Sustained throughput in rows (predictions) per second, for
    /// workloads that report it via the `bench.rows_per_sec` gauge
    /// (median over repeats). `None` for workloads without a throughput
    /// notion and in baselines written before the field existed — the
    /// parse is lenient and serialization omits `None`, so old
    /// `BENCH_*.json` files stay loadable and byte-stable.
    pub rows_per_sec: Option<f64>,
    /// Deterministic operation counters from the obs registry.
    pub counters: BTreeMap<String, u64>,
    /// Inclusive/exclusive span profile of the final measured repeat
    /// (see [`pathrep_obs::selftime`]). Empty in baselines written before
    /// the field existed — the parse is lenient and serialization omits
    /// an empty profile, so old `BENCH_*.json` files stay loadable and
    /// byte-stable.
    pub profile: Vec<ProfileEntry>,
}

/// One `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Git commit the run was taken at (short hash, or `"unknown"`).
    pub commit: String,
    /// Environment fingerprint at measurement time (cpu count, thread
    /// setting, load average, kernel) — see [`environment_fingerprint`].
    /// Empty in baselines written before the field existed; the parse is
    /// lenient and serialization omits an empty map, so old
    /// `BENCH_*.json` files stay loadable and byte-stable.
    pub env: BTreeMap<String, String>,
    /// Per-workload results, in matrix order.
    pub workloads: Vec<WorkloadResult>,
}

/// Captures the measurement environment: `cpus` (available parallelism),
/// `pathrep_threads` (the `PATHREP_THREADS` setting, or `default`),
/// `loadavg` (the 1/5/15-minute triple) and `kernel` (release string).
/// A perf diff across machines or against a loaded box is noise — the
/// fingerprint travels with the numbers so the gate can say so.
pub fn environment_fingerprint() -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    if let Ok(n) = std::thread::available_parallelism() {
        env.insert("cpus".to_owned(), n.get().to_string());
    }
    env.insert(
        "pathrep_threads".to_owned(),
        std::env::var("PATHREP_THREADS")
            .ok()
            .filter(|v| !v.trim().is_empty())
            .unwrap_or_else(|| "default".to_owned()),
    );
    if let Ok(raw) = std::fs::read_to_string("/proc/loadavg") {
        let triple: Vec<&str> = raw.split_whitespace().take(3).collect();
        if triple.len() == 3 {
            env.insert("loadavg".to_owned(), triple.join(" "));
        }
    }
    if let Ok(release) = std::fs::read_to_string("/proc/sys/kernel/osrelease") {
        env.insert("kernel".to_owned(), release.trim().to_owned());
    }
    env
}

impl BenchReport {
    /// Serializes the report as pretty-enough single-line JSON.
    pub fn to_json(&self) -> String {
        let mut top = vec![
            (
                "schema_version".to_owned(),
                JsonValue::Number(self.schema_version as f64),
            ),
            ("commit".into(), JsonValue::String(self.commit.clone())),
        ];
        if !self.env.is_empty() {
            top.push((
                "env".into(),
                JsonValue::Object(
                    self.env
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::String(v.clone())))
                        .collect(),
                ),
            ));
        }
        top.push((
                "workloads".into(),
                JsonValue::Array(
                    self.workloads
                        .iter()
                        .map(|w| {
                            let mut fields = vec![
                                ("name".into(), JsonValue::String(w.name.clone())),
                                ("p50_ms".into(), JsonValue::Number(w.p50_ms)),
                                ("p95_ms".into(), JsonValue::Number(w.p95_ms)),
                            ];
                            if let Some(p999) = w.p999_ms {
                                fields.push(("p999_ms".into(), JsonValue::Number(p999)));
                            }
                            if let Some(rate) = w.rows_per_sec {
                                fields.push(("rows_per_sec".into(), JsonValue::Number(rate)));
                            }
                            fields.push((
                                "counters".into(),
                                JsonValue::Object(
                                    w.counters
                                        .iter()
                                        .map(|(k, &v)| (k.clone(), JsonValue::Number(v as f64)))
                                        .collect(),
                                ),
                            ));
                            if !w.profile.is_empty() {
                                fields.push((
                                    "profile".into(),
                                    JsonValue::Array(
                                        w.profile
                                            .iter()
                                            .map(|e| {
                                                JsonValue::Object(vec![
                                                    (
                                                        "path".into(),
                                                        JsonValue::String(e.path.clone()),
                                                    ),
                                                    (
                                                        "count".into(),
                                                        JsonValue::Number(e.count as f64),
                                                    ),
                                                    (
                                                        "total_ns".into(),
                                                        JsonValue::Number(e.total_ns as f64),
                                                    ),
                                                    (
                                                        "self_ns".into(),
                                                        JsonValue::Number(e.self_ns as f64),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ));
                            }
                            JsonValue::Object(fields)
                        })
                        .collect(),
                ),
            ));
        JsonValue::Object(top).render()
    }

    /// Parses a report written by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct, including a
    /// schema-version mismatch.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = json::parse(text)?;
        let schema_version = v.field("schema_version")?.number()? as u64;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "baseline schema_version {schema_version} is not the supported \
                 {SCHEMA_VERSION} — regenerate the baseline"
            ));
        }
        let workloads = v
            .field("workloads")?
            .array()?
            .iter()
            .map(|w| {
                // Lenient: absent in pre-counter baselines (shows up as
                // all-new counter deltas in the diff, never as a crash).
                let counters = match w.field("counters") {
                    Err(_) => BTreeMap::new(),
                    Ok(JsonValue::Object(fields)) => fields
                        .iter()
                        .map(|(k, v)| Ok((k.clone(), v.number()? as u64)))
                        .collect::<Result<BTreeMap<_, _>, String>>()?,
                    Ok(_) => return Err("counters must be an object".into()),
                };
                // Lenient: absent in pre-profile baselines.
                let profile = match w.field("profile") {
                    Err(_) => Vec::new(),
                    Ok(JsonValue::Array(rows)) => rows
                        .iter()
                        .map(|e| {
                            Ok(ProfileEntry {
                                path: e.field("path")?.string()?,
                                count: e.field("count")?.number()? as u64,
                                total_ns: e.field("total_ns")?.number()? as u64,
                                self_ns: e.field("self_ns")?.number()? as u64,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    Ok(_) => return Err("profile must be an array".into()),
                };
                Ok(WorkloadResult {
                    name: w.field("name")?.string()?,
                    p50_ms: w.field("p50_ms")?.number()?,
                    p95_ms: w.field("p95_ms")?.number()?,
                    // Lenient: absent in pre-p999 baselines.
                    p999_ms: w.field("p999_ms").ok().and_then(|f| f.number().ok()),
                    // Lenient: absent in pre-throughput baselines.
                    rows_per_sec: w.field("rows_per_sec").ok().and_then(|f| f.number().ok()),
                    counters,
                    profile,
                })
            })
            .collect::<Result<_, String>>()?;
        // Lenient: absent in pre-fingerprint baselines.
        let env = match v.field("env") {
            Err(_) => BTreeMap::new(),
            Ok(JsonValue::Object(fields)) => fields
                .iter()
                .filter_map(|(k, v)| v.string().ok().map(|s| (k.clone(), s)))
                .collect(),
            Ok(_) => return Err("env must be an object".into()),
        };
        Ok(BenchReport {
            schema_version,
            // Lenient: absent in hand-trimmed baselines; the commit is
            // informational (report headers), never part of the gate.
            commit: v
                .field("commit")
                .ok()
                .and_then(|f| f.string().ok())
                .unwrap_or_else(|| "(unknown)".into()),
            env,
            workloads,
        })
    }
}

/// Verdict of one workload's baseline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// p50 within the threshold band.
    Ok,
    /// p50 shrank beyond the threshold.
    Improved,
    /// p50 grew beyond the threshold — the gate fails.
    Regressed,
    /// A thread-axis (`name@tN`) row: its wall time is shown but never
    /// gated; its counter deltas are still reported.
    Informational,
    /// Present now, absent in the baseline (informational).
    New,
    /// Present in the baseline, absent now (informational, surfaced so a
    /// silently dropped workload cannot hide a regression).
    Removed,
}

impl Verdict {
    /// Stable display tag.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Informational => "info",
            Verdict::New => "new",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Workload name.
    pub name: String,
    /// Baseline p50 (ms), when present.
    pub baseline_p50_ms: Option<f64>,
    /// Current p50 (ms), when present.
    pub current_p50_ms: Option<f64>,
    /// `current / baseline`, when both sides exist.
    pub ratio: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
    /// Counters whose values changed: `name → (baseline, current)`.
    pub counter_deltas: BTreeMap<String, (u64, u64)>,
}

/// Compares `current` against `baseline` workload-by-workload. A workload
/// regresses when its p50 grows by more than [`THRESHOLD`]; it counts as
/// improved when it shrinks by the same margin. Thread-axis rows
/// (`name@tN`) get [`Verdict::Informational`] whatever their ratio. Rows
/// come back in current-report order, then removed ones.
pub fn diff(baseline: &BenchReport, current: &BenchReport) -> Vec<DiffRow> {
    let base_by_name: BTreeMap<&str, &WorkloadResult> = baseline
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w))
        .collect();
    let mut rows = Vec::new();
    for cur in &current.workloads {
        match base_by_name.get(cur.name.as_str()) {
            None => rows.push(DiffRow {
                name: cur.name.clone(),
                baseline_p50_ms: None,
                current_p50_ms: Some(cur.p50_ms),
                ratio: None,
                verdict: Verdict::New,
                counter_deltas: BTreeMap::new(),
            }),
            Some(base) => {
                let ratio = if base.p50_ms > 0.0 {
                    cur.p50_ms / base.p50_ms
                } else {
                    1.0
                };
                let verdict = if cur.name.contains("@t") {
                    Verdict::Informational
                } else if ratio > 1.0 + THRESHOLD {
                    Verdict::Regressed
                } else if ratio < 1.0 - THRESHOLD {
                    Verdict::Improved
                } else {
                    Verdict::Ok
                };
                let mut counter_deltas = BTreeMap::new();
                for (k, &b) in &base.counters {
                    let c = cur.counters.get(k).copied().unwrap_or(0);
                    if c != b {
                        counter_deltas.insert(k.clone(), (b, c));
                    }
                }
                for (k, &c) in &cur.counters {
                    if !base.counters.contains_key(k) {
                        counter_deltas.insert(k.clone(), (0, c));
                    }
                }
                rows.push(DiffRow {
                    name: cur.name.clone(),
                    baseline_p50_ms: Some(base.p50_ms),
                    current_p50_ms: Some(cur.p50_ms),
                    ratio: Some(ratio),
                    verdict,
                    counter_deltas,
                });
            }
        }
    }
    let current_names: BTreeMap<&str, ()> = current
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), ()))
        .collect();
    for base in &baseline.workloads {
        if !current_names.contains_key(base.name.as_str()) {
            rows.push(DiffRow {
                name: base.name.clone(),
                baseline_p50_ms: Some(base.p50_ms),
                current_p50_ms: None,
                ratio: None,
                verdict: Verdict::Removed,
                counter_deltas: BTreeMap::new(),
            });
        }
    }
    rows
}

/// Whether any row fails the gate.
pub fn has_regression(rows: &[DiffRow]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

/// Renders the per-workload comparison table.
pub fn render_diff(rows: &[DiffRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>12} {:>8}  {}",
        "workload", "base p50", "cur p50", "ratio", "verdict"
    );
    let fmt_ms = |v: Option<f64>| match v {
        Some(ms) => format!("{ms:.2} ms"),
        None => "—".to_owned(),
    };
    for r in rows {
        let ratio = match r.ratio {
            Some(x) => format!("{x:.2}×"),
            None => "—".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>12} {:>8}  {}",
            r.name,
            fmt_ms(r.baseline_p50_ms),
            fmt_ms(r.current_p50_ms),
            ratio,
            r.verdict.as_str(),
        );
        for (k, (b, c)) in &r.counter_deltas {
            let _ = writeln!(out, "{:<20}   counter {k}: {b} → {c}", "");
        }
    }
    out
}

/// Renders a baseline-vs-current environment comparison, one line per
/// fingerprint key, flagging every difference — so a "regression" taken
/// on a loaded or differently-sized box announces itself in the diff
/// output instead of masquerading as a code problem.
pub fn render_env_diff(
    baseline: &BTreeMap<String, String>,
    current: &BTreeMap<String, String>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let keys: std::collections::BTreeSet<&String> =
        baseline.keys().chain(current.keys()).collect();
    for k in keys {
        let b = baseline.get(k).map_or("—", String::as_str);
        let c = current.get(k).map_or("—", String::as_str);
        let mark = if b == c { "" } else { "  <- differs" };
        let _ = writeln!(out, "  env {k:<16} base: {b:<24} cur: {c}{mark}");
    }
    out
}

/// Verdict on whether a baseline comparison can be trusted, from the two
/// environment fingerprints (see [`assess_env`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnvAssessment {
    /// When `true`, wall-time verdicts in the diff are suspect: the
    /// machine shape or its load differed between the two runs.
    pub unreliable: bool,
    /// Human-readable reasons, one per mismatch.
    pub reasons: Vec<String>,
}

/// How far the 1-minute load average may drift between baseline and
/// current before the comparison is declared unreliable.
pub const LOADAVG_TOLERANCE: f64 = 1.0;

/// Judges whether `current` was measured in an environment comparable to
/// `baseline`: a different cpu count, kernel or `PATHREP_THREADS` setting,
/// or a 1-minute load average drifted by more than [`LOADAVG_TOLERANCE`],
/// makes wall-time comparisons unreliable (exact counters stay valid).
/// Fingerprint-less sides (old baselines) compare as reliable — there is
/// nothing to contradict.
pub fn assess_env(
    baseline: &BTreeMap<String, String>,
    current: &BTreeMap<String, String>,
) -> EnvAssessment {
    let mut reasons = Vec::new();
    for key in ["cpus", "pathrep_threads", "kernel"] {
        if let (Some(b), Some(c)) = (baseline.get(key), current.get(key)) {
            if b != c {
                reasons.push(format!("{key} changed: {b} -> {c}"));
            }
        }
    }
    let load1 = |env: &BTreeMap<String, String>| -> Option<f64> {
        env.get("loadavg")?.split_whitespace().next()?.parse().ok()
    };
    if let (Some(b), Some(c)) = (load1(baseline), load1(current)) {
        if (b - c).abs() > LOADAVG_TOLERANCE {
            reasons.push(format!(
                "1-min loadavg drifted: {b:.2} -> {c:.2} (tolerance {LOADAVG_TOLERANCE:.1})"
            ));
        }
    }
    EnvAssessment {
        unreliable: !reasons.is_empty(),
        reasons,
    }
}

/// Interpolated percentile of already-measured wall times. `q` in `[0, 1]`.
pub fn percentile_ms(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted_ms.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted_ms[lo] + frac * (sorted_ms[hi] - sorted_ms[lo])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(name: &str, p50: f64, counters: &[(&str, u64)]) -> WorkloadResult {
        WorkloadResult {
            name: name.to_owned(),
            p50_ms: p50,
            p95_ms: p50 * 1.2,
            p999_ms: Some(p50 * 1.5),
            rows_per_sec: None,
            counters: counters
                .iter()
                .map(|&(k, v)| (k.to_owned(), v))
                .collect(),
            profile: Vec::new(),
        }
    }

    fn report(workloads: Vec<WorkloadResult>) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            commit: "abc1234".into(),
            env: BTreeMap::new(),
            workloads,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report(vec![
            workload("exact_small", 12.5, &[("svd_sweeps", 9), ("qr_pivots", 40)]),
            workload("hybrid_medium", 310.25, &[("admm_iters", 128)]),
        ]);
        let back = BenchReport::from_json(&r.to_json()).expect("valid JSON");
        assert_eq!(back, r);
    }

    #[test]
    fn env_fingerprint_round_trips_and_empty_env_is_omitted() {
        let mut r = report(vec![workload("exact_small", 12.5, &[])]);
        // Empty fingerprint serializes exactly like the pre-env schema, so
        // regenerating an old baseline stays byte-stable.
        assert!(!r.to_json().contains("\"env\""));
        r.env.insert("cpus".into(), "8".into());
        r.env.insert("kernel".into(), "6.18.5".into());
        let back = BenchReport::from_json(&r.to_json()).expect("valid JSON");
        assert_eq!(back, r);
        assert_eq!(back.env.get("cpus").map(String::as_str), Some("8"));
    }

    #[test]
    fn env_diff_flags_differences_only() {
        let mut base = BTreeMap::new();
        base.insert("cpus".to_owned(), "8".to_owned());
        base.insert("kernel".to_owned(), "6.1".to_owned());
        let mut cur = base.clone();
        cur.insert("cpus".to_owned(), "4".to_owned());
        cur.insert("loadavg".to_owned(), "0.10 0.20 0.30".to_owned());
        let rendered = render_env_diff(&base, &cur);
        let differs: Vec<&str> =
            rendered.lines().filter(|l| l.ends_with("<- differs")).collect();
        assert_eq!(differs.len(), 2, "{rendered}");
        assert!(differs.iter().any(|l| l.contains("cpus")));
        assert!(differs.iter().any(|l| l.contains("loadavg")));
        assert!(!rendered
            .lines()
            .any(|l| l.contains("kernel") && l.contains("differs")));
    }

    #[test]
    fn baselines_without_p999_still_parse() {
        // The exact shape BENCH_1..4 were written in, before p999_ms.
        let text = r#"{"schema_version":1,"commit":"x","workloads":[
            {"name":"exact_small","p50_ms":12.5,"p95_ms":15.0,
             "counters":{"svd_sweeps":9}}]}"#;
        let r = BenchReport::from_json(text).expect("lenient parse");
        assert_eq!(r.workloads[0].p999_ms, None);
        assert_eq!(r.workloads[0].p50_ms, 12.5);
        // Re-serializing a p999-less workload emits no p999_ms field.
        assert!(!r.to_json().contains("p999_ms"));
    }

    #[test]
    fn rows_per_sec_round_trips_and_is_omitted_when_absent() {
        let mut r = report(vec![workload("serve_small", 12.5, &[])]);
        // Throughput-less workloads serialize exactly like the
        // pre-throughput schema, so old baselines stay byte-stable.
        assert!(!r.to_json().contains("rows_per_sec"));
        r.workloads[0].rows_per_sec = Some(52_000.25);
        let back = BenchReport::from_json(&r.to_json()).expect("valid JSON");
        assert_eq!(back, r);
        assert_eq!(back.workloads[0].rows_per_sec, Some(52_000.25));
    }

    #[test]
    fn profile_round_trips_and_empty_profile_is_omitted() {
        let mut r = report(vec![workload("exact_small", 12.5, &[])]);
        // Profile-less workloads serialize exactly like the pre-profile
        // schema, so regenerated old baselines stay byte-stable.
        assert!(!r.to_json().contains("\"profile\""));
        r.workloads[0].profile = vec![
            ProfileEntry {
                path: "exact_select".into(),
                count: 5,
                total_ns: 10_000,
                self_ns: 2_000,
            },
            ProfileEntry {
                path: "exact_select/qr_factor".into(),
                count: 40,
                total_ns: 8_000,
                self_ns: 8_000,
            },
        ];
        let back = BenchReport::from_json(&r.to_json()).expect("valid JSON");
        assert_eq!(back, r);
        assert_eq!(back.workloads[0].profile[1].leaf(), "qr_factor");
    }

    #[test]
    fn baselines_without_profile_still_parse() {
        let text = r#"{"schema_version":1,"commit":"x","workloads":[
            {"name":"exact_small","p50_ms":12.5,"p95_ms":15.0,
             "counters":{"svd_sweeps":9}}]}"#;
        let r = BenchReport::from_json(text).expect("lenient parse");
        assert!(r.workloads[0].profile.is_empty());
    }

    #[test]
    fn baselines_without_commit_or_counters_still_parse() {
        let text = r#"{"schema_version":1,"workloads":[
            {"name":"exact_small","p50_ms":12.5,"p95_ms":15.0}]}"#;
        let r = BenchReport::from_json(text).expect("lenient parse");
        assert_eq!(r.commit, "(unknown)");
        assert!(r.workloads[0].counters.is_empty());
        // The diff still runs against a counter-less baseline.
        let cur = report(vec![workload("exact_small", 12.5, &[("svd_sweeps", 9)])]);
        let rows = diff(&r, &cur);
        assert_eq!(rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn committed_baseline_round_trips_byte_stable() {
        // The committed BENCH_6 baseline must survive parse → render
        // unchanged, byte for byte, or regenerated baselines churn in
        // review and `--baseline` comparisons silently drift.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json");
        let text = std::fs::read_to_string(path).expect("BENCH_6.json is committed");
        let report = BenchReport::from_json(&text).expect("baseline parses");
        assert_eq!(report.to_json() + "\n", text, "round-trip is not byte-stable");
    }

    #[test]
    fn env_assessment_flags_shape_and_load_mismatches() {
        let mk = |cpus: &str, load: &str| -> BTreeMap<String, String> {
            [
                ("cpus".to_owned(), cpus.to_owned()),
                ("pathrep_threads".to_owned(), "default".to_owned()),
                ("kernel".to_owned(), "6.1".to_owned()),
                ("loadavg".to_owned(), load.to_owned()),
            ]
            .into_iter()
            .collect()
        };
        let base = mk("8", "0.50 0.40 0.30");
        assert!(!assess_env(&base, &base).unreliable);
        // Load drift within tolerance stays reliable.
        assert!(!assess_env(&base, &mk("8", "1.20 0.40 0.30")).unreliable);
        let loaded = assess_env(&base, &mk("8", "3.50 0.40 0.30"));
        assert!(loaded.unreliable);
        assert!(loaded.reasons[0].contains("loadavg"), "{:?}", loaded.reasons);
        let resized = assess_env(&base, &mk("4", "0.50 0.40 0.30"));
        assert!(resized.unreliable);
        assert!(resized.reasons[0].contains("cpus"));
        // Old fingerprint-less baselines never trip the banner.
        assert!(!assess_env(&BTreeMap::new(), &base).unreliable);
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = r#"{"schema_version":99,"commit":"x","workloads":[]}"#;
        let err = BenchReport::from_json(text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn regression_beyond_threshold_fails_the_gate() {
        let base = report(vec![workload("a", 100.0, &[("svd_sweeps", 5)])]);
        let cur = report(vec![workload("a", 200.0, &[("svd_sweeps", 5)])]);
        let rows = diff(&base, &cur);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[0].ratio, Some(2.0));
        assert!(has_regression(&rows));
        // The rendered table carries the verdict.
        assert!(render_diff(&rows).contains("REGRESSED"));
    }

    #[test]
    fn within_threshold_passes_and_improvement_is_flagged() {
        let base = report(vec![
            workload("steady", 100.0, &[]),
            workload("faster", 100.0, &[]),
        ]);
        let cur = report(vec![
            workload("steady", 110.0, &[]),
            workload("faster", 40.0, &[]),
        ]);
        let rows = diff(&base, &cur);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Improved);
        assert!(!has_regression(&rows));
    }

    #[test]
    fn new_and_removed_workloads_are_informational() {
        let base = report(vec![workload("gone", 50.0, &[])]);
        let cur = report(vec![workload("fresh", 60.0, &[])]);
        let rows = diff(&base, &cur);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::New);
        assert_eq!(rows[0].name, "fresh");
        assert_eq!(rows[1].verdict, Verdict::Removed);
        assert_eq!(rows[1].name, "gone");
        assert!(!has_regression(&rows), "membership changes alone never fail");
    }

    #[test]
    fn thread_axis_rows_are_informational_but_keep_counter_deltas() {
        let base = report(vec![
            workload("a", 100.0, &[]),
            workload("a@t4", 100.0, &[("svd_sweeps", 5)]),
        ]);
        let cur = report(vec![
            workload("a", 110.0, &[]),
            workload("a@t4", 600.0, &[("svd_sweeps", 6)]),
        ]);
        let rows = diff(&base, &cur);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[1].verdict, Verdict::Informational);
        assert_eq!(rows[1].ratio, Some(6.0));
        assert_eq!(
            rows[1].counter_deltas,
            [("svd_sweeps".to_owned(), (5, 6))].into_iter().collect()
        );
        assert!(!has_regression(&rows), "@tN wall time never fails the gate");
        assert!(render_diff(&rows).contains("info"));
    }

    #[test]
    fn counter_drift_is_reported_exactly() {
        let base = report(vec![workload("a", 100.0, &[("svd_sweeps", 5), ("same", 1)])]);
        let cur = report(vec![workload(
            "a",
            101.0,
            &[("svd_sweeps", 7), ("same", 1), ("admm_iters", 3)],
        )]);
        let rows = diff(&base, &cur);
        assert_eq!(
            rows[0].counter_deltas,
            [
                ("svd_sweeps".to_owned(), (5, 7)),
                ("admm_iters".to_owned(), (0, 3)),
            ]
            .into_iter()
            .collect()
        );
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_ms(&xs, 0.0), 10.0);
        assert_eq!(percentile_ms(&xs, 1.0), 40.0);
        assert_eq!(percentile_ms(&xs, 0.5), 25.0);
        assert_eq!(percentile_ms(&[7.5], 0.95), 7.5);
    }
}
