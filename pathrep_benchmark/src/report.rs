//! The declared metric set and the result line the benchmark prints.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; the drift-guard test below keeps the two in step.

use pathrep_obs::json::JsonValue;
use std::collections::BTreeMap;

/// A declared metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, emitted untraced (`--trace 0`) by every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput", "1/s"),
    ("meas_per_die", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted by the traced run (`--trace 1`) of every
/// workload. Layer names are crate names; a layer a workload never enters
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    ("obs.overhead_pct", "%"),
    ("par.speedup", "x"),
    ("circuit.time_pct", "%"),
    ("variation.time_pct", "%"),
    ("ssta.time_pct", "%"),
    ("ssta.yield_mc_pct", "%"),
    ("ssta.extract_pct", "%"),
    ("ssta.yield_samples", "count"),
    ("ssta.extract_expansions", "count"),
    ("linalg.time_pct", "%"),
    ("linalg.svd_pct", "%"),
    ("linalg.qr_pct", "%"),
    ("linalg.sketch_pct", "%"),
    ("linalg.svd_gflops", "GFLOP/s"),
    ("linalg.flops.svd", "flop"),
    ("linalg.flops.qr_factor", "flop"),
    ("linalg.flops.matmul", "flop"),
    ("linalg.flops.matvec", "flop"),
    ("linalg.flops.spmm", "flop"),
    ("convopt.time_pct", "%"),
    ("convopt.admm_iters", "count"),
    ("convopt.converged_frac", "ratio"),
    ("core.time_pct", "%"),
    ("core.approx_evals", "count"),
    ("core.subset_calls", "count"),
    ("core.accept_frac", "ratio"),
    ("eval.time_pct", "%"),
    ("eval.mc_pct", "%"),
    ("eval.mc_samples", "count"),
    ("eval.mc_samples_per_s", "1/s"),
    ("eval.e1_pct", "%"),
    ("serve.time_pct", "%"),
    ("serve.json_rtt_ratio", "x"),
    ("serve.bin8_rtt_ratio", "x"),
    ("serve.batch_rows_mean", "count"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.model_loads", "count"),
    ("serve.errors", "count"),
    ("net.shard_requests", "count"),
    ("net.shed", "count"),
    ("loadgen.late_pct", "%"),
];

/// One workload's result: the pass/fail tally and its metric values.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (flows or requests).
    pub attempted: u64,
    /// Attempted operations that failed a correctness check.
    pub failed: u64,
    /// Human-readable reason for each failure (first few are printed).
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one attempted operation and its failures, if any.
    pub fn tally(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }

    /// Sets metric `name`; a non-finite value is itself a failure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.failed += 1;
            self.failures
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Sets every declared metric a failed run never reached to 0, and
    /// counts each as a failure.
    pub fn fill_missing(&mut self, declared: &[MetricDef]) {
        for &(name, _) in declared {
            if !self.values.contains_key(name) {
                self.set(name, 0.0);
                self.failed += 1;
                self.failures
                    .push(format!("metric {name} was not measured"));
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The `workload metric value unit` lines for `declared`, in order.
    pub fn lines(&self, workload: &str, declared: &[MetricDef]) -> Vec<String> {
        declared
            .iter()
            .map(|&(name, unit)| format!("{workload} {name} {} {unit}", self.value(name)))
            .collect()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// `declared` metrics with their units.
    pub fn to_json(&self, declared: &[MetricDef]) -> String {
        let metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let entry = JsonValue::Object(vec![
                    ("value".into(), JsonValue::Number(self.value(name))),
                    ("unit".into(), JsonValue::String(unit.into())),
                ]);
                (name.to_owned(), entry)
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Number(self.attempted as f64)),
            ("failed".into(), JsonValue::Number(self.failed as f64)),
            ("metrics".into(), JsonValue::Object(metrics)),
        ])
        .render()
    }

    fn value(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was declared but never set"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn declared(doc: &JsonValue, key: &str) -> BTreeSet<(String, String)> {
        doc.field(key)
            .and_then(JsonValue::array)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| {
                let name = m.field("name").and_then(JsonValue::string).expect("name");
                let unit = m.field("unit").and_then(JsonValue::string).expect("unit");
                (name, unit)
            })
            .collect()
    }

    fn emitted(defs: &[MetricDef]) -> BTreeSet<(String, String)> {
        defs.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    /// Drift guard: the metrics this binary emits are exactly the ones
    /// `BENCHMARK.json` declares, with the same units, in both directions.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = pathrep_obs::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), emitted(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(PER_LAYER));
        assert!(END_TO_END.len() <= 16, "at most 16 end-to-end metrics");
        assert!(PER_LAYER.len() <= 128, "at most 128 per-layer metrics");
        let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.0).collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "metric name `{name}` is outside [A-Za-z0-9_.-]+"
            );
        }
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "metric names are unique");
    }

    #[test]
    fn non_finite_metric_counts_as_failure() {
        let mut r = Report::default();
        r.tally(Vec::new());
        r.set("p50_ms", f64::NAN);
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn json_line_carries_every_declared_metric() {
        let mut r = Report::default();
        r.tally(Vec::new());
        for &(name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let line = r.to_json(END_TO_END);
        let doc = pathrep_obs::json::parse(&line).expect("result line parses");
        assert_eq!(doc.field("correct").unwrap(), &JsonValue::Bool(true));
        let metrics = doc.field("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let m = metrics.field(name).expect("metric present");
            assert_eq!(m.field("value").unwrap().number().unwrap(), 1.25);
            assert_eq!(m.field("unit").unwrap().string().unwrap(), unit);
        }
    }
}
