//! Differential performance attribution: *which kernel* a wall-time
//! change lives in.
//!
//! The perf gate's diff ([`crate::gate::diff`]) says *that* a workload's
//! p50 moved; this module says *why*, by joining the two reports'
//! self-time profiles (see [`pathrep_obs::selftime`]) span-path by
//! span-path and ranking the movers by Δself-time. Where the workload
//! also carries `work.<kernel>.flops` counters, each row is annotated
//! with the kernel's achieved throughput (`flops / self_ns` — the units
//! cancel to GFLOP/s) on both sides, separating "the kernel did more
//! work" from "the kernel got slower at the same work".
//!
//! Used by `pathrep-doctor --perf-diff`.

use crate::gate::{BenchReport, WorkloadResult};
use pathrep_obs::selftime::leaf_of;
use std::collections::BTreeMap;

/// One span path's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// Full slash-separated span path.
    pub path: String,
    /// Baseline exclusive (self) nanoseconds; 0 when absent there.
    pub base_self_ns: u64,
    /// Current exclusive nanoseconds; 0 when absent here.
    pub cur_self_ns: u64,
    /// Achieved GFLOP/s of this span's leaf kernel in the baseline, when
    /// the workload recorded `work.<leaf>.flops` (wall-time-derived, so
    /// it lives here — never in the deterministic report body).
    pub base_gflops: Option<f64>,
    /// Achieved GFLOP/s in the current run.
    pub cur_gflops: Option<f64>,
}

impl SpanDelta {
    /// Signed self-time change in nanoseconds.
    pub fn delta_ns(&self) -> i128 {
        self.cur_self_ns as i128 - self.base_self_ns as i128
    }

    /// Relative self-time change (`+0.78` = +78 %); `None` when the span
    /// is new (no baseline self time to compare against).
    pub fn rel_change(&self) -> Option<f64> {
        if self.base_self_ns == 0 {
            None
        } else {
            Some(self.delta_ns() as f64 / self.base_self_ns as f64)
        }
    }
}

/// Attribution of one workload's wall-time change to its spans.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Workload name.
    pub workload: String,
    /// `current p50 / baseline p50`, when both sides exist.
    pub p50_ratio: Option<f64>,
    /// Span rows, biggest self-time increase first.
    pub rows: Vec<SpanDelta>,
}

/// Sums exclusive nanoseconds per leaf span name — the denominator for
/// kernel throughput, since `work.<kernel>.*` counters aggregate over
/// every path the kernel ran under.
fn leaf_self_ns(w: &WorkloadResult) -> BTreeMap<&str, u64> {
    let mut out: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &w.profile {
        *out.entry(leaf_of(&e.path)).or_insert(0) += e.self_ns;
    }
    out
}

/// `work.<leaf>.flops / Σ self_ns(leaf)`: flops per nanosecond, which is
/// numerically identical to GFLOP/s.
fn gflops(w: &WorkloadResult, leaves: &BTreeMap<&str, u64>, leaf: &str) -> Option<f64> {
    let flops = *w.counters.get(&format!("work.{leaf}.flops"))?;
    let ns = *leaves.get(leaf)?;
    if ns == 0 {
        return None;
    }
    Some(flops as f64 / ns as f64)
}

/// Joins two measurements of the same workload by span path and ranks the
/// rows by self-time increase (ties and decreases follow; a span present
/// on only one side joins against zero).
pub fn attribute_workload(baseline: &WorkloadResult, current: &WorkloadResult) -> Attribution {
    let base_leaves = leaf_self_ns(baseline);
    let cur_leaves = leaf_self_ns(current);
    let base_by_path: BTreeMap<&str, &pathrep_obs::selftime::ProfileEntry> = baseline
        .profile
        .iter()
        .map(|e| (e.path.as_str(), e))
        .collect();
    let mut rows = Vec::new();
    let mut seen: BTreeMap<&str, ()> = BTreeMap::new();
    for cur in &current.profile {
        seen.insert(cur.path.as_str(), ());
        let leaf = leaf_of(&cur.path);
        rows.push(SpanDelta {
            path: cur.path.clone(),
            base_self_ns: base_by_path.get(cur.path.as_str()).map_or(0, |e| e.self_ns),
            cur_self_ns: cur.self_ns,
            base_gflops: gflops(baseline, &base_leaves, leaf),
            cur_gflops: gflops(current, &cur_leaves, leaf),
        });
    }
    for base in &baseline.profile {
        if !seen.contains_key(base.path.as_str()) {
            rows.push(SpanDelta {
                path: base.path.clone(),
                base_self_ns: base.self_ns,
                cur_self_ns: 0,
                base_gflops: gflops(baseline, &base_leaves, leaf_of(&base.path)),
                cur_gflops: None,
            });
        }
    }
    rows.sort_by(|a, b| b.delta_ns().cmp(&a.delta_ns()));
    let p50_ratio = if baseline.p50_ms > 0.0 {
        Some(current.p50_ms / baseline.p50_ms)
    } else {
        None
    };
    Attribution {
        workload: current.name.clone(),
        p50_ratio,
        rows,
    }
}

/// Attributes every workload present in both reports (joined by name).
/// Workloads without a profile on either side produce an [`Attribution`]
/// with no rows — rendered as "no profile to attribute", never silently
/// dropped.
pub fn attribute_reports(baseline: &BenchReport, current: &BenchReport) -> Vec<Attribution> {
    let base_by_name: BTreeMap<&str, &WorkloadResult> = baseline
        .workloads
        .iter()
        .map(|w| (w.name.as_str(), w))
        .collect();
    current
        .workloads
        .iter()
        .filter_map(|cur| {
            base_by_name
                .get(cur.name.as_str())
                .map(|base| attribute_workload(base, cur))
        })
        .collect()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2} ms", ns as f64 / 1e6)
}

fn fmt_pct(rel: Option<f64>) -> String {
    match rel {
        Some(r) => format!("{:+.0} %", r * 100.0),
        None => "new".into(),
    }
}

/// Renders the `GFLOP/s base -> cur` annotation. A side without a
/// throughput figure (span absent from that profile, no `work.*.flops`
/// counter, or zero leaf self-time) reads `n/a`; only when *neither* side
/// has one is the annotation omitted. Non-finite values (a zero-ns leaf
/// sneaking through upstream) also read `n/a` rather than `inf`.
fn fmt_gflops_pair(base: Option<f64>, cur: Option<f64>, prefix: &str) -> String {
    let fmt = |g: Option<f64>| match g {
        Some(v) if v.is_finite() => format!("{v:.2}"),
        _ => "n/a".to_owned(),
    };
    match (base, cur) {
        (None, None) => String::new(),
        (b, c) => format!("{prefix}GFLOP/s {} -> {}", fmt(b), fmt(c)),
    }
}

/// Renders one workload's attribution: a causal headline naming the top
/// self-time mover, then the `top` biggest movers with their throughput
/// annotations.
pub fn render_attribution(a: &Attribution, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let p50 = match a.p50_ratio {
        Some(r) => format!("p50 {}", fmt_pct(Some(r - 1.0))),
        None => "p50 n/a".into(),
    };
    let movers: Vec<&SpanDelta> = a.rows.iter().filter(|r| r.delta_ns() != 0).collect();
    match movers.first() {
        None => {
            let _ = writeln!(
                out,
                "{} {p50} — no profile to attribute (profile-less baseline?)",
                a.workload
            );
            return out;
        }
        Some(lead) => {
            let gl = fmt_gflops_pair(lead.base_gflops, lead.cur_gflops, ", ");
            let _ = writeln!(
                out,
                "{} {p50} <= `{}` self-time {}{gl}",
                a.workload,
                lead.path,
                fmt_pct(lead.rel_change()),
            );
        }
    }
    for r in movers.iter().take(top) {
        let gl = fmt_gflops_pair(r.base_gflops, r.cur_gflops, "   ");
        let _ = writeln!(
            out,
            "    {:<44} self {:>10} -> {:>10} ({}){gl}",
            r.path,
            fmt_ms(r.base_self_ns),
            fmt_ms(r.cur_self_ns),
            fmt_pct(r.rel_change()),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrep_obs::selftime::ProfileEntry;

    fn entry(path: &str, self_ns: u64) -> ProfileEntry {
        ProfileEntry {
            path: path.to_owned(),
            count: 1,
            total_ns: self_ns,
            self_ns,
        }
    }

    fn workload(name: &str, p50: f64, profile: Vec<ProfileEntry>) -> WorkloadResult {
        WorkloadResult {
            name: name.to_owned(),
            p50_ms: p50,
            p95_ms: p50 * 1.2,
            p999_ms: None,
            rows_per_sec: None,
            counters: BTreeMap::new(),
            profile,
        }
    }

    #[test]
    fn biggest_self_time_increase_ranks_first() {
        let base = workload(
            "exact_medium",
            100.0,
            vec![
                entry("exact_select", 1_000_000),
                entry("exact_select/qr_factor", 10_000_000),
                entry("exact_select/svd", 5_000_000),
            ],
        );
        let mut cur = base.clone();
        cur.p50_ms = 131.0;
        cur.profile[1].self_ns = 17_800_000; // qr_factor +78 %
        cur.profile[2].self_ns = 5_500_000; // svd +10 %
        let a = attribute_workload(&base, &cur);
        assert_eq!(a.rows[0].path, "exact_select/qr_factor");
        assert_eq!(a.rows[0].rel_change(), Some(0.78));
        let text = render_attribution(&a, 3);
        assert!(
            text.starts_with("exact_medium p50 +31 % <= `exact_select/qr_factor` self-time +78 %"),
            "{text}"
        );
    }

    #[test]
    fn gflops_annotation_joins_work_counters_to_leaf_self_time() {
        let mut base = workload(
            "w",
            10.0,
            vec![entry("sel/qr_factor", 1_000_000), entry("sel", 500_000)],
        );
        base.counters
            .insert("work.qr_factor.flops".into(), 2_100_000);
        let mut cur = base.clone();
        cur.profile[0].self_ns = 2_000_000; // same flops, twice the time
        let a = attribute_workload(&base, &cur);
        let row = &a.rows[0];
        assert_eq!(row.path, "sel/qr_factor");
        // 2.1e6 flops / 1e6 ns = 2.1 GFLOP/s; halved when time doubles.
        assert_eq!(row.base_gflops, Some(2.1));
        assert_eq!(row.cur_gflops, Some(1.05));
        assert!(render_attribution(&a, 3).contains("GFLOP/s 2.10 -> 1.05"));
    }

    #[test]
    fn one_sided_spans_join_against_zero() {
        let base = workload("w", 10.0, vec![entry("old_span", 1_000)]);
        let cur = workload("w", 10.0, vec![entry("new_span", 2_000)]);
        let a = attribute_workload(&base, &cur);
        assert_eq!(a.rows.len(), 2);
        assert_eq!(a.rows[0].path, "new_span");
        assert_eq!(a.rows[0].rel_change(), None, "new span has no baseline");
        assert_eq!(a.rows[1].path, "old_span");
        assert_eq!(a.rows[1].delta_ns(), -1_000);
    }

    #[test]
    fn injected_slowdown_on_new_span_renders_na_annotation() {
        // A slowed-down span against a baseline that predates it: the
        // kernel exists only in the current profile, with its work counter. The annotation must read
        // `n/a -> X`, not silently vanish (the pre-fix behavior).
        let base = workload("w", 10.0, vec![entry("sel", 500_000)]);
        let mut cur = workload(
            "w",
            20.0,
            vec![entry("sel", 500_000), entry("sel/spmm", 2_000_000)],
        );
        cur.counters.insert("work.spmm.flops".into(), 4_200_000);
        let a = attribute_workload(&base, &cur);
        let row = a.rows.iter().find(|r| r.path == "sel/spmm").unwrap();
        assert_eq!(row.base_gflops, None, "span absent from baseline profile");
        assert_eq!(row.cur_gflops, Some(2.1));
        let text = render_attribution(&a, 3);
        assert!(text.contains("GFLOP/s n/a -> 2.10"), "{text}");
        // And symmetrically for a span that disappeared: the baseline-side
        // figure must survive with `n/a` on the current side.
        let b = attribute_workload(&cur, &base);
        let text = render_attribution(&b, 3);
        assert!(text.contains("GFLOP/s 2.10 -> n/a"), "{text}");
    }

    #[test]
    fn zero_leaf_self_time_renders_na_not_inf() {
        // A kernel whose every occurrence recorded 0 ns of self time (all
        // time attributed to children) has no meaningful throughput:
        // flops/0 must render `n/a`, never `inf`.
        let mut base = workload("w", 10.0, vec![entry("sel/svd", 1_000_000)]);
        base.counters.insert("work.svd.flops".into(), 1_000_000);
        let mut cur = base.clone();
        cur.profile[0].self_ns = 0;
        let a = attribute_workload(&base, &cur);
        let row = &a.rows[0];
        assert_eq!(row.cur_gflops, None, "zero self-time has no throughput");
        let text = render_attribution(&a, 3);
        assert!(text.contains("GFLOP/s 1.00 -> n/a"), "{text}");
        assert!(!text.contains("inf"), "{text}");
    }

    #[test]
    fn profile_less_workloads_say_so() {
        let base = workload("w", 10.0, vec![]);
        let cur = workload("w", 12.0, vec![]);
        let a = attribute_workload(&base, &cur);
        assert!(render_attribution(&a, 3).contains("no profile to attribute"));
    }
}
