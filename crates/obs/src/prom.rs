//! Prometheus text exposition rendering of a [`Snapshot`].
//!
//! [`render_prometheus`] turns every section of a snapshot into the
//! Prometheus text exposition format (version 0.0.4): counters become
//! `counter` families, gauges `gauge`, histograms `histogram` with
//! cumulative `_bucket` series (`le` labels from the snapshot bucket edges)
//! plus `_sum`/`_count`, and span aggregates become two labelled counter
//! families. Metric names are sanitized to `[a-zA-Z_][a-zA-Z0-9_]*` and
//! prefixed `pathrep_` so they scrape cleanly next to other exporters.

use crate::snapshot::{ExemplarSnapshot, HistogramSnapshot, Snapshot, SpanNode};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps a dotted metric name (`"linalg.svd.qr_sweeps"`) onto a valid
/// Prometheus metric name (`"pathrep_linalg_svd_qr_sweeps"`): every
/// character outside `[a-zA-Z0-9_]` becomes `_`, and the `pathrep_` prefix
/// guarantees a legal leading character.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("pathrep_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value: integers render without a fraction, everything
/// else with enough digits to round-trip.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        // The exposition format does allow +Inf/-Inf/NaN.
        if v.is_nan() {
            "NaN".to_owned()
        } else if v > 0.0 {
            "+Inf".to_owned()
        } else {
            "-Inf".to_owned()
        }
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.17e}")
    }
}

fn render_histogram(out: &mut String, h: &HistogramSnapshot, exemplars: &[&ExemplarSnapshot]) {
    let name = sanitize_name(&h.name);
    // Attach each exemplar to the first bucket that contains its value
    // (OpenMetrics `# {labels} value` suffix syntax); one per bucket,
    // slowest first since `exemplars` arrives sorted descending.
    let mut by_bucket: BTreeMap<usize, &ExemplarSnapshot> = BTreeMap::new();
    for x in exemplars {
        let idx = h
            .edges
            .iter()
            .position(|&e| x.value <= e)
            .unwrap_or(h.edges.len());
        by_bucket.entry(idx).or_insert(x);
    }
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        cumulative += c;
        let exemplar = match by_bucket.get(&i) {
            Some(x) => format!(
                " # {{trace_id=\"{}\",request_seq=\"{}\"}} {}",
                x.trace_id,
                x.request_seq,
                fmt_value(x.value)
            ),
            None => String::new(),
        };
        if i < h.edges.len() {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}{exemplar}",
                fmt_value(h.edges[i])
            );
        } else {
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}{exemplar}");
        }
    }
    let _ = writeln!(out, "{name}_sum {}", fmt_value(h.sum));
    let _ = writeln!(out, "{name}_count {}", h.count);
    // Observed extremes as companion gauges: the cumulative buckets bound
    // quantiles but cannot recover the exact min/max a scrape-side alert
    // on "worst request so far" needs.
    let _ = writeln!(out, "# TYPE {name}_min gauge");
    let _ = writeln!(out, "{name}_min {}", fmt_value(h.min));
    let _ = writeln!(out, "# TYPE {name}_max gauge");
    let _ = writeln!(out, "{name}_max {}", fmt_value(h.max));
}

fn collect_spans<'a>(nodes: &'a [SpanNode], into: &mut Vec<&'a SpanNode>) {
    for n in nodes {
        if n.count > 0 {
            into.push(n);
        }
        collect_spans(&n.children, into);
    }
}

/// Renders `snap` in the Prometheus text exposition format.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let name = sanitize_name(&c.name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", c.value);
    }
    for g in &snap.gauges {
        let name = sanitize_name(&g.name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_value(g.value));
    }
    for h in &snap.histograms {
        let exemplars: Vec<&ExemplarSnapshot> = snap
            .exemplars
            .iter()
            .filter(|x| x.histogram == h.name)
            .collect();
        render_histogram(&mut out, h, &exemplars);
    }
    let mut spans = Vec::new();
    collect_spans(&snap.spans, &mut spans);
    if !spans.is_empty() {
        let _ = writeln!(out, "# TYPE pathrep_span_calls_total counter");
        for s in &spans {
            let _ = writeln!(
                out,
                "pathrep_span_calls_total{{path=\"{}\"}} {}",
                escape_label(&s.path),
                s.count
            );
        }
        let _ = writeln!(out, "# TYPE pathrep_span_duration_ns_total counter");
        for s in &spans {
            let _ = writeln!(
                out,
                "pathrep_span_duration_ns_total{{path=\"{}\"}} {}",
                escape_label(&s.path),
                s.total_ns
            );
        }
    }
    let _ = writeln!(out, "# TYPE pathrep_events_dropped_total counter");
    let _ = writeln!(out, "pathrep_events_dropped_total {}", snap.events_dropped);
    out
}

/// Renders the sliding-window deltas (see [`crate::window`]) as
/// `window`-labelled gauge families: `pathrep_<name>_rate` per-second
/// rates for counters and HDR histograms, plus windowed
/// `pathrep_<name>_p50/p99/p999` quantile gauges for the histograms.
/// Appended to `/metrics` after the cumulative families.
pub fn render_windowed(windows: &[crate::window::WindowRates]) -> String {
    // family name -> (window label, value); grouping by family keeps one
    // `# TYPE` line per family across the three windows.
    let mut families: BTreeMap<String, Vec<(&str, f64)>> = BTreeMap::new();
    for w in windows {
        for (name, _delta, rate) in &w.counters {
            families
                .entry(format!("{}_rate", sanitize_name(name)))
                .or_default()
                .push((w.label, *rate));
        }
        for h in &w.histograms {
            let base = sanitize_name(&h.name);
            families
                .entry(format!("{base}_rate"))
                .or_default()
                .push((w.label, h.rate));
            for (q, suffix) in [(0.50, "p50"), (0.99, "p99"), (0.999, "p999")] {
                families
                    .entry(format!("{base}_{suffix}"))
                    .or_default()
                    .push((w.label, h.delta.quantile(q)));
            }
        }
    }
    let mut out = String::new();
    for (family, rows) in families {
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (label, value) in rows {
            let _ = writeln!(out, "{family}{{window=\"{label}\"}} {}", fmt_value(value));
        }
    }
    out
}

/// Writes [`render_prometheus`] output for `snap` to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_prometheus(path: &str, snap: &Snapshot) -> std::io::Result<()> {
    std::fs::write(path, render_prometheus(snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(
            sanitize_name("linalg.svd.qr-sweeps"),
            "pathrep_linalg_svd_qr_sweeps"
        );
        assert_eq!(sanitize_name("0weird"), "pathrep_0weird");
    }

    #[test]
    fn values_render_plainly() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert!(fmt_value(0.1).starts_with("1.0000000000000000"));
    }

    #[test]
    fn exemplars_attach_to_their_bucket_in_openmetrics_syntax() {
        use crate::snapshot::{ExemplarSnapshot, HistogramSnapshot};
        let h = HistogramSnapshot {
            name: "serve.request_ns".into(),
            edges: vec![1.0e6, 1.0e7],
            counts: vec![5, 2, 1],
            count: 8,
            sum: 2.0e7,
            min: 1.0e5,
            max: 2.0e7,
        };
        let x = ExemplarSnapshot {
            histogram: "serve.request_ns".into(),
            value: 5.0e6,
            trace_id: 9000,
            request_seq: 3,
        };
        let mut out = String::new();
        render_histogram(&mut out, &h, &[&x]);
        let line = out
            .lines()
            .find(|l| l.contains("trace_id=\"9000\""))
            .expect("exemplar rendered");
        // The 5e6 exemplar belongs to the (1e6, 1e7] bucket.
        assert!(line.starts_with("pathrep_serve_request_ns_bucket{le=\"10000000\"}"), "{line}");
        assert!(line.contains("# {trace_id=\"9000\",request_seq=\"3\"} 5000000"), "{line}");
        // Without exemplars the output is byte-identical to the classic form.
        let mut plain = String::new();
        render_histogram(&mut plain, &h, &[]);
        assert!(!plain.contains('#') || plain.contains("# TYPE"), "{plain}");
    }

    #[test]
    fn windowed_families_render_one_type_line_per_family() {
        use crate::hdr::HdrHistogram;
        use crate::window::{WindowHistogram, WindowRates};
        let mut h = HdrHistogram::new();
        for _ in 0..10 {
            h.record(2.0e6);
        }
        let mk = |label: &'static str, secs: u64| WindowRates {
            label,
            secs,
            elapsed_s: secs as f64,
            counters: vec![("serve.requests".into(), 10 * secs, 10.0)],
            histograms: vec![WindowHistogram {
                name: "serve.request_ns".into(),
                delta: h.clone(),
                rate: 10.0 / secs as f64,
            }],
            exemplars: Vec::new(),
        };
        let out = render_windowed(&[mk("1s", 1), mk("10s", 10)]);
        assert_eq!(
            out.matches("# TYPE pathrep_serve_requests_rate gauge").count(),
            1
        );
        assert!(out.contains("pathrep_serve_requests_rate{window=\"1s\"} 10"), "{out}");
        assert!(out.contains("pathrep_serve_requests_rate{window=\"10s\"} 10"), "{out}");
        assert!(out.contains("pathrep_serve_request_ns_p999{window=\"1s\"}"), "{out}");
        assert!(out.contains("pathrep_serve_request_ns_rate{window=\"10s\"} 1\n"), "{out}");
    }
}
