//! Prometheus text exposition rendering of a [`Snapshot`].
//!
//! [`render_prometheus`] turns every section of a snapshot into the
//! Prometheus text exposition format (version 0.0.4): counters become
//! `counter` families, gauges `gauge`, histograms `histogram` with
//! cumulative `_bucket` series (`le` labels from the snapshot bucket edges)
//! plus `_sum`/`_count`, and span aggregates become two labelled counter
//! families. Metric names are sanitized to `[a-zA-Z_][a-zA-Z0-9_]*` and
//! prefixed `pathrep_` so they scrape cleanly next to other exporters.

use crate::snapshot::{HistogramSnapshot, Snapshot, SpanNode};
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

fn render_histogram(out: &mut String, h: &HistogramSnapshot) {
    let name = sanitize_name(&h.name);
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        cumulative += c;
        let le = h.edges.get(i).map_or_else(|| "+Inf".to_owned(), |&e| fmt_value(e));
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
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
        render_histogram(&mut out, h);
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
}
