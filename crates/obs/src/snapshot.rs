//! Plain-data snapshots of the registry, with text-tree and JSON
//! renderings.

use crate::json::{self, JsonValue};
use crate::registry::SpanStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One span path aggregated over all its executions, with children.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Leaf name (last path component).
    pub name: String,
    /// Full slash-separated path.
    pub path: String,
    /// Number of completed executions.
    pub count: u64,
    /// Total wall-clock nanoseconds across executions.
    pub total_ns: u128,
    /// Fastest execution (ns).
    pub min_ns: u64,
    /// Slowest execution (ns).
    pub max_ns: u64,
    /// Child spans, sorted by path.
    pub children: Vec<SpanNode>,
}

/// A monotonic counter's value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A gauge's last-written value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Gauge name.
    pub name: String,
    /// Last value set.
    pub value: f64,
}

/// A histogram's buckets and summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Ascending bucket edges; bucket `i` counts values `≤ edges[i]`
    /// (and above `edges[i-1]`), with one final overflow bucket.
    pub edges: Vec<f64>,
    /// Per-bucket counts (`edges.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (0 when empty).
    pub min: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation within the snapshot's bucket edges: the target rank is
    /// located in the cumulative bucket counts and interpolated between
    /// the bucket's bounds (clamped to the observed `min`/`max`, which
    /// also bound the open-ended first bucket). Exact extremes short-cut
    /// interpolation: `q = 0` is `min`, `q = 1` is `max`, and a
    /// single-value or constant histogram returns that value. A quantile
    /// landing in the unbounded overflow bucket returns the bucket's
    /// lower bound rather than interpolating toward `max` — one outlier
    /// must not drag every tail quantile up with it. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        if self.count == 1 || self.min == self.max {
            return self.min;
        }
        let target = q * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = below + c;
            if upto as f64 >= target {
                let lower = if i == 0 {
                    self.min
                } else {
                    self.edges[i - 1].max(self.min)
                };
                if i >= self.edges.len() {
                    // Overflow bucket `(last_edge, +inf)`: its only known
                    // upper bound is `max`, so interpolating would let a
                    // single outlier skew every quantile landing here.
                    // Report the conservative lower bound instead.
                    return lower.min(self.max);
                }
                let upper = self.edges[i].min(self.max);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lower + frac * (upper - lower);
            }
            below = upto;
        }
        self.max
    }
}

/// A recorded event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventSnapshot {
    /// `"info"` or `"warn"`.
    pub level: String,
    /// Stable event name.
    pub name: String,
    /// Details.
    pub message: String,
}

/// A consistent point-in-time copy of every metric in the registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Root spans (no open parent at record time), sorted by path.
    pub spans: Vec<SpanNode>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Events in record order (capped; see
    /// [`crate::registry::MAX_EVENTS`]).
    pub events: Vec<EventSnapshot>,
    /// Events discarded after the cap was hit.
    pub events_dropped: u64,
}

/// Assembles the flat path → stats map into a forest. A child path whose
/// parent was never recorded directly (possible when only inner spans
/// fired) gets a synthetic zero-count parent node.
pub(crate) fn build_span_tree(flat: &BTreeMap<String, SpanStats>) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    for (path, stats) in flat {
        insert_node(&mut roots, path, path, stats);
    }
    roots
}

fn insert_node(level: &mut Vec<SpanNode>, full_path: &str, rest: &str, stats: &SpanStats) {
    let (head, tail) = match rest.split_once('/') {
        Some((h, t)) => (h, Some(t)),
        None => (rest, None),
    };
    let head_path = &full_path[..full_path.len() - rest.len() + head.len()];
    let node = match level.iter_mut().find(|n| n.name == head) {
        Some(n) => n,
        None => {
            level.push(SpanNode {
                name: head.to_owned(),
                path: head_path.to_owned(),
                count: 0,
                total_ns: 0,
                min_ns: 0,
                max_ns: 0,
                children: Vec::new(),
            });
            level.last_mut().expect("just pushed")
        }
    };
    match tail {
        None => {
            node.count = stats.count;
            node.total_ns = stats.total_ns;
            node.min_ns = stats.min_ns;
            node.max_ns = stats.max_ns;
        }
        Some(t) => insert_node(&mut node.children, full_path, t, stats),
    }
}

fn fmt_ns(ns: u128) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

impl Snapshot {
    /// Renders the snapshot as an indented text report: the span tree
    /// first, then counters, gauges, histograms and events.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for root in &self.spans {
                render_span(&mut out, root, 1);
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<44} {}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for g in &self.gauges {
                let _ = writeln!(out, "  {:<44} {}", g.name, g.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<44} n={} min={:.3e} max={:.3e} mean={:.3e} \
                     p50={:.3e} p95={:.3e} p99={:.3e}",
                    h.name,
                    h.count,
                    h.min,
                    h.max,
                    if h.count > 0 { h.sum / h.count as f64 } else { 0.0 },
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                );
            }
        }
        if !self.events.is_empty() || self.events_dropped > 0 {
            out.push_str("events:\n");
            for e in &self.events {
                let _ = writeln!(out, "  [{}] {}: {}", e.level, e.name, e.message);
            }
        }
        if self.events_dropped > 0 {
            let _ = writeln!(
                out,
                "events_dropped: {}\n  [warn] obs.events.dropped: event buffer \
                 saturated (cap {}) — {} later events were discarded",
                self.events_dropped,
                crate::MAX_EVENTS,
                self.events_dropped,
            );
        }
        out
    }

    /// Serializes the snapshot to a single-line JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a snapshot back from [`Snapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_value(&json::parse(text)?)
    }

    fn to_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "spans".into(),
                JsonValue::Array(self.spans.iter().map(span_to_value).collect()),
            ),
            (
                "counters".into(),
                JsonValue::Array(
                    self.counters
                        .iter()
                        .map(|c| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::String(c.name.clone())),
                                ("value".into(), JsonValue::Number(c.value as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                JsonValue::Array(
                    self.gauges
                        .iter()
                        .map(|g| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::String(g.name.clone())),
                                ("value".into(), JsonValue::Number(g.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                JsonValue::Array(
                    self.histograms
                        .iter()
                        .map(|h| {
                            JsonValue::Object(vec![
                                ("name".into(), JsonValue::String(h.name.clone())),
                                (
                                    "edges".into(),
                                    JsonValue::Array(
                                        h.edges.iter().map(|&e| JsonValue::Number(e)).collect(),
                                    ),
                                ),
                                (
                                    "counts".into(),
                                    JsonValue::Array(
                                        h.counts
                                            .iter()
                                            .map(|&c| JsonValue::Number(c as f64))
                                            .collect(),
                                    ),
                                ),
                                ("count".into(), JsonValue::Number(h.count as f64)),
                                ("sum".into(), JsonValue::Number(h.sum)),
                                ("min".into(), JsonValue::Number(h.min)),
                                ("max".into(), JsonValue::Number(h.max)),
                                // Derived quantile estimates; from_json
                                // recomputes nothing and ignores them.
                                ("p50".into(), JsonValue::Number(h.quantile(0.50))),
                                ("p95".into(), JsonValue::Number(h.quantile(0.95))),
                                ("p99".into(), JsonValue::Number(h.quantile(0.99))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "events".into(),
                JsonValue::Array(
                    self.events
                        .iter()
                        .map(|e| {
                            JsonValue::Object(vec![
                                ("level".into(), JsonValue::String(e.level.clone())),
                                ("name".into(), JsonValue::String(e.name.clone())),
                                ("message".into(), JsonValue::String(e.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "events_dropped".into(),
                JsonValue::Number(self.events_dropped as f64),
            ),
        ])
    }

    fn from_value(v: &JsonValue) -> Result<Snapshot, String> {
        Ok(Snapshot {
            spans: v
                .field("spans")?
                .array()?
                .iter()
                .map(span_from_value)
                .collect::<Result<_, _>>()?,
            counters: v
                .field("counters")?
                .array()?
                .iter()
                .map(|c| {
                    Ok(CounterSnapshot {
                        name: c.field("name")?.string()?,
                        value: c.field("value")?.number()? as u64,
                    })
                })
                .collect::<Result<_, String>>()?,
            gauges: v
                .field("gauges")?
                .array()?
                .iter()
                .map(|g| {
                    Ok(GaugeSnapshot {
                        name: g.field("name")?.string()?,
                        value: g.field("value")?.number()?,
                    })
                })
                .collect::<Result<_, String>>()?,
            histograms: v
                .field("histograms")?
                .array()?
                .iter()
                .map(|h| {
                    Ok(HistogramSnapshot {
                        name: h.field("name")?.string()?,
                        edges: h.field("edges")?.number_array()?,
                        counts: h
                            .field("counts")?
                            .number_array()?
                            .into_iter()
                            .map(|x| x as u64)
                            .collect(),
                        count: h.field("count")?.number()? as u64,
                        sum: h.field("sum")?.number()?,
                        min: h.field("min")?.number()?,
                        max: h.field("max")?.number()?,
                    })
                })
                .collect::<Result<_, String>>()?,
            events: v
                .field("events")?
                .array()?
                .iter()
                .map(|e| {
                    Ok(EventSnapshot {
                        level: e.field("level")?.string()?,
                        name: e.field("name")?.string()?,
                        message: e.field("message")?.string()?,
                    })
                })
                .collect::<Result<_, String>>()?,
            events_dropped: v.field("events_dropped")?.number()? as u64,
        })
    }
}

fn span_to_value(n: &SpanNode) -> JsonValue {
    JsonValue::Object(vec![
        ("name".into(), JsonValue::String(n.name.clone())),
        ("path".into(), JsonValue::String(n.path.clone())),
        ("count".into(), JsonValue::Number(n.count as f64)),
        ("total_ns".into(), JsonValue::Number(n.total_ns as f64)),
        ("min_ns".into(), JsonValue::Number(n.min_ns as f64)),
        ("max_ns".into(), JsonValue::Number(n.max_ns as f64)),
        (
            "children".into(),
            JsonValue::Array(n.children.iter().map(span_to_value).collect()),
        ),
    ])
}

fn span_from_value(v: &JsonValue) -> Result<SpanNode, String> {
    Ok(SpanNode {
        name: v.field("name")?.string()?,
        path: v.field("path")?.string()?,
        count: v.field("count")?.number()? as u64,
        total_ns: v.field("total_ns")?.number()? as u128,
        min_ns: v.field("min_ns")?.number()? as u64,
        max_ns: v.field("max_ns")?.number()? as u64,
        children: v
            .field("children")?
            .array()?
            .iter()
            .map(span_from_value)
            .collect::<Result<_, _>>()?,
    })
}

fn render_span(out: &mut String, node: &SpanNode, depth: usize) {
    let indent = "  ".repeat(depth);
    if node.count == 0 {
        let _ = writeln!(out, "{indent}{}", node.name);
    } else if node.count == 1 {
        let _ = writeln!(out, "{indent}{:<30} {}", node.name, fmt_ns(node.total_ns));
    } else {
        let _ = writeln!(
            out,
            "{indent}{:<30} {} total / {} calls (min {}, max {})",
            node.name,
            fmt_ns(node.total_ns),
            node.count,
            fmt_ns(node.min_ns as u128),
            fmt_ns(node.max_ns as u128),
        );
    }
    for child in &node.children {
        render_span(out, child, depth + 1);
    }
}
