//! The global metric store.

use crate::hdr::HdrHistogram;
use crate::snapshot::{
    CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot,
};
use crate::work::WorkTally;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Cap on stored events so a pathological loop cannot grow memory
/// unboundedly; later events only bump the drop counter.
pub const MAX_EVENTS: usize = 256;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Informational.
    Info,
    /// Something needing attention (e.g. an unconverged solver).
    Warn,
}

impl Level {
    /// Stable string form used in snapshots and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// A recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Stable event name (e.g. `"convopt.admm.unconverged"`).
    pub name: &'static str,
    /// Human-readable details.
    pub message: String,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct SpanStats {
    pub count: u64,
    pub total_ns: u128,
    pub min_ns: u64,
    pub max_ns: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    /// Log-bucketed HDR histograms (see [`crate::hdr`]).
    histograms: BTreeMap<&'static str, HdrHistogram>,
    /// Aggregated span statistics keyed by full slash path.
    spans: BTreeMap<String, SpanStats>,
    events: Vec<Event>,
    events_dropped: u64,
    /// Deterministic kernel work tallies (see [`crate::work`]), keyed by
    /// kernel name; materialized as `work.<kernel>.*` counters in
    /// snapshots.
    work: BTreeMap<&'static str, WorkTally>,
}

/// Global, thread-safe store of every recorded metric.
///
/// All mutation goes through the free functions in the crate root
/// ([`crate::counter_add`], [`crate::span!`], …), which bail out in one
/// atomic load when collection is disabled; the registry itself is the
/// slow path behind that check.
pub struct Registry {
    inner: Mutex<Inner>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        inner: Mutex::new(Inner::default()),
    })
}

impl Registry {
    pub(crate) fn counter_add_slow(&self, name: &'static str, delta: u64) {
        let mut g = self.inner.lock();
        *g.counters.entry(name).or_insert(0) += delta;
    }

    /// Merges a thread's drained work tallies under one lock acquisition
    /// (the flush half of the [`crate::work`] accumulator).
    pub(crate) fn work_merge_slow(&self, drained: &[(&'static str, WorkTally)]) {
        let mut g = self.inner.lock();
        for &(kernel, tally) in drained {
            g.work.entry(kernel).or_default().add(tally);
        }
    }

    pub(crate) fn gauge_set_slow(&self, name: &'static str, value: f64) {
        self.inner.lock().gauges.insert(name, value);
    }

    pub(crate) fn histogram_record_slow(&self, name: &'static str, value: f64) {
        self.inner
            .lock()
            .histograms
            .entry(name)
            .or_insert_with(HdrHistogram::new)
            .record(value);
    }

    pub(crate) fn span_record(&self, path: &str, duration_ns: u64) {
        let mut g = self.inner.lock();
        match g.spans.get_mut(path) {
            Some(s) => {
                s.count += 1;
                s.total_ns += duration_ns as u128;
                s.min_ns = s.min_ns.min(duration_ns);
                s.max_ns = s.max_ns.max(duration_ns);
            }
            None => {
                g.spans.insert(
                    path.to_owned(),
                    SpanStats {
                        count: 1,
                        total_ns: duration_ns as u128,
                        min_ns: duration_ns,
                        max_ns: duration_ns,
                    },
                );
            }
        }
    }

    pub(crate) fn event_slow(&self, level: Level, name: &'static str, message: String) {
        let mut g = self.inner.lock();
        if g.events.len() < MAX_EVENTS {
            g.events.push(Event {
                level,
                name,
                message,
            });
        } else {
            g.events_dropped += 1;
        }
    }

    /// Clears every stored metric.
    pub fn reset(&self) {
        let mut g = self.inner.lock();
        *g = Inner::default();
    }

    /// Takes a consistent point-in-time copy of every metric as plain
    /// data, with spans assembled into their hierarchy.
    pub fn snapshot(&self) -> Snapshot {
        // Flush this thread's pending work tallies first (before taking
        // the registry lock — the flush acquires it itself), so span-less
        // kernel calls on the snapshotting thread are not lost.
        crate::work::flush();
        let g = self.inner.lock();
        let mut counters: Vec<CounterSnapshot> = g
            .counters
            .iter()
            .map(|(&name, &value)| CounterSnapshot {
                name: name.to_owned(),
                value,
            })
            .collect();
        // Work tallies materialize as three counters per kernel, merged
        // into the sorted counter list so Prometheus export and the bench
        // counter cross-checks pick them up with no special casing.
        for (&kernel, tally) in &g.work {
            counters.push(CounterSnapshot {
                name: format!("work.{kernel}.flops"),
                value: tally.flops,
            });
            counters.push(CounterSnapshot {
                name: format!("work.{kernel}.bytes"),
                value: tally.bytes,
            });
            counters.push(CounterSnapshot {
                name: format!("work.{kernel}.elements"),
                value: tally.elements,
            });
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let gauges = g
            .gauges
            .iter()
            .map(|(&name, &value)| GaugeSnapshot {
                name: name.to_owned(),
                value,
            })
            .collect();
        let histograms: Vec<HistogramSnapshot> = g
            .histograms
            .iter()
            .map(|(&name, h)| h.snapshot(name))
            .collect();
        let events = g
            .events
            .iter()
            .map(|e| EventSnapshot {
                level: e.level.as_str().to_owned(),
                name: e.name.to_owned(),
                message: e.message.clone(),
            })
            .collect();
        Snapshot {
            spans: crate::snapshot::build_span_tree(&g.spans),
            counters,
            gauges,
            histograms,
            events,
            events_dropped: g.events_dropped,
        }
    }
}
