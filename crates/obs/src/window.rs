//! Sliding 1 s / 10 s / 60 s windows over the registry's counters and
//! HDR histograms.
//!
//! Cumulative counters answer "how many ever"; an SLO or a load-shedding
//! policy needs "how many in the last ten seconds". This module keeps a
//! ring of cumulative per-epoch samples, taken at ~1 Hz by a background
//! sampler thread ([`ensure_sampler`], started with the live HTTP plane)
//! or explicitly by tests ([`sample_now`]). A window readout subtracts
//! the sample closest to *w* seconds old from a fresh capture — counters
//! by integer subtraction, HDR histograms through
//! [`HdrHistogram::diff`] — so the merge cost is paid on read, never on
//! the recording hot path (recording stays exactly as cheap as before:
//! the sampler is just another reader).
//!
//! Each epoch sample also carries the trace exemplars drained from the
//! registry that epoch; [`merged_exemplars`] re-merges the ring so
//! `/snapshot.json` and `/slo.json` report the top-K slowest traced
//! observations over the last minute, not just since the last scrape.

use crate::hdr::HdrHistogram;
use crate::snapshot::ExemplarSnapshot;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The exported window lengths (seconds, label).
pub const WINDOWS: &[(u64, &str)] = &[(1, "1s"), (10, "10s"), (60, "60s")];

/// Ring capacity: enough 1 Hz epochs to cover the longest window with
/// slack for sampler jitter.
const RING_CAP: usize = 64;

/// One cumulative sample of the windowable registry state.
#[derive(Debug, Clone)]
pub struct WindowCapture {
    /// Monotonic nanoseconds (trace epoch) the sample was taken at.
    pub at_ns: u64,
    /// Cumulative counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Cumulative HDR histograms by name.
    pub hdr: BTreeMap<String, HdrHistogram>,
    /// Exemplars owned by this sample (drained from the registry at
    /// epoch-sample time; the registry's current set on read captures).
    pub exemplars: Vec<ExemplarSnapshot>,
}

struct State {
    samples: VecDeque<WindowCapture>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            samples: VecDeque::new(),
        })
    })
}

/// Takes one epoch sample now: captures the registry (draining its
/// exemplars into the sample) and pushes it onto the ring. Called at
/// ~1 Hz by the sampler thread; tests call it directly to advance epochs
/// deterministically.
pub fn sample_now() {
    let cap = crate::registry().window_capture(true);
    let mut g = state().lock();
    while g.samples.len() >= RING_CAP {
        g.samples.pop_front();
    }
    g.samples.push_back(cap);
}

/// Clears the epoch ring (paired with [`crate::reset`]).
pub fn reset() {
    state().lock().samples.clear();
}

/// Starts the 1 Hz epoch sampler thread once per process. Idempotent and
/// detached — a telemetry sampler has no work to drain at exit. The live
/// HTTP plane calls this on start so any process with a scrape endpoint
/// gets windows; headless embedders may call it directly.
pub fn ensure_sampler() {
    static STARTED: AtomicBool = AtomicBool::new(false);
    if STARTED.swap(true, Ordering::SeqCst) {
        return;
    }
    let spawned = std::thread::Builder::new()
        .name("pathrep-obs-window".into())
        .spawn(|| {
            sample_now(); // an immediate base sample so early reads have a floor
            loop {
                std::thread::sleep(std::time::Duration::from_secs(1));
                sample_now();
            }
        });
    if spawned.is_err() {
        STARTED.store(false, Ordering::SeqCst);
    }
}

/// One histogram's delta over a window.
#[derive(Debug, Clone)]
pub struct WindowHistogram {
    /// Histogram name (dotted registry name).
    pub name: String,
    /// Counts accumulated within the window.
    pub delta: HdrHistogram,
    /// Observations per second over the window.
    pub rate: f64,
}

/// All deltas for one window length.
#[derive(Debug, Clone)]
pub struct WindowRates {
    /// Window label (`"1s"`, `"10s"`, `"60s"`).
    pub label: &'static str,
    /// Nominal window length in seconds.
    pub secs: u64,
    /// Actual elapsed seconds between the base sample and now (shorter
    /// than `secs` while the process is younger than the window).
    pub elapsed_s: f64,
    /// Per-counter `(name, delta, rate per second)` over the window.
    pub counters: Vec<(String, u64, f64)>,
    /// Per-HDR-histogram deltas over the window.
    pub histograms: Vec<WindowHistogram>,
    /// Exemplars observed within the window, descending by value.
    pub exemplars: Vec<ExemplarSnapshot>,
}

/// Merges exemplar lists keeping the top-[`crate::registry::EXEMPLAR_K`]
/// per histogram, descending by value.
fn merge_exemplar_sets(mut all: Vec<ExemplarSnapshot>) -> Vec<ExemplarSnapshot> {
    all.sort_by(|a, b| {
        a.histogram
            .cmp(&b.histogram)
            .then(b.value.total_cmp(&a.value))
            .then(a.trace_id.cmp(&b.trace_id))
    });
    // Drop duplicates (same observation captured in two samples) and
    // excess beyond K per histogram.
    let mut out: Vec<ExemplarSnapshot> = Vec::new();
    let mut kept = 0usize;
    for x in all {
        match out.last() {
            Some(prev) if prev.histogram == x.histogram => {
                if prev.trace_id == x.trace_id && prev.value == x.value {
                    continue;
                }
                if kept >= crate::registry::EXEMPLAR_K {
                    continue;
                }
            }
            _ => kept = 0,
        }
        kept += 1;
        out.push(x);
    }
    out
}

/// The top-K exemplars over the last [`WINDOWS`]-max seconds: the ring's
/// per-epoch exemplars merged with `current` (the registry's undrained
/// set). Used for `/snapshot.json`.
pub fn merged_exemplars(current: Vec<ExemplarSnapshot>) -> Vec<ExemplarSnapshot> {
    let horizon_ns = WINDOWS.iter().map(|&(s, _)| s).max().unwrap_or(60) * 1_000_000_000;
    let now_ns = crate::trace::now_ns();
    let mut all = current;
    let g = state().lock();
    for s in &g.samples {
        if now_ns.saturating_sub(s.at_ns) <= horizon_ns {
            all.extend(s.exemplars.iter().cloned());
        }
    }
    drop(g);
    merge_exemplar_sets(all)
}

/// Computes every window's deltas from the ring against a fresh
/// non-draining registry capture. Windows with no base sample at least
/// ~100 ms old are omitted (the process just started).
pub fn read() -> Vec<WindowRates> {
    let now = crate::registry().window_capture(false);
    let g = state().lock();
    let samples: Vec<&WindowCapture> = g.samples.iter().collect();
    let mut out = Vec::new();
    for &(secs, label) in WINDOWS {
        let target = now.at_ns.saturating_sub(secs * 1_000_000_000);
        // Newest sample at least `secs` old; else the oldest available.
        let base = samples
            .iter()
            .rev()
            .find(|s| s.at_ns <= target)
            .or_else(|| samples.first())
            .copied();
        let Some(base) = base else { continue };
        let elapsed_s = now.at_ns.saturating_sub(base.at_ns) as f64 / 1e9;
        if elapsed_s < 0.1 {
            continue;
        }
        let counters = now
            .counters
            .iter()
            .map(|(name, &v)| {
                let delta = v.saturating_sub(base.counters.get(name).copied().unwrap_or(0));
                (name.clone(), delta, delta as f64 / elapsed_s)
            })
            .collect();
        let histograms = now
            .hdr
            .iter()
            .map(|(name, h)| {
                let delta = match base.hdr.get(name) {
                    Some(earlier) => h.diff(earlier),
                    None => h.clone(),
                };
                let rate = delta.count() as f64 / elapsed_s;
                WindowHistogram {
                    name: name.clone(),
                    delta,
                    rate,
                }
            })
            .collect();
        let mut exemplars = now.exemplars.clone();
        for s in &samples {
            if s.at_ns >= target {
                exemplars.extend(s.exemplars.iter().cloned());
            }
        }
        out.push(WindowRates {
            label,
            secs,
            elapsed_s,
            counters,
            histograms,
            exemplars: merge_exemplar_sets(exemplars),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests sharing the process-global registry and ring.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn windows_report_deltas_not_cumulative_values() {
        let _l = guard();
        crate::set_enabled(true);
        crate::registry().reset();
        reset();
        crate::counter_add("win.test.requests", 100);
        for _ in 0..100 {
            crate::histogram_record("win.test.latency_ns", 1.0e6);
        }
        sample_now();
        std::thread::sleep(std::time::Duration::from_millis(150));
        crate::counter_add("win.test.requests", 30);
        for _ in 0..30 {
            crate::histogram_record("win.test.latency_ns", 4.0e6);
        }
        let windows = read();
        assert!(!windows.is_empty(), "a base sample exists");
        let w = &windows[0];
        let (_, delta, rate) = w
            .counters
            .iter()
            .find(|(n, _, _)| n == "win.test.requests")
            .expect("counter windowed");
        assert_eq!(*delta, 30, "window sees only the post-sample delta");
        assert!(*rate > 0.0);
        let h = w
            .histograms
            .iter()
            .find(|h| h.name == "win.test.latency_ns")
            .expect("histogram windowed");
        assert_eq!(h.delta.count(), 30);
        let p50 = h.delta.quantile(0.5);
        assert!(
            (p50 - 4.0e6).abs() / 4.0e6 < 0.05,
            "window p50 must reflect only recent values, got {p50}"
        );
        crate::registry().reset();
        reset();
    }

    #[test]
    fn exemplars_ride_epoch_samples_and_merge_on_read() {
        let _l = guard();
        crate::set_enabled(true);
        crate::registry().reset();
        reset();
        {
            let _ctx = crate::trace::set_context(crate::trace::TraceContext {
                trace_id: 1111,
                request_seq: 1,
            });
            crate::histogram_record("win.ex.latency_ns", 7.0e6);
        }
        sample_now(); // drains the first exemplar into the ring
        {
            let _ctx = crate::trace::set_context(crate::trace::TraceContext {
                trace_id: 2222,
                request_seq: 2,
            });
            crate::histogram_record("win.ex.latency_ns", 9.0e6);
        }
        // Both the drained and the still-current exemplar surface.
        let merged = merged_exemplars(
            crate::registry().window_capture(false).exemplars,
        );
        let ids: Vec<u64> = merged.iter().map(|x| x.trace_id).collect();
        assert!(ids.contains(&1111), "{ids:?}");
        assert!(ids.contains(&2222), "{ids:?}");
        // Sorted descending by value within the histogram.
        assert_eq!(merged[0].trace_id, 2222);
        // And the full snapshot carries them too.
        let snap = crate::registry().snapshot();
        assert_eq!(snap.exemplars.len(), 2);
        let round = crate::Snapshot::from_json(&snap.to_json()).expect("round-trips");
        assert_eq!(round.exemplars, snap.exemplars);
        crate::registry().reset();
        reset();
    }

    #[test]
    fn merge_caps_at_k_per_histogram_and_dedups() {
        let mk = |hist: &str, value: f64, id: u64| ExemplarSnapshot {
            histogram: hist.to_owned(),
            value,
            trace_id: id,
            request_seq: 0,
        };
        let mut all = Vec::new();
        for i in 0..10u64 {
            all.push(mk("a", i as f64, i));
        }
        all.push(mk("a", 9.0, 9)); // duplicate observation
        all.push(mk("b", 1.0, 42));
        let merged = merge_exemplar_sets(all);
        let a: Vec<&ExemplarSnapshot> =
            merged.iter().filter(|x| x.histogram == "a").collect();
        assert_eq!(a.len(), crate::registry::EXEMPLAR_K);
        assert_eq!(a[0].value, 9.0, "kept the slowest");
        assert_eq!(merged.iter().filter(|x| x.histogram == "b").count(), 1);
    }
}
