//! Integration tests for the telemetry substrate.
//!
//! The registry and the enabled flag are process-global, and the default
//! test harness runs tests on parallel threads — every test serializes on
//! [`guard`] and resets the registry before recording.

use pathrep_obs::Snapshot;
use std::time::Duration;

fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn span_nesting_builds_tree_with_monotone_timing() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    {
        let _outer = pathrep_obs::span!("outer");
        std::thread::sleep(Duration::from_millis(2));
        {
            let _inner = pathrep_obs::span!("inner");
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _inner = pathrep_obs::span!("inner");
        }
    }
    let snap = pathrep_obs::registry().snapshot();
    assert_eq!(snap.spans.len(), 1, "one root span");
    let outer = &snap.spans[0];
    assert_eq!(outer.name, "outer");
    assert_eq!(outer.path, "outer");
    assert_eq!(outer.count, 1);
    assert_eq!(outer.children.len(), 1);
    let inner = &outer.children[0];
    assert_eq!(inner.name, "inner");
    assert_eq!(inner.path, "outer/inner");
    assert_eq!(inner.count, 2);
    // Timing monotonicity: the parent encloses both child executions, the
    // aggregate bounds order correctly, and nothing is zero.
    assert!(outer.total_ns >= inner.total_ns);
    assert!(inner.min_ns <= inner.max_ns);
    assert!(inner.total_ns >= u128::from(inner.max_ns));
    assert!(inner.total_ns <= u128::from(inner.min_ns) + u128::from(inner.max_ns));
    assert!(outer.total_ns > 0);
}

#[test]
fn sibling_spans_do_not_nest() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    {
        let _a = pathrep_obs::span!("first");
    }
    {
        let _b = pathrep_obs::span!("second");
    }
    let snap = pathrep_obs::registry().snapshot();
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["first", "second"]);
    assert!(snap.spans.iter().all(|s| s.children.is_empty()));
}

#[test]
fn counters_accumulate_atomically_across_threads() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 1_000;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    pathrep_obs::counter_add("test.concurrent", 1);
                }
            });
        }
    });
    let snap = pathrep_obs::registry().snapshot();
    let c = snap
        .counters
        .iter()
        .find(|c| c.name == "test.concurrent")
        .expect("counter recorded");
    assert_eq!(c.value, THREADS as u64 * PER_THREAD, "no lost increments");
}

#[test]
fn histogram_buckets_bound_each_value_within_one_thirty_second() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    let values = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0];
    for v in values {
        pathrep_obs::histogram_record("test.hist", v);
    }
    let snap = pathrep_obs::registry().snapshot();
    let h = snap
        .histograms
        .iter()
        .find(|h| h.name == "test.hist")
        .expect("histogram recorded");
    assert_eq!(h.counts.len(), h.edges.len() + 1);
    assert_eq!(h.counts.iter().sum::<u64>(), 6);
    // Every value lies in an occupied bucket [edges[i-1], edges[i]) whose
    // relative width is at most 1/32.
    for v in values {
        let i = h.edges.iter().position(|&e| v < e).expect("v below the last edge");
        assert!(i > 0 && h.edges[i - 1] <= v, "v = {v} not bracketed");
        assert!(h.counts[i] > 0, "v = {v} bucket is empty");
        let width = h.edges[i] / h.edges[i - 1] - 1.0;
        assert!(width <= 1.0 / 32.0 + 1e-12, "v = {v}: width {width}");
    }
    // Summary statistics are exact, not bucket estimates.
    assert_eq!(h.count, 6);
    assert_eq!(h.min, 0.5);
    assert_eq!(h.max, 5.0);
    assert_eq!(h.sum, 13.0);
}

#[test]
fn json_snapshot_round_trips_exactly() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    {
        let _a = pathrep_obs::span!("alpha");
        let _b = pathrep_obs::span!("beta");
    }
    pathrep_obs::counter_add("c.one", 7);
    pathrep_obs::gauge_set("g.pi", std::f64::consts::PI);
    pathrep_obs::gauge_set("g.tiny", -2.5e-7);
    pathrep_obs::histogram_record("h.resid", 1e-7);
    pathrep_obs::warn("w.unconverged", || "π \"quoted\"\nsecond line\t".to_owned());
    pathrep_obs::info("i.note", || "plain".to_owned());
    let snap = pathrep_obs::registry().snapshot();
    let json = snap.to_json();
    let back = Snapshot::from_json(&json).expect("well-formed JSON");
    assert_eq!(back, snap, "JSON round-trip must be lossless");
    // Fields are read by name: snapshots written with the retired
    // `exemplars` section still parse.
    let older = format!(
        "{},\"exemplars\":[{{\"histogram\":\"h.resid\",\"value\":1e-7,\
         \"trace_id\":9000,\"request_seq\":3}}]}}",
        json.strip_suffix('}').expect("JSON object")
    );
    assert_eq!(Snapshot::from_json(&older).expect("older JSON parses"), snap);
    // The text rendering carries every section.
    let text = snap.render();
    for section in ["spans:", "counters:", "gauges:", "histograms:", "events:"] {
        assert!(text.contains(section), "missing `{section}` in:\n{text}");
    }
}

#[test]
fn event_cap_counts_drops() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    for i in 0..pathrep_obs::MAX_EVENTS + 5 {
        pathrep_obs::info("e.flood", || format!("event {i}"));
    }
    let snap = pathrep_obs::registry().snapshot();
    assert_eq!(snap.events.len(), pathrep_obs::MAX_EVENTS);
    assert_eq!(snap.events_dropped, 5);
}

#[test]
fn disabled_collection_records_nothing() {
    let _l = guard();
    pathrep_obs::set_enabled(false);
    pathrep_obs::reset();
    {
        let _s = pathrep_obs::span!("ghost");
        pathrep_obs::counter_add("ghost.counter", 3);
        pathrep_obs::gauge_set("ghost.gauge", 1.0);
        pathrep_obs::histogram_record("ghost.hist", 0.5);
        pathrep_obs::warn("ghost.warn", || unreachable!("message must not be built"));
    }
    let snap = pathrep_obs::registry().snapshot();
    assert!(snap.spans.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    assert!(snap.events.is_empty());
    pathrep_obs::set_enabled(true); // leave the flag predictable for peers
}
