//! Integration tests for the export backends: Prometheus text exposition
//! and Chrome Trace Event JSON rendered from the flight ring.
//!
//! Like `telemetry.rs`, every test serializes on [`guard`] because the
//! registry, the enabled flag and the flight ring are process-global.

use pathrep_obs::config::TRACE_CAPACITY;
use pathrep_obs::flight::{self, FlightPhase, FlightRecord};
use std::collections::BTreeMap;
use std::collections::HashMap;

fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Prometheus text exposition format
// ---------------------------------------------------------------------

/// One parsed sample line: name, sorted labels, value.
#[derive(Debug, PartialEq)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// A minimal hand parser for the exposition format: validates the syntax
/// the exporter is allowed to emit and returns (`# TYPE` map, samples).
fn parse_exposition(text: &str) -> (BTreeMap<String, String>, Vec<Sample>) {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    let mut types = BTreeMap::new();
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            assert!(name_ok(name), "bad metric name in TYPE: {name:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped"),
                "bad metric kind {kind:?}"
            );
            assert!(
                types.insert(name.to_owned(), kind.to_owned()).is_none(),
                "duplicate TYPE for {name}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "only TYPE comments expected: {line}");
        // name[{labels}] value
        let (head, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse().unwrap_or_else(|_| panic!("bad value {v:?}")),
        };
        let (name, labels) = match head.split_once('{') {
            None => (head.to_owned(), BTreeMap::new()),
            Some((n, rest)) => {
                let body = rest.strip_suffix('}').expect("labels close with `}`");
                let mut labels = BTreeMap::new();
                for pair in body.split("\",") {
                    let pair = pair.strip_suffix('"').unwrap_or(pair);
                    let (k, v) = pair.split_once("=\"").expect("label is k=\"v\"");
                    assert!(name_ok(k), "bad label name {k:?}");
                    labels.insert(k.to_owned(), v.to_owned());
                }
                (n.to_owned(), labels)
            }
        };
        assert!(name_ok(&name), "bad sample name {name:?}");
        samples.push(Sample { name, labels, value });
    }
    (types, samples)
}

#[test]
fn prometheus_round_trips_a_synthetic_snapshot() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    {
        let _outer = pathrep_obs::span!("stage");
        let _inner = pathrep_obs::span!("kernel");
    }
    pathrep_obs::counter_add("linalg.svd.qr_sweeps", 42);
    pathrep_obs::gauge_set("eval.pipeline.target_paths", 137.0);
    for v in [0.5, 1.5, 1.5, 3.0, 9.0] {
        pathrep_obs::histogram_record("convopt.admm.residual", v);
    }
    let snap = pathrep_obs::registry().snapshot();
    let text = pathrep_obs::prom::render_prometheus(&snap);
    let (types, samples) = parse_exposition(&text);

    assert_eq!(
        types.get("pathrep_linalg_svd_qr_sweeps").map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        types.get("pathrep_eval_pipeline_target_paths").map(String::as_str),
        Some("gauge")
    );
    assert_eq!(
        types.get("pathrep_convopt_admm_residual").map(String::as_str),
        Some("histogram")
    );

    let by_name = |n: &str| -> Vec<&Sample> { samples.iter().filter(|s| s.name == n).collect() };
    assert_eq!(by_name("pathrep_linalg_svd_qr_sweeps")[0].value, 42.0);
    assert_eq!(by_name("pathrep_eval_pipeline_target_paths")[0].value, 137.0);

    // Histogram: cumulative buckets with ascending `le` labels from the
    // HDR bucket bounds, each value just under its own bound, then the
    // +Inf bucket equal to _count.
    let buckets = by_name("pathrep_convopt_admm_residual_bucket");
    let le = |s: &Sample| -> f64 {
        match s.labels.get("le").expect("bucket has le").as_str() {
            "+Inf" => f64::INFINITY,
            v => v.parse().expect("numeric le"),
        }
    };
    assert_eq!(le(buckets[buckets.len() - 1]), f64::INFINITY);
    assert!(buckets.windows(2).all(|w| le(w[0]) < le(w[1])), "le ascends");
    assert!(
        buckets.windows(2).all(|w| w[0].value <= w[1].value),
        "buckets must be cumulative"
    );
    assert_eq!(buckets[buckets.len() - 1].value, 5.0);
    for (v, below) in [(0.5, 1.0), (1.5, 3.0), (3.0, 4.0), (9.0, 5.0)] {
        // HDR buckets are [lo, hi): the first bound above v holds the
        // cumulative count of values ≤ v, and lies within 1/32 of v.
        let b = buckets.iter().find(|s| le(s) > v).expect("a bucket bounds v");
        assert_eq!(b.value, below, "cumulative count at {v}");
        assert!(le(b) <= v * (1.0 + 1.0 / 32.0), "bound {} too far above {v}", le(b));
    }
    assert_eq!(by_name("pathrep_convopt_admm_residual_count")[0].value, 5.0);
    assert!((by_name("pathrep_convopt_admm_residual_sum")[0].value - 15.5).abs() < 1e-12);

    // Spans appear as labelled counters for both recorded paths.
    let calls = by_name("pathrep_span_calls_total");
    let paths: Vec<String> = calls
        .iter()
        .map(|s| s.labels.get("path").cloned().unwrap())
        .collect();
    assert_eq!(paths, ["stage", "stage/kernel"]);

    // Every sample's family is typed.
    for s in &samples {
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| s.name.strip_suffix(suf))
            .filter(|base| types.contains_key(*base))
            .unwrap_or(&s.name);
        assert!(types.contains_key(family), "untyped family for {}", s.name);
    }
}

#[test]
fn histogram_quantiles_interpolate_within_buckets() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    for _ in 0..10 {
        pathrep_obs::histogram_record("q.hist", 5.0);
    }
    for _ in 0..10 {
        pathrep_obs::histogram_record("q.hist", 15.0);
    }
    let snap = pathrep_obs::registry().snapshot();
    let h = snap.histograms.iter().find(|h| h.name == "q.hist").unwrap();
    // p50 is the 10th of 20 observations: the top of 5.0's bucket, which
    // is at most 1/32 above 5.0.
    let p50 = h.quantile(0.50);
    assert!((5.0..=5.0 * (1.0 + 1.0 / 32.0)).contains(&p50), "p50 = {p50}");
    // p100 clamps to the observed max, p0 to ≥ min.
    assert_eq!(h.quantile(1.0), 15.0);
    assert!(h.quantile(0.0) >= 5.0 - 1e-9);
    // Quantiles are monotone in q.
    let qs: Vec<f64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&q| h.quantile(q))
        .collect();
    assert!(qs.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{qs:?}");
    // The rendered report carries the quantile columns.
    let text = snap.render();
    assert!(text.contains("p50="), "missing p50 in:\n{text}");
    assert!(text.contains("p99="), "missing p99 in:\n{text}");
}

#[test]
fn dropped_events_are_loud_in_the_text_report() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    for i in 0..pathrep_obs::MAX_EVENTS + 9 {
        pathrep_obs::info("e.flood", || format!("event {i}"));
    }
    let snap = pathrep_obs::registry().snapshot();
    let text = snap.render();
    assert!(text.contains("events_dropped: 9"), "missing count in:\n{text}");
    assert!(
        text.contains("[warn] obs.events.dropped"),
        "missing warn summary in:\n{text}"
    );
}

// ---------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------

/// Asserts every `tid`'s span records form a balanced, properly nested
/// B/E sequence with non-decreasing timestamps, and returns the span
/// names seen.
fn check_balanced(records: &[FlightRecord]) -> Vec<&'static str> {
    let mut stacks: HashMap<u64, Vec<&'static str>> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut names = Vec::new();
    for r in records {
        let prev = last_ts.entry(r.tid).or_insert(0);
        assert!(r.ts_ns >= *prev, "timestamps regress on tid {}", r.tid);
        *prev = r.ts_ns;
        let stack = stacks.entry(r.tid).or_default();
        match r.phase {
            FlightPhase::Begin => {
                stack.push(r.name);
                names.push(r.name);
            }
            FlightPhase::End => {
                let open = stack.pop().expect("E without open B");
                assert_eq!(open, r.name, "mismatched B/E pair");
            }
            FlightPhase::Instant => {}
        }
    }
    for (tid, stack) in stacks {
        assert!(stack.is_empty(), "unbalanced spans on tid {tid}: {stack:?}");
    }
    names
}

/// Asserts a rendered Chrome trace is a well-formed Trace Event array
/// whose B/E events balance per tid, and returns its item count.
fn check_rendered(json: &str, pid: f64) -> usize {
    let v = pathrep_obs::json::parse(json).expect("valid JSON");
    let items = v.array().expect("top-level array");
    let mut depth: HashMap<u64, i64> = HashMap::new();
    for item in items {
        assert!(!item.field("name").unwrap().string().unwrap().is_empty());
        assert_eq!(item.field("pid").unwrap().number().unwrap(), pid);
        item.field("ts").unwrap().number().unwrap();
        let tid = item.field("tid").unwrap().number().unwrap() as u64;
        let d = depth.entry(tid).or_insert(0);
        match item.field("ph").unwrap().string().unwrap().as_str() {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "E without open B on tid {tid}");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unbalanced render: {depth:?}");
    items.len()
}

#[test]
fn trace_export_is_balanced_under_nested_and_threaded_spans() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    flight::set_capacity(TRACE_CAPACITY);
    pathrep_obs::reset();
    {
        let _outer = pathrep_obs::span!("outer");
        {
            let _inner = pathrep_obs::span!("inner");
        }
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _w = pathrep_obs::span!("worker");
                    let _k = pathrep_obs::span!("kernel");
                });
            }
        });
    }
    let (records, overwritten) = flight::snapshot();
    assert_eq!(overwritten, 0);
    let names = check_balanced(&records);
    assert_eq!(records.len(), 2 * names.len());
    assert_eq!(names.iter().filter(|&&n| n == "outer").count(), 1);
    assert_eq!(names.iter().filter(|&&n| n == "inner").count(), 1);
    assert_eq!(names.iter().filter(|&&n| n == "worker").count(), 4);
    assert_eq!(names.iter().filter(|&&n| n == "kernel").count(), 4);
    // More than one thread contributed.
    let tids: std::collections::BTreeSet<u64> = records.iter().map(|r| r.tid).collect();
    assert!(tids.len() >= 2, "expected multiple tids, got {tids:?}");

    // The JSON rendering carries every record plus the leading
    // overwrite-count mark, with no synthetic ends for closed spans.
    let json = flight::render_chrome(&records, overwritten, 7);
    assert_eq!(check_rendered(&json, 7.0), records.len() + 1);
    assert!(!json.contains("synthetic_end"), "{json}");
}

#[test]
fn trace_ring_saturation_keeps_the_newest_records_balanced() {
    let _l = guard();
    pathrep_obs::set_enabled(true);
    flight::set_capacity(TRACE_CAPACITY);
    pathrep_obs::reset();
    {
        let _outer = pathrep_obs::span!("flood_outer");
        for _ in 0..2 * TRACE_CAPACITY {
            let _s = pathrep_obs::span!("flood");
        }
    }
    let (records, overwritten) = flight::snapshot();
    assert_eq!(records.len(), TRACE_CAPACITY);
    assert!(overwritten > 0, "a 2x flood must overwrite");
    assert_eq!(records.last().map(|r| r.name), Some("flood_outer"), "newest kept");
    // The outer begin was evicted: the render drops its orphaned end and
    // the stream stays balanced.
    let json = flight::render_chrome(&records, overwritten, 1);
    check_rendered(&json, 1.0);
    assert!(json.contains(&format!("\"overwritten\":{overwritten}")));
    pathrep_obs::reset();
    let (records, overwritten) = flight::snapshot();
    assert!(records.is_empty());
    assert_eq!(overwritten, 0, "reset clears the overwrite count");
    flight::set_capacity(pathrep_obs::config::DEFAULT_FLIGHT_CAPACITY);
}
