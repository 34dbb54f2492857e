//! Integration tests for the live telemetry plane: the HTTP scrape
//! endpoints, HDR histograms through the registry, the new Prometheus
//! families, and the `HistogramSnapshot::quantile` edge cases.

use pathrep_obs::{HdrHistogram, HistogramSnapshot, Snapshot};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Serializes tests that mutate the global registry/enabled flag.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Minimal HTTP/1.1 GET, returning (status, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn http_plane_serves_live_registry() {
    let _g = lock();
    pathrep_obs::reset();
    pathrep_obs::set_enabled(true);
    let server = pathrep_obs::http::start("127.0.0.1:0").expect("bind ephemeral");

    pathrep_obs::counter_add("live.scrape.hits", 3);
    pathrep_obs::histogram_record("live.request_ns", 125_000.0);

    let (status, body) = http_get(server.addr(), "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // /metrics reflects the registry *now*, without any report() call.
    let (status, metrics) = http_get(server.addr(), "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("pathrep_live_scrape_hits 3\n"), "{metrics}");
    assert!(metrics.contains("# TYPE pathrep_live_request_ns histogram"));
    assert!(metrics.contains("pathrep_live_request_ns_max 125000\n"));
    assert!(metrics.contains("pathrep_events_dropped_total 0\n"));

    let (status, json) = http_get(server.addr(), "/snapshot.json");
    assert_eq!(status, 200);
    let snap = Snapshot::from_json(&json).expect("snapshot.json parses");
    assert_eq!(snap.counters[0].name, "live.scrape.hits");
    assert_eq!(snap.counters[0].value, 3);

    // A mid-run scrape mutated nothing: a second scrape is identical.
    let (_, metrics2) = http_get(server.addr(), "/metrics");
    assert_eq!(metrics, metrics2, "scrapes must be read-only");

    assert_eq!(http_get(server.addr(), "/nope").0, 404);

    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
}

#[test]
fn concurrent_scrapes_during_hdr_recording_are_never_torn() {
    let _g = lock();
    pathrep_obs::reset();
    pathrep_obs::set_enabled(true);
    let server = pathrep_obs::http::start("127.0.0.1:0").expect("bind ephemeral");
    let addr = server.addr();

    // Writer: hammer an HDR histogram + a counter while scrapers read.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut written = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                pathrep_obs::histogram_record(
                    "scrape.race_ns",
                    ((written % 1000) * 1_000 + 500) as f64,
                );
                pathrep_obs::counter_add("scrape.race.writes", 1);
                written += 1;
            }
            written
        })
    };

    // Scraper A: /metrics. Each scrape must be internally consistent —
    // cumulative buckets monotone, +Inf bucket == _count — and counts
    // must never go backwards between scrapes.
    let prom_scraper = std::thread::spawn(move || {
        let mut last_count = 0u64;
        for _ in 0..25 {
            let (status, body) = http_get(addr, "/metrics");
            assert_eq!(status, 200);
            let buckets: Vec<u64> = body
                .lines()
                .filter(|l| l.starts_with("pathrep_scrape_race_ns_bucket{"))
                .map(|l| {
                    l.rsplit(' ')
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("torn bucket line: {l}"))
                })
                .collect();
            for w in buckets.windows(2) {
                assert!(w[0] <= w[1], "non-monotone cumulative buckets: {buckets:?}");
            }
            let count: Option<u64> = body
                .lines()
                .find(|l| l.starts_with("pathrep_scrape_race_ns_count "))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|v| v.parse().ok());
            if let (Some(count), Some(last)) = (count, buckets.last()) {
                assert_eq!(*last, count, "+Inf bucket must equal _count");
                assert!(count >= last_count, "count went backwards");
                last_count = count;
            }
        }
    });

    // Scraper B: /snapshot.json must always parse (never a half-written
    // document) and its bucket counts must sum to the histogram count.
    let json_scraper = std::thread::spawn(move || {
        for _ in 0..25 {
            let (status, json) = http_get(addr, "/snapshot.json");
            assert_eq!(status, 200);
            let snap = Snapshot::from_json(&json).expect("snapshot.json parses mid-write");
            if let Some(h) = snap.histograms.iter().find(|h| h.name == "scrape.race_ns") {
                assert_eq!(
                    h.counts.iter().sum::<u64>(),
                    h.count,
                    "bucket counts must sum to the observation count"
                );
            }
        }
    });

    prom_scraper.join().expect("prom scraper panicked");
    json_scraper.join().expect("json scraper panicked");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let written = writer.join().expect("writer panicked");
    assert!(written > 0, "writer made progress during the scrapes");

    // Quiesced: the final scrape agrees exactly with what was written.
    let (_, body) = http_get(addr, "/metrics");
    assert!(
        body.contains(&format!("pathrep_scrape_race_writes {written}\n")),
        "final counter must equal total writes ({written})"
    );
    pathrep_obs::reset();
}

#[test]
fn hdr_histograms_flow_through_registry_and_prom() {
    let _g = lock();
    pathrep_obs::reset();
    pathrep_obs::set_enabled(true);
    for i in 1..=1000u64 {
        pathrep_obs::histogram_record("serve.request_ns", (i * 1_000) as f64);
    }
    let snap = pathrep_obs::registry().snapshot();
    let h = snap
        .histograms
        .iter()
        .find(|h| h.name == "serve.request_ns")
        .expect("hdr histogram in snapshot");
    assert_eq!(h.count, 1000);
    assert_eq!(h.min, 1_000.0);
    assert_eq!(h.max, 1_000_000.0);
    // p999 of 1k..=1M by 1k is 999_000; HDR must land within ~3 %.
    let p999 = h.quantile(0.999);
    assert!((p999 - 999_000.0).abs() / 999_000.0 < 0.032, "p999 = {p999}");
    // The JSON round trip preserves the materialized HDR buckets.
    let rt = Snapshot::from_json(&snap.to_json()).expect("round trip");
    let rh = rt
        .histograms
        .iter()
        .find(|h| h.name == "serve.request_ns")
        .unwrap();
    assert_eq!(rh.counts, h.counts);

    let prom = pathrep_obs::prom::render_prometheus(&snap);
    assert!(prom.contains("# TYPE pathrep_serve_request_ns histogram"));
    assert!(prom.contains("pathrep_serve_request_ns_count 1000\n"));
    assert!(prom.contains("# TYPE pathrep_serve_request_ns_min gauge"));
    assert!(prom.contains("pathrep_serve_request_ns_min 1000\n"));
    assert!(prom.contains("pathrep_serve_request_ns_max 1000000\n"));
    pathrep_obs::reset();
}

/// `/metrics` is served as `text/plain; version=0.0.4`, which has no
/// exemplar or comment-suffix syntax: every line is a `# TYPE` line or a
/// bare `name[{labels}] value` sample, even after traced recordings.
#[test]
fn traced_recordings_keep_prometheus_text_strict_0_0_4() {
    let _g = lock();
    pathrep_obs::reset();
    pathrep_obs::set_enabled(true);
    for seq in 0..20u64 {
        let _ctx = pathrep_obs::trace::set_context(pathrep_obs::trace::TraceContext {
            trace_id: 9000 + seq,
            request_seq: seq,
        });
        let _s = pathrep_obs::span!("serve.request");
        pathrep_obs::histogram_record("serve.request_ns", (1 + seq) as f64 * 1.0e5);
    }
    let prom = pathrep_obs::prom::render_prometheus(&pathrep_obs::registry().snapshot());
    pathrep_obs::reset();

    let is_name = |s: &str| {
        let mut chars = s.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let is_value = |s: &str| matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok();
    assert!(prom.contains("pathrep_serve_request_ns_count 20\n"), "{prom}");
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let fields: Vec<&str> = rest.split(' ').collect();
            assert!(
                fields.len() == 2
                    && is_name(fields[0])
                    && ["counter", "gauge", "histogram"].contains(&fields[1]),
                "malformed TYPE line: {line}"
            );
            continue;
        }
        // `name{labels} value` or `name value`, nothing after the value.
        // Label values here are `le` edges and span paths, neither of
        // which contains `} `.
        let (series, value) = match line.split_once('{') {
            Some((name, rest)) => {
                let (_labels, value) = rest
                    .split_once("} ")
                    .unwrap_or_else(|| panic!("unterminated labels: {line}"));
                (name, value)
            }
            None => line
                .split_once(' ')
                .unwrap_or_else(|| panic!("sample without a value: {line}")),
        };
        assert!(is_name(series), "bad metric name: {line}");
        assert!(is_value(value), "trailing text after the value: {line}");
    }
}

#[test]
fn quantile_edge_cases_are_exact() {
    // Empty histogram: every quantile is 0.
    let empty = HdrHistogram::new().snapshot("e");
    assert_eq!(empty.quantile(0.0), 0.0);
    assert_eq!(empty.quantile(0.5), 0.0);
    assert_eq!(empty.quantile(1.0), 0.0);

    // Single value: every quantile is that value, not an interpolation
    // across its bucket.
    let mut one = HdrHistogram::new();
    one.record(42.0);
    let s = one.snapshot("one");
    for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
        assert_eq!(s.quantile(q), 42.0, "q = {q}");
    }

    // q=0 / q=1 are the exact observed extremes.
    let mut h = HdrHistogram::new();
    for v in [3.0, 7.0, 11.0, 200.0] {
        h.record(v);
    }
    let s = h.snapshot("h");
    assert_eq!(s.quantile(0.0), 3.0);
    assert_eq!(s.quantile(1.0), 200.0);

    // Overflow bucket: an outlier max must not skew quantiles landing
    // above the last finite edge. With edges up to 10, the p90 target
    // rank lands in the overflow bucket; the old interpolation dragged it
    // toward max (≈ 1e9), the fix pins it at the bucket's lower bound.
    let fixed = HistogramSnapshot {
        name: "overflow".into(),
        edges: vec![1.0, 10.0],
        counts: vec![0, 5, 5],
        count: 10,
        sum: 5.0 * 5.0 + 4.0 * 11.0 + 1e9,
        min: 2.0,
        max: 1e9,
    };
    let p90 = fixed.quantile(0.90);
    assert_eq!(p90, 10.0, "overflow quantile must clamp to the last edge");
    assert_eq!(fixed.quantile(1.0), 1e9);

    // Constant-valued histogram: quantiles are the constant.
    let mut flat = HdrHistogram::new();
    for _ in 0..100 {
        flat.record(5.0);
    }
    assert_eq!(flat.snapshot("flat").quantile(0.73), 5.0);
}
