//! The `pathrep-client` CLI: build/save artifacts, query a running
//! daemon, and load-generate for the soak gate.
//!
//! ```text
//! pathrep-client build-artifact <out-path>
//! pathrep-client load     <addr> <artifact-path>
//! pathrep-client predict  <addr> <model-id> <v1,v2,...>
//! pathrep-client stats    <addr>
//! pathrep-client shutdown <addr>
//! pathrep-client scrape   <addr> </metrics|/healthz|/snapshot.json>
//!                         [--timeout-ms T]
//! pathrep-client dump-flight <addr> [out-path]
//! pathrep-client fault    <addr> <slowdown-ms>
//! pathrep-client check-flight <flight-dump.json>
//! pathrep-client stitch-trace <out.json> <trace.json>...
//! pathrep-client loadgen  <addr> <artifact-path> [--clients N] [--requests M]
//!                         [--rate R] [--binary] [--inject-mismatch]
//! ```
//!
//! `loadgen` is the soak driver: N concurrent connections each send M
//! `predict` requests plus one `predict_batch`, and every reply is
//! bit-compared against the offline `MeasurementPredictor::predict` on
//! the locally-loaded artifact. `--binary` sends the hot path over the
//! compact binary frame protocol instead of JSON — the byte-identity bar
//! is the same. `--inject-mismatch` corrupts one expected
//! value on purpose so `serve_gate.sh --self-test` can prove the check
//! trips.
//!
//! With `--rate R` the workers follow a fixed arrival schedule of R
//! requests/second (aggregate) and measure each latency from the request's
//! *intended* send time — the coordinated-omission-safe convention, so a
//! daemon stall inflates the tail instead of silently pausing the load.
//! p50/p99/p999 come from the same ~2 %-error HDR histogram the daemon
//! uses for `serve.request_ns`.
//!
//! `scrape` is a dependency-free `curl` stand-in for the daemon's live
//! telemetry endpoints (`PATHREP_OBS_HTTP`); it takes `--timeout-ms`
//! (default 5000) as connect *and* read/write deadlines, so a hung
//! daemon fails a probe instead of wedging it. `dump-flight` asks the
//! daemon to write its flight-recorder ring; `fault` injects a batcher
//! slowdown (daemon must run with `--allow-fault`); `check-flight`
//! validates a flight dump off-line — parseable Chrome JSON with balanced
//! B/E nesting per thread — and exits nonzero otherwise, so gate scripts
//! need no JSON tooling on the host.
//! `stitch-trace` merges Chrome traces from both processes into one file
//! correlated by the shared `trace_id`s the wire protocol propagates.

use pathrep_obs::trace;
use pathrep_obs::HdrHistogram;
use pathrep_serve::{Client, ModelArtifact, TraceContext, WireProtocol};
use std::io::{Read, Write};
use std::process::exit;
use std::time::{Duration, Instant};

fn die(msg: &str) -> ! {
    eprintln!("pathrep-client: {msg}");
    exit(1)
}

fn usage() -> ! {
    eprintln!(
        "usage: pathrep-client \
         <build-artifact|load|predict|stats|shutdown|scrape|dump-flight|\
         fault|check-flight|stitch-trace|loadgen> …\n\
         (see the crate docs for per-command arguments)"
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build-artifact") => build_artifact(args.get(1).unwrap_or_else(|| usage())),
        Some("load") => load(&args),
        Some("predict") => predict(&args),
        Some("stats") => stats(&args),
        Some("shutdown") => shutdown(&args),
        Some("scrape") => scrape(&args),
        Some("dump-flight") => dump_flight(&args),
        Some("fault") => fault(&args),
        Some("check-flight") => check_flight(args.get(1).unwrap_or_else(|| usage())),
        Some("stitch-trace") => stitch_trace(&args),
        Some("loadgen") => loadgen(&args),
        _ => usage(),
    }
}

fn build_artifact(out: &str) {
    let demo = pathrep_serve::demo::build_quickstart_model()
        .unwrap_or_else(|e| die(&format!("building the quickstart model failed: {e}")));
    let id = demo
        .artifact
        .save(out)
        .unwrap_or_else(|e| die(&format!("saving {out} failed: {e}")));
    println!(
        "pathrep-client: wrote {out} (model {id}, {} measurements -> {} targets, phi {:.3} ps)",
        demo.artifact.predictor.measurement_count(),
        demo.artifact.predictor.target_count(),
        demo.artifact.guard_band_phi
    );
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")))
}

fn load(args: &[String]) {
    let (addr, path) = match (args.get(1), args.get(2)) {
        (Some(a), Some(p)) => (a, p),
        _ => usage(),
    };
    let loaded = connect(addr)
        .load_model(path)
        .unwrap_or_else(|e| die(&format!("load_model failed: {e}")));
    println!(
        "pathrep-client: loaded {} ({}, {} measurements -> {} targets)",
        loaded.model, loaded.label, loaded.measurements, loaded.targets
    );
}

fn predict(args: &[String]) {
    let (addr, model, csv) = match (args.get(1), args.get(2), args.get(3)) {
        (Some(a), Some(m), Some(c)) => (a, m, c),
        _ => usage(),
    };
    let measured: Vec<f64> = csv
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .unwrap_or_else(|_| die(&format!("`{t}` is not a number")))
        })
        .collect();
    let predicted = connect(addr)
        .predict(model, &measured)
        .unwrap_or_else(|e| die(&format!("predict failed: {e}")));
    let rendered: Vec<String> = predicted.iter().map(|v| format!("{v:.6}")).collect();
    println!("pathrep-client: predicted [{}]", rendered.join(", "));
}

fn stats(args: &[String]) {
    let addr = args.get(1).unwrap_or_else(|| usage());
    let s = connect(addr)
        .stats()
        .unwrap_or_else(|e| die(&format!("stats failed: {e}")));
    println!(
        "requests={} predictions={} batches={} max_batch={} model_loads={} \
         cache_hits={} cache_misses={} errors={} queue_high_water={} models_cached={}",
        s.requests,
        s.predictions,
        s.batches,
        s.max_batch,
        s.model_loads,
        s.cache_hits,
        s.cache_misses,
        s.errors,
        s.queue_high_water,
        s.models_cached
    );
}

fn shutdown(args: &[String]) {
    let addr = args.get(1).unwrap_or_else(|| usage());
    connect(addr)
        .shutdown()
        .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
    println!("pathrep-client: daemon acknowledged shutdown");
}

/// Parses a trailing `--timeout-ms T` flag (default 5000 ms) out of
/// `args[from..]`; anything else there is a usage error.
fn timeout_flag(args: &[String], from: usize) -> Duration {
    let mut timeout_ms = 5000u64;
    let mut i = from;
    while i < args.len() {
        match args[i].as_str() {
            "--timeout-ms" => {
                timeout_ms = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t > 0)
                    .unwrap_or_else(|| die("--timeout-ms needs a positive integer"));
                i += 2;
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    Duration::from_millis(timeout_ms)
}

/// One deadline-bounded HTTP GET: `timeout` applies to the connect *and*
/// to every socket read/write, so a hung daemon fails the probe instead
/// of wedging the caller. Returns (status, body).
fn http_get(addr: &str, path: &str, timeout: Duration) -> (u16, String) {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| die(&format!("cannot resolve {addr}")));
    let mut stream = std::net::TcpStream::connect_timeout(&sock, timeout)
        .unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .unwrap_or_else(|e| die(&format!("cannot set socket timeouts: {e}")));
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .unwrap_or_else(|e| die(&format!("request failed: {e}")));
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .unwrap_or_else(|e| die(&format!("reading the response failed: {e}")));
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die("malformed HTTP response"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, body.to_owned())
}

/// GETs one of the daemon's live telemetry endpoints and prints the body,
/// so gate scripts can scrape without `curl` on the host.
fn scrape(args: &[String]) {
    let (addr, path) = match (args.get(1), args.get(2)) {
        (Some(a), Some(p)) => (a, p),
        _ => usage(),
    };
    let timeout = timeout_flag(args, 3);
    let (status, body) = http_get(addr, path, timeout);
    print!("{body}");
    if status != 200 {
        die(&format!("GET {path} returned HTTP {status}"));
    }
}

/// Asks the daemon to write its flight-recorder ring to disk.
fn dump_flight(args: &[String]) {
    let addr = args.get(1).unwrap_or_else(|| usage());
    let (path, records, dropped) = connect(addr)
        .dump_flight(args.get(2).map(String::as_str))
        .unwrap_or_else(|e| die(&format!("dump_flight failed: {e}")));
    println!(
        "pathrep-client: daemon dumped {records} flight records \
         ({dropped} overwritten) to {path}"
    );
}

/// Injects (or clears, with 0) a batcher slowdown on the daemon.
fn fault(args: &[String]) {
    let (addr, ms) = match (args.get(1), args.get(2)) {
        (Some(a), Some(m)) => (
            a,
            m.parse::<u64>()
                .unwrap_or_else(|_| die("fault needs a slowdown in milliseconds")),
        ),
        _ => usage(),
    };
    let active = connect(addr)
        .set_fault(ms)
        .unwrap_or_else(|e| die(&format!("set_fault failed: {e}")));
    println!("pathrep-client: daemon batcher slowdown now {active} ms");
}

/// Validates a flight dump off-line: parseable Chrome Trace JSON whose
/// B/E events nest and balance per (pid, tid) track. Exits 1 on any
/// violation — the obs gate's proof that panic/watchdog dumps are loadable.
fn check_flight(path: &str) {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let v = pathrep_obs::json::parse(&raw)
        .unwrap_or_else(|e| die(&format!("{path} is not valid JSON: {e}")));
    let events = v
        .array()
        .unwrap_or_else(|e| die(&format!("{path} is not a Chrome trace array: {e}")));
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    let (mut begins, mut ends, mut instants, mut traced) = (0u64, 0u64, 0u64, 0u64);
    for ev in events {
        let ph = ev
            .field("ph")
            .and_then(|f| f.string())
            .unwrap_or_else(|e| die(&format!("event without ph: {e}")));
        let num = |name: &str| ev.field(name).and_then(|f| f.number()).unwrap_or(0.0) as u64;
        let key = (num("pid"), num("tid"));
        let name = ev
            .field("name")
            .and_then(|f| f.string())
            .unwrap_or_default();
        if let Ok(args) = ev.field("args") {
            if args.field("trace_id").is_ok() {
                traced += 1;
            }
        }
        match ph.as_str() {
            "B" => {
                stacks.entry(key).or_default().push(name);
                begins += 1;
            }
            "E" => {
                ends += 1;
                match stacks.entry(key).or_default().pop() {
                    Some(open) if open == name => {}
                    Some(open) => die(&format!(
                        "mismatched nesting on pid {} tid {}: E `{name}` closes B `{open}`",
                        key.0, key.1
                    )),
                    None => die(&format!(
                        "unbalanced dump: E `{name}` without an open B on pid {} tid {}",
                        key.0, key.1
                    )),
                }
            }
            "i" => instants += 1,
            other => die(&format!("unexpected phase `{other}` in {path}")),
        }
    }
    for (key, stack) in &stacks {
        if !stack.is_empty() {
            die(&format!(
                "unbalanced dump: {} spans left open on pid {} tid {}: {stack:?}",
                stack.len(),
                key.0,
                key.1
            ));
        }
    }
    println!(
        "pathrep-client: {path} OK — {begins} begins / {ends} ends balanced, \
         {instants} instants, {traced} events carry a trace_id"
    );
}

/// Merges Chrome trace files (client + daemon) into one, correlated by
/// the shared `trace_id` args. See [`pathrep_serve::stitch`].
fn stitch_trace(args: &[String]) {
    let out = args.get(1).unwrap_or_else(|| usage());
    if args.len() < 3 {
        usage();
    }
    let inputs: Vec<(String, String)> = args[2..]
        .iter()
        .map(|p| {
            let content = std::fs::read_to_string(p)
                .unwrap_or_else(|e| die(&format!("cannot read {p}: {e}")));
            (p.clone(), content)
        })
        .collect();
    let merged =
        pathrep_serve::stitch_traces(&inputs).unwrap_or_else(|e| die(&format!("stitch failed: {e}")));
    std::fs::write(out, &merged).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    println!(
        "pathrep-client: stitched {} trace files into {out}",
        inputs.len()
    );
}

/// Deterministic synthetic measurement for (client, request, coordinate):
/// the artifact's mean, displaced by a smooth ±3 ps excursion.
fn synthetic_measurement(meas_mu: &[f64], client: usize, request: usize) -> Vec<f64> {
    meas_mu
        .iter()
        .enumerate()
        .map(|(j, &mu)| mu + (((client * 977 + request * 131 + j * 17) as f64) * 0.37).sin() * 3.0)
        .collect()
}

fn loadgen(args: &[String]) {
    let (addr, path) = match (args.get(1), args.get(2)) {
        (Some(a), Some(p)) => (a.clone(), p.clone()),
        _ => usage(),
    };
    let mut clients = 4usize;
    let mut requests = 25usize;
    let mut rate = 0.0f64;
    let mut inject = false;
    let mut binary = false;
    let mut i = 3;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                clients = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--clients needs a positive integer"));
                i += 2;
            }
            "--requests" => {
                requests = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--requests needs a positive integer"));
                i += 2;
            }
            "--rate" => {
                rate = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|r: &f64| *r > 0.0)
                    .unwrap_or_else(|| die("--rate needs a positive requests/second"));
                i += 2;
            }
            "--inject-mismatch" => {
                inject = true;
                i += 1;
            }
            "--binary" => {
                binary = true;
                i += 1;
            }
            other => die(&format!("unknown loadgen flag `{other}`")),
        }
    }

    // The offline reference: the same artifact the daemon will serve.
    let (artifact, local_id) =
        ModelArtifact::load(&path).unwrap_or_else(|e| die(&format!("cannot load {path}: {e}")));
    let loaded = connect(&addr)
        .load_model(&path)
        .unwrap_or_else(|e| die(&format!("daemon rejected the artifact: {e}")));
    if loaded.model != local_id {
        die(&format!(
            "model id mismatch: daemon says {}, local file hashes to {local_id}",
            loaded.model
        ));
    }

    let artifact = std::sync::Arc::new(artifact);
    let model_id = loaded.model;
    // One shared epoch: with --rate, request g = k*clients + c is *due* at
    // epoch + g/rate, and its latency is measured from that intended time
    // (coordinated-omission-safe) — a stalled daemon shows up as tail
    // latency rather than as a silently paused arrival schedule.
    let epoch = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let artifact = std::sync::Arc::clone(&artifact);
            let model_id = model_id.clone();
            std::thread::spawn(move || -> (u64, u64, HdrHistogram) {
                let mut latency = HdrHistogram::new();
                let mut client = match Client::connect(&addr) {
                    Ok(cl) => cl,
                    Err(e) => {
                        eprintln!("loadgen client {c}: connect failed: {e}");
                        return (0, 1, latency);
                    }
                };
                if binary {
                    client.set_protocol(WireProtocol::Binary);
                }
                let mut mismatches = 0u64;
                let mut errors = 0u64;
                for k in 0..requests {
                    let measured = synthetic_measurement(artifact.predictor.meas_mu(), c, k);
                    let mut expected = artifact
                        .predictor
                        .predict(&measured)
                        .expect("offline prediction succeeds");
                    if inject && k == requests / 2 {
                        // Self-test: provably detectable corruption.
                        expected[0] += 1.0;
                    }
                    // Every request carries a unique trace context: the
                    // daemon stamps it on its spans and echoes it back, so
                    // client and server traces stitch into one timeline.
                    let _ctx = trace::set_context(TraceContext {
                        trace_id: ((c as u64 + 1) << 20) | k as u64,
                        request_seq: k as u64,
                    });
                    let _span = pathrep_obs::span!("client.predict");
                    let intended = if rate > 0.0 {
                        let due = Duration::from_secs_f64((k * clients + c) as f64 / rate);
                        while epoch.elapsed() < due {
                            std::thread::sleep(due - epoch.elapsed());
                        }
                        due
                    } else {
                        epoch.elapsed()
                    };
                    match client.predict(&model_id, &measured) {
                        Ok(got) => {
                            latency.record((epoch.elapsed() - intended).as_nanos() as f64);
                            let same = got.len() == expected.len()
                                && got
                                    .iter()
                                    .zip(expected.iter())
                                    .all(|(a, b)| a.to_bits() == b.to_bits());
                            if !same {
                                mismatches += 1;
                            }
                        }
                        Err(e) => {
                            eprintln!("loadgen client {c} request {k}: {e}");
                            errors += 1;
                        }
                    }
                }
                // One batched request per client, same byte-identity bar.
                let rows: Vec<Vec<f64>> = (0..4)
                    .map(|k| synthetic_measurement(artifact.predictor.meas_mu(), c, 10_000 + k))
                    .collect();
                match client.predict_batch(&model_id, &rows) {
                    Ok(got) => {
                        for (row, m) in got.iter().zip(rows.iter()) {
                            let expected =
                                artifact.predictor.predict(m).expect("offline prediction");
                            if row.len() != expected.len()
                                || row
                                    .iter()
                                    .zip(expected.iter())
                                    .any(|(a, b)| a.to_bits() != b.to_bits())
                            {
                                mismatches += 1;
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("loadgen client {c} batch: {e}");
                        errors += 1;
                    }
                }
                (mismatches, errors, latency)
            })
        })
        .collect();

    let mut mismatches = 0u64;
    let mut errors = 0u64;
    let mut latency = HdrHistogram::new();
    for w in workers {
        let (m, e, h) = w.join().expect("loadgen worker panicked");
        mismatches += m;
        errors += e;
        latency.merge(&h);
    }
    let total = clients * (requests + 4);
    let proto = if binary { "binary" } else { "json" };
    println!(
        "pathrep-client: loadgen {clients} clients x {requests} predicts (+1 batch each, \
         {proto}): {total} rows, {mismatches} mismatches, {errors} errors"
    );
    if latency.count() > 0 {
        let us = |q: f64| latency.quantile(q) / 1_000.0;
        let basis = if rate > 0.0 {
            format!("intended-start @ {rate}/s, coordinated-omission-safe")
        } else {
            "service-time".to_owned()
        };
        println!(
            "pathrep-client: loadgen latency p50={:.1}us p99={:.1}us p999={:.1}us ({basis})",
            us(0.50),
            us(0.99),
            us(0.999)
        );
    }
    // Honour PATHREP_OBS_TRACE etc. so the client-side Chrome trace (with
    // the per-request trace ids) is exported for stitch-trace.
    pathrep_obs::report("pathrep-client");
    if mismatches > 0 || errors > 0 {
        eprintln!("pathrep-client: loadgen FAILED — served predictions must be byte-identical");
        exit(1);
    }
    println!("pathrep-client: loadgen OK — all replies byte-identical to offline predictions");
}
