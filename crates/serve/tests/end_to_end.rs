//! End-to-end serving: a real daemon on an ephemeral port, concurrent
//! clients over TCP, byte-identity against the offline predictor, obs
//! families in the Prometheus export, and byte-stability of the committed
//! golden artifact.

use pathrep_serve::demo::build_quickstart_model;
use pathrep_serve::{stitch_traces, Client, ModelArtifact, Server, ServerConfig, TraceContext};
use std::sync::{Arc, Mutex};

/// The daemon tests mutate the global obs registry; serialize them (and
/// recover the lock if an earlier test's assert poisoned it).
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_path(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("pathrep_serve_{}_{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch_max: 8,
        // Room for every row the concurrent-clients soak can have queued
        // at once (5 clients × 20-row batches), so it never sheds.
        queue_cap: 128,
        cache_cap: 4,
        ..ServerConfig::default()
    }
}

#[test]
fn concurrent_clients_get_bit_identical_predictions() {
    let _obs = obs_lock();
    pathrep_obs::set_enabled(true);
    pathrep_obs::ledger::set_collecting(true);
    pathrep_obs::reset();

    let demo = build_quickstart_model().expect("quickstart model builds");
    let path = temp_path("e2e.artifact");
    let model_id = demo.artifact.save(&path).expect("artifact saves");

    let handle = Server::bind(test_config())
        .expect("bind ephemeral port")
        .spawn()
        .expect("server spawns");
    let addr = handle.addr();

    let loaded = Client::connect(addr)
        .expect("connect")
        .load_model(&path)
        .expect("daemon loads the artifact");
    assert_eq!(loaded.model, model_id, "content hash is the model id");
    assert_eq!(loaded.label, "quickstart");

    // ≥ 4 concurrent clients, each predicting several fabricated chips.
    let chips = demo.measure_chips(20, 7).expect("chips fabricate");
    let artifact = Arc::new(demo.artifact);
    let workers: Vec<_> = (0..5)
        .map(|c| {
            let chips = chips.clone();
            let artifact = Arc::clone(&artifact);
            let model_id = model_id.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connects");
                for (k, measured) in chips.iter().enumerate().skip(c % 3) {
                    let got = client.predict(&model_id, measured).expect("predict");
                    let want = artifact.predictor.predict(measured).expect("offline");
                    assert_eq!(got.len(), want.len());
                    for (a, b) in got.iter().zip(want.iter()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "client {c} chip {k}: served != offline"
                        );
                    }
                }
                // The batched endpoint must agree too.
                let got = client.predict_batch(&model_id, &chips).expect("batch");
                for (row, measured) in got.iter().zip(chips.iter()) {
                    let want = artifact.predictor.predict(measured).expect("offline");
                    for (a, b) in row.iter().zip(want.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "client {c}: batch != offline");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker threads succeed");
    }

    let stats = Client::connect(addr).expect("connect").stats().expect("stats");
    assert_eq!(stats.errors, 0, "soak must be error-free: {stats:?}");
    assert_eq!(stats.model_loads, 1);
    assert!(stats.predictions >= 5 * 20, "all rows predicted");
    assert!(stats.batches >= 1);
    assert_eq!(stats.models_cached, 1);

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown acknowledged");
    let final_stats = handle.join();
    assert_eq!(final_stats.errors, 0);

    // The Prometheus export carries the serve families.
    let prom = pathrep_obs::prom::render_prometheus(&pathrep_obs::registry().snapshot());
    for family in [
        "pathrep_serve_requests",
        "pathrep_serve_predictions",
        "pathrep_serve_model_loads",
        "pathrep_serve_batch_rows",
        "pathrep_serve_request_ns",
        "pathrep_serve_queue_depth",
    ] {
        assert!(prom.contains(family), "prometheus export lacks {family}:\n{prom}");
    }
    // The ledger recorded the model load.
    let records = pathrep_obs::ledger::records();
    assert!(
        records
            .iter()
            .any(|r| r.stage == "serve" && r.name == "model_load"),
        "ledger must carry a serve/model_load record"
    );

    pathrep_obs::ledger::set_collecting(false);
    pathrep_obs::set_enabled(false);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_model_and_bad_rows_are_typed_server_errors() {
    let _obs = obs_lock();
    let demo = build_quickstart_model().expect("quickstart model builds");
    let path = temp_path("errors.artifact");
    demo.artifact.save(&path).expect("artifact saves");

    let handle = Server::bind(test_config())
        .expect("bind ephemeral port")
        .spawn()
        .expect("server spawns");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Predict against a model that was never loaded.
    let err = client.predict("0000000000000000", &[1.0]).unwrap_err();
    assert!(err.to_string().contains("not loaded"), "{err}");

    // Wrong measurement arity after a successful load.
    let loaded = client.load_model(&path).expect("load");
    let err = client.predict(&loaded.model, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap_err();
    assert!(err.to_string().contains("measurements"), "{err}");

    // Loading a nonexistent path is an error, not a crash.
    let err = client.load_model("/nonexistent/nope.artifact").unwrap_err();
    assert!(err.to_string().contains("I/O"), "{err}");

    // The connection survived all three errors.
    let stats = client.stats().expect("stats still works");
    assert_eq!(stats.errors, 3);

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn traced_requests_stitch_into_one_chrome_trace() {
    let _obs = obs_lock();
    pathrep_obs::set_enabled(true);
    pathrep_obs::flight::set_capacity(pathrep_obs::config::TRACE_CAPACITY);
    pathrep_obs::reset();

    let demo = build_quickstart_model().expect("quickstart model builds");
    let path = temp_path("trace.artifact");
    demo.artifact.save(&path).expect("artifact saves");
    let handle = Server::bind(test_config())
        .expect("bind ephemeral port")
        .spawn()
        .expect("server spawns");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // An untraced request: the daemon mints a context and echoes it.
    let loaded = client.load_model(&path).expect("load");
    let minted = client.last_trace().expect("daemon echoes a minted context");
    assert!(
        minted.trace_id >= (1 << 48),
        "server-minted ids live above 2^48, got {}",
        minted.trace_id
    );

    // A traced request: the caller's context is propagated and echoed.
    let ctx = TraceContext {
        trace_id: 0xA11CE,
        request_seq: 1,
    };
    let chips = demo.measure_chips(1, 3).expect("chips");
    {
        let _g = pathrep_obs::trace::set_context(ctx);
        let _span = pathrep_obs::span!("client.predict");
        client.predict(&loaded.model, &chips[0]).expect("predict");
    }
    assert_eq!(client.last_trace(), Some(ctx), "daemon echoes the sent context");

    client.shutdown().expect("shutdown");
    handle.join();

    // Client and daemon ran in one process here, so split the shared
    // flight ring by span namespace to fabricate the two per-process
    // trace files a real deployment exports.
    let (records, overwritten) = pathrep_obs::flight::snapshot();
    assert_eq!(overwritten, 0);
    let (client_recs, server_recs): (Vec<_>, Vec<_>) = records
        .into_iter()
        .partition(|r| r.name.starts_with("client."));
    assert!(!client_recs.is_empty() && !server_recs.is_empty());
    let client_trace = pathrep_obs::flight::render_chrome(&client_recs, 0, 100);
    let server_trace = pathrep_obs::flight::render_chrome(&server_recs, 0, 200);

    let merged = stitch_traces(&[
        ("client_trace.json".to_owned(), client_trace),
        ("server_trace.json".to_owned(), server_trace),
    ])
    .expect("stitch succeeds");
    let parsed = pathrep_obs::json::parse(&merged).expect("merged trace parses");
    let parsed = parsed.array().expect("merged trace is an array");

    // Every (pid, tid) track must carry balanced, never-negative B/E
    // nesting — stitching must not interleave files into broken stacks.
    let mut depth: std::collections::BTreeMap<(u64, u64), i64> = std::collections::BTreeMap::new();
    let mut traced_pids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for ev in parsed {
        let pid = ev.field("pid").unwrap().number().unwrap() as u64;
        let tid = ev.field("tid").unwrap().number().unwrap() as u64;
        let d = depth.entry((pid, tid)).or_insert(0);
        match ev.field("ph").unwrap().string().unwrap().as_str() {
            "B" => *d += 1,
            "E" => {
                *d -= 1;
                assert!(*d >= 0, "end without begin on pid {pid} tid {tid}");
            }
            "i" => {}
            other => panic!("unexpected phase {other}"),
        }
        if let Ok(args) = ev.field("args") {
            if args.field("trace_id").and_then(|t| t.number()) == Ok(0xA11CE as f64) {
                traced_pids.insert(pid);
            }
        }
    }
    assert!(depth.values().all(|&d| d == 0), "unbalanced spans: {depth:?}");
    // The propagated trace_id shows up in BOTH stitched processes — the
    // cross-process correlation the telemetry plane exists for.
    assert_eq!(
        traced_pids.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "trace_id 0xA11CE must appear in both the client and server files"
    );

    pathrep_obs::set_enabled(false);
    pathrep_obs::flight::set_capacity(pathrep_obs::config::DEFAULT_FLIGHT_CAPACITY);
    pathrep_obs::reset();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_injection_trips_the_watchdog_and_flight_dumps_land_on_disk() {
    let _obs = obs_lock();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    pathrep_obs::flight::set_capacity(1024);
    // Route watchdog dumps to the temp dir, not the crate directory.
    let watchdog_dump = temp_path("watchdog_flight.json");
    std::env::set_var("PATHREP_OBS_FLIGHT_DUMP", &watchdog_dump);

    let demo = build_quickstart_model().expect("quickstart model builds");
    let path = temp_path("watchdog.artifact");
    demo.artifact.save(&path).expect("artifact saves");

    // Fault injection is refused unless the daemon opted in.
    let plain = Server::bind(test_config())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let mut refuse = Client::connect(plain.addr()).expect("connect");
    let err = refuse.set_fault(100).unwrap_err();
    assert!(err.to_string().contains("--allow-fault"), "{err}");
    refuse.shutdown().expect("shutdown");
    plain.join();

    // batch_max 1 so a stalled batch leaves the other clients' rows
    // queued — the depth>0 condition the watchdog requires.
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch_max: 1,
        queue_cap: 32,
        cache_cap: 2,
        watchdog_ms: Some(50),
        allow_fault: true,
        ..ServerConfig::default()
    };
    let handle = Server::bind(config).expect("bind").spawn().expect("spawn");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    let loaded = client.load_model(&path).expect("load");

    // An on-demand dump to an explicit path works while healthy.
    let ondemand = temp_path("ondemand_flight.json");
    let (dumped_path, _records, _dropped) =
        client.dump_flight(Some(&ondemand)).expect("dump_flight");
    assert_eq!(dumped_path, ondemand);
    let dump = std::fs::read_to_string(&ondemand).expect("dump file exists");
    pathrep_obs::json::parse(&dump)
        .expect("on-demand flight dump is valid JSON")
        .array()
        .expect("chrome trace array");

    // Stall the batcher past the watchdog deadline while rows queue.
    assert_eq!(client.set_fault(200).expect("fault accepted"), 200);
    let chips = demo.measure_chips(2, 11).expect("chips");
    let model_id = loaded.model.clone();
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let chips = chips.clone();
            let model_id = model_id.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("worker connects");
                for m in &chips {
                    c.predict(&model_id, m).expect("predict under fault");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker succeeds");
    }
    assert_eq!(client.set_fault(0).expect("fault cleared"), 0);

    let snap = pathrep_obs::registry().snapshot();
    let fires = snap
        .counters
        .iter()
        .find(|c| c.name == "serve.watchdog_fires")
        .map_or(0, |c| c.value);
    assert!(fires >= 1, "watchdog must fire during the stall: {snap:?}");
    let watchdog_json = std::fs::read_to_string(&watchdog_dump)
        .expect("watchdog wrote its flight dump");
    assert!(
        watchdog_json.contains("serve.watchdog"),
        "dump carries the watchdog's instant mark"
    );

    client.shutdown().expect("shutdown");
    handle.join();
    std::env::remove_var("PATHREP_OBS_FLIGHT_DUMP");
    pathrep_obs::set_enabled(false);
    pathrep_obs::reset();
    for f in [&path, &ondemand, &watchdog_dump] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn golden_artifact_is_byte_stable() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../golden/quickstart_model.artifact"
    );
    let committed = std::fs::read(golden).expect(
        "golden/quickstart_model.artifact must be committed \
         (generate with `pathrep-client build-artifact`)",
    );
    let demo = build_quickstart_model().expect("quickstart model builds");
    let rebuilt = demo.artifact.to_bytes();
    assert_eq!(
        committed, rebuilt,
        "the quickstart artifact drifted from the committed golden bytes — \
         an algorithm or serialization change altered the model"
    );
    // And the committed bytes parse back into a valid, usable model.
    let (art, id) = ModelArtifact::from_bytes(&committed).expect("golden parses");
    assert_eq!(id, demo.artifact.model_id());
    let chips = demo.measure_chips(2, 3).expect("chips");
    for m in &chips {
        let a = art.predictor.predict(m).expect("golden predicts");
        let b = demo.artifact.predictor.predict(m).expect("fresh predicts");
        assert_eq!(a, b);
    }
}
