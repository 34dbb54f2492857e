//! The reactor runtime's core invariant: replies are bit-identical to the
//! offline predictor at any shard count, for either wire protocol,
//! including when JSON and binary clients interleave on one daemon — and
//! when the daemon sheds load, every reply it does serve still is.

use pathrep_serve::demo::{build_quickstart_model, DemoModel};
use pathrep_serve::{Client, ClientError, Server, ServerConfig, WireProtocol};
use std::sync::{Arc, Barrier, Mutex, OnceLock};

/// Daemon tests mutate the global obs registry; serialize them (and
/// recover the lock if an earlier test's assert poisoned it).
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn demo() -> &'static DemoModel {
    static DEMO: OnceLock<DemoModel> = OnceLock::new();
    DEMO.get_or_init(|| build_quickstart_model().expect("quickstart model builds"))
}

fn artifact_path() -> &'static str {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let mut p = std::env::temp_dir();
        p.push(format!("pathrep_serve_sharded_{}.artifact", std::process::id()));
        let p = p.to_string_lossy().into_owned();
        demo().artifact.save(&p).expect("artifact saves");
        p
    })
}

fn config(shards: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch_max: 4,
        queue_cap: 64,
        cache_cap: 2,
        shards,
        ..ServerConfig::default()
    }
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i} differs");
    }
}

/// Run every chip through one daemon at the given shard count with the
/// given protocol: per-chip `predict` calls plus one `predict_batch`,
/// returning `(per_chip_replies, batch_reply)`.
fn serve_round(
    shards: usize,
    proto: WireProtocol,
    chips: &[Vec<f64>],
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let handle = Server::bind(config(shards)).expect("bind").spawn().expect("spawn");
    let addr = handle.addr();
    let loaded = Client::connect(addr)
        .expect("connect")
        .load_model(artifact_path())
        .expect("load");
    let mut client = Client::connect(addr).expect("connect");
    client.set_protocol(proto);
    let singles: Vec<Vec<f64>> = chips
        .iter()
        .map(|m| client.predict(&loaded.model, m).expect("predict"))
        .collect();
    let batch = client.predict_batch(&loaded.model, chips).expect("batch");
    let stats = Client::connect(addr).expect("connect").stats().expect("stats");
    assert_eq!(stats.errors, 0, "shards={shards} round must be error-free: {stats:?}");
    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    let final_stats = handle.join();
    assert_eq!(final_stats.errors, 0, "shards={shards}: drain saw errors");
    (singles, batch)
}

#[test]
fn replies_are_byte_identical_at_any_shard_count_and_protocol() {
    let _obs = obs_lock();
    let chips = demo().measure_chips(10, 23).expect("chips fabricate");
    let offline: Vec<Vec<f64>> = chips
        .iter()
        .map(|m| demo().artifact.predictor.predict(m).expect("offline"))
        .collect();

    for shards in [1, 4] {
        for proto in [WireProtocol::Json, WireProtocol::Binary] {
            let (singles, batch) = serve_round(shards, proto, &chips);
            for (k, (got, want)) in singles.iter().zip(offline.iter()).enumerate() {
                assert_bits_eq(got, want, &format!("shards={shards} {proto:?} chip {k}"));
            }
            for (k, (got, want)) in batch.iter().zip(offline.iter()).enumerate() {
                assert_bits_eq(got, want, &format!("shards={shards} {proto:?} batch row {k}"));
            }
        }
    }
}

#[test]
fn mixed_protocol_clients_interleave_on_one_sharded_daemon() {
    let _obs = obs_lock();
    let chips = demo().measure_chips(12, 41).expect("chips fabricate");
    let offline: Vec<Vec<f64>> = chips
        .iter()
        .map(|m| demo().artifact.predictor.predict(m).expect("offline"))
        .collect();

    let handle = Server::bind(config(2)).expect("bind").spawn().expect("spawn");
    let addr = handle.addr();
    let loaded = Client::connect(addr)
        .expect("connect")
        .load_model(artifact_path())
        .expect("load");

    // 2 JSON + 2 binary clients hammer the same chips concurrently, so
    // both framings share reactor loops, shard queues and batches.
    let workers: Vec<_> = [
        WireProtocol::Json,
        WireProtocol::Binary,
        WireProtocol::Json,
        WireProtocol::Binary,
    ]
    .into_iter()
    .enumerate()
    .map(|(c, proto)| {
        let chips = chips.clone();
        let offline = offline.clone();
        let model = loaded.model.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("worker connects");
            client.set_protocol(proto);
            for (k, m) in chips.iter().enumerate().skip(c % 3) {
                let got = client.predict(&model, m).expect("predict");
                assert_bits_eq(&got, &offline[k], &format!("client {c} ({proto:?}) chip {k}"));
            }
            let got = client.predict_batch(&model, &chips).expect("batch");
            for (k, (row, want)) in got.iter().zip(offline.iter()).enumerate() {
                assert_bits_eq(row, want, &format!("client {c} ({proto:?}) batch row {k}"));
            }
        })
    })
    .collect();
    for w in workers {
        w.join().expect("worker threads succeed");
    }

    let stats = Client::connect(addr).expect("connect").stats().expect("stats");
    assert_eq!(stats.errors, 0, "mixed-protocol soak must be error-free: {stats:?}");
    assert!(stats.predictions > 0);
    Client::connect(addr).expect("connect").shutdown().expect("shutdown");
    assert_eq!(handle.join().errors, 0);
}

#[test]
fn binary_protocol_surfaces_typed_server_errors() {
    let _obs = obs_lock();
    let handle = Server::bind(config(2)).expect("bind").spawn().expect("spawn");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.set_protocol(WireProtocol::Binary);

    // Unknown model over the binary framing is a server error reply, and
    // the connection survives it.
    let err = client.predict("0000000000000000", &[1.0]).unwrap_err();
    assert!(err.to_string().contains("not loaded"), "{err}");

    let loaded = client.load_model(artifact_path()).expect("load");
    let err = client
        .predict(&loaded.model, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        .unwrap_err();
    assert!(err.to_string().contains("measurements"), "{err}");

    // The same connection still serves good requests afterwards.
    let chips = demo().measure_chips(1, 5).expect("chips");
    let got = client.predict(&loaded.model, &chips[0]).expect("predict");
    let want = demo().artifact.predictor.predict(&chips[0]).expect("offline");
    assert_bits_eq(&got, &want, "post-error predict");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 2);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn a_batch_wider_than_the_queue_is_served_on_an_idle_daemon() {
    let _obs = obs_lock();
    let chips = demo().measure_chips(10, 67).expect("chips fabricate");
    let config = ServerConfig {
        queue_cap: 4,
        ..config(1)
    };
    let handle = Server::bind(config).expect("bind").spawn().expect("spawn");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let loaded = client.load_model(artifact_path()).expect("load");
    for proto in [WireProtocol::Json, WireProtocol::Binary] {
        client.set_protocol(proto);
        let got = client
            .predict_batch(&loaded.model, &chips)
            .expect("an empty queue admits a batch wider than queue_cap");
        assert_eq!(got.len(), chips.len());
        for (k, (row, m)) in got.iter().zip(&chips).enumerate() {
            let want = demo().artifact.predictor.predict(m).expect("offline");
            assert_bits_eq(row, &want, &format!("{proto:?} oversize batch row {k}"));
        }
    }
    client.shutdown().expect("shutdown");
    assert_eq!(handle.join().errors, 0);
}

#[test]
fn a_full_queue_sheds_with_a_typed_reply_and_the_connection_survives() {
    let _obs = obs_lock();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    let chips = demo().measure_chips(3, 59).expect("chips fabricate");
    let offline: Vec<Vec<f64>> = chips
        .iter()
        .map(|m| demo().artifact.predictor.predict(m).expect("offline"))
        .collect();

    // One row per batch, a 25 ms stall per batch and room for two queued
    // rows: six clients released together overfill the queue.
    let config = ServerConfig {
        batch_max: 1,
        queue_cap: 2,
        allow_fault: true,
        ..config(1)
    };
    let handle = Server::bind(config).expect("bind").spawn().expect("spawn");
    let addr = handle.addr();
    let mut control = Client::connect(addr).expect("connect");
    let model = control.load_model(artifact_path()).expect("load").model;
    control.set_fault(25).expect("fault accepted");

    let clients = 6;
    let start = Arc::new(Barrier::new(clients));
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let (chips, offline, model) = (chips.clone(), offline.clone(), model.clone());
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connects");
                let proto = [WireProtocol::Json, WireProtocol::Binary][c % 2];
                client.set_protocol(proto);
                start.wait();
                let mut shed = 0u64;
                for (k, m) in chips.iter().enumerate() {
                    // A shed request is retried on the same connection.
                    loop {
                        match client.predict(&model, m) {
                            Ok(got) => {
                                let what = format!("client {c} ({proto:?}) chip {k}");
                                assert_bits_eq(&got, &offline[k], &what);
                                break;
                            }
                            Err(ClientError::Server(msg))
                                if msg.starts_with("server overloaded") =>
                            {
                                shed += 1;
                                std::thread::sleep(std::time::Duration::from_millis(5));
                            }
                            Err(e) => panic!("client {c} chip {k}: {e}"),
                        }
                    }
                }
                shed
            })
        })
        .collect();
    let shed: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("worker threads succeed"))
        .sum();
    control.set_fault(0).expect("fault cleared");

    assert!(shed >= 1, "six concurrent clients must overfill a 2-row queue");
    let counted = pathrep_obs::registry()
        .snapshot()
        .counters
        .iter()
        .find(|c| c.name == "serve.shard.shed")
        .map_or(0, |c| c.value);
    assert_eq!(counted, shed, "serve.shard.shed counts every shed reply");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.errors, shed, "sheds are the only errors");
    assert_eq!(stats.predictions, (clients * chips.len()) as u64);
    control.shutdown().expect("shutdown");
    handle.join();
    pathrep_obs::set_enabled(false);
    pathrep_obs::reset();
}
