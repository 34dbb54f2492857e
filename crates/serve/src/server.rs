//! The batching prediction daemon: configuration, shared state and the
//! public [`Server`] API.
//!
//! [`Server::run`] drives the reactor runtime in [`crate::shard`]: an
//! accept thread hands sockets to `shards` readiness-loop reactors (one by
//! default), prediction rows route by model id to per-shard bounded
//! queues, and one batcher per shard coalesces same-model rows into a
//! single `MeasurementPredictor::predict_batch` call (the numeric
//! fan-out reuses the `pathrep-par` pool). This module holds what every
//! part of that runtime shares: the [`ServerConfig`] knobs, the LRU
//! artifact cache, the lifetime [`ServerStats`] counters, and the answers
//! to the control requests (`load_model`, `stats`, `dump_flight`,
//! `set_fault`), which reactors serve inline.
//!
//! **Failure forensics.** Each shard batcher stamps a heartbeat when it
//! picks up and when it finishes a batch; a watchdog thread
//! (`PATHREP_SERVE_WATCHDOG_MS`, default 5 s) fires when rows are queued
//! but a heartbeat has gone quiet past the deadline — warning, counting
//! `serve.watchdog_fires` and dumping the always-on flight recorder
//! ([`pathrep_obs::flight`]) so the stall's evidence is on disk while the
//! stall is still live. `dump_flight` requests trigger the same dump on
//! demand, and `set_fault` (gated behind `--allow-fault`) injects a
//! per-batch slowdown so gates can provoke breaches and stalls on purpose.

use crate::artifact::{ArtifactError, ModelArtifact};
use crate::protocol::{Request, Response, ServerStats, TraceContext};
use pathrep_obs::{config as obs_config, flight, ledger};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Trace ids the server mints for untraced (pre-trace-protocol) requests
/// start here: far above any client-chosen id in practice, and well
/// below 2⁵³ so the id survives the JSON `f64` round trip.
const SERVER_TRACE_BASE: u64 = 1 << 48;

/// Sequence for server-minted trace ids.
static SERVER_TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The effective trace context for a request: the client's, or a freshly
/// minted server-side one when the frame carried none.
pub(crate) fn effective_trace(wire: Option<TraceContext>) -> TraceContext {
    wire.unwrap_or_else(|| {
        let seq = SERVER_TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            trace_id: SERVER_TRACE_BASE + seq,
            request_seq: seq,
        }
    })
}

/// Runtime knobs, resolved from `PATHREP_SERVE_*` (all registered in
/// [`pathrep_obs::config::ALL_ENV_VARS`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`PATHREP_SERVE_ADDR`, default `127.0.0.1:7878`;
    /// port 0 binds an ephemeral port).
    pub addr: String,
    /// Micro-batch flush size (`PATHREP_SERVE_BATCH`, default 32).
    pub batch_max: usize,
    /// Per-shard bounded queue capacity in rows (`PATHREP_SERVE_QUEUE`,
    /// default 256). A request that would overfill a non-empty queue is
    /// shed with a typed `server overloaded` reply; a request arriving at
    /// an empty queue is always admitted, however many rows it carries.
    pub queue_cap: usize,
    /// LRU model-cache capacity (`PATHREP_SERVE_CACHE`, default 8).
    pub cache_cap: usize,
    /// Stall-watchdog deadline in milliseconds
    /// (`PATHREP_SERVE_WATCHDOG_MS`, default 5000; `None`/`0` disables):
    /// when prediction rows are queued but a batcher heartbeat has been
    /// quiet this long, the watchdog warns and dumps the flight recorder.
    pub watchdog_ms: Option<u64>,
    /// Whether `set_fault` requests are honoured (`--allow-fault`; the
    /// observability gate uses it to provoke batcher stalls).
    pub allow_fault: bool,
    /// Panic inside the request span once this many requests have been
    /// served (`--inject-panic N`; gate-only — proves the panic hook gets
    /// the flight dump onto disk with the dying request's trace id).
    pub inject_panic: Option<u64>,
    /// Reactor shard count (`PATHREP_SERVE_SHARDS`, default 1; 0 is
    /// treated as 1). Each shard is a readiness loop with its own batcher
    /// (see [`crate::shard`]); model ids route to shards by consistent
    /// hash, so same-model requests batch locally.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            batch_max: 32,
            queue_cap: 256,
            cache_cap: 8,
            watchdog_ms: Some(5000),
            allow_fault: false,
            inject_panic: None,
            shards: 1,
        }
    }
}

fn env_usize(var: &str, default: usize) -> usize {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("pathrep-serve: [warn] ignoring invalid {var}={v:?} (using {default})");
                default
            }
        },
        _ => default,
    }
}

impl ServerConfig {
    /// Resolves the configuration from the environment, falling back to
    /// the defaults above. Invalid values warn and fall back rather than
    /// aborting the daemon.
    pub fn from_env() -> Self {
        let d = ServerConfig::default();
        ServerConfig {
            addr: std::env::var(obs_config::ENV_SERVE_ADDR)
                .ok()
                .filter(|v| !v.trim().is_empty())
                .unwrap_or(d.addr),
            batch_max: env_usize(obs_config::ENV_SERVE_BATCH, d.batch_max),
            queue_cap: env_usize(obs_config::ENV_SERVE_QUEUE, d.queue_cap),
            cache_cap: env_usize(obs_config::ENV_SERVE_CACHE, d.cache_cap),
            watchdog_ms: obs_config::serve_watchdog_ms(),
            allow_fault: false,
            inject_panic: None,
            shards: env_usize(obs_config::ENV_SERVE_SHARDS, d.shards),
        }
    }
}

/// Move-to-front LRU of loaded artifacts, keyed by model id.
struct ModelCache {
    entries: Mutex<Vec<(String, Arc<ModelArtifact>)>>,
    cap: usize,
}

impl ModelCache {
    fn new(cap: usize) -> Self {
        ModelCache {
            entries: Mutex::new(Vec::new()),
            cap: cap.max(1),
        }
    }

    fn get(&self, id: &str) -> Option<Arc<ModelArtifact>> {
        let mut e = self.entries.lock().unwrap();
        let pos = e.iter().position(|(k, _)| k == id)?;
        let entry = e.remove(pos);
        let art = Arc::clone(&entry.1);
        e.insert(0, entry);
        Some(art)
    }

    fn insert(&self, id: String, art: Arc<ModelArtifact>) -> usize {
        let mut e = self.entries.lock().unwrap();
        e.retain(|(k, _)| *k != id);
        e.insert(0, (id, art));
        e.truncate(self.cap);
        e.len()
    }

    fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }
}

/// Monotonic daemon statistics (lifetime, lock-free).
#[derive(Default)]
pub(crate) struct Stats {
    pub(crate) requests: AtomicU64,
    pub(crate) predictions: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) max_batch: AtomicU64,
    pub(crate) model_loads: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) queue_high_water: AtomicU64,
}

impl Stats {
    pub(crate) fn bump_max(cell: &AtomicU64, value: u64) {
        cell.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, models_cached: u64) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            predictions: self.predictions.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            model_loads: self.model_loads.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            queue_high_water: self.queue_high_water.load(Ordering::Relaxed),
            models_cached,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    cache: ModelCache,
    pub(crate) stats: Stats,
    pub(crate) stopping: AtomicBool,
    /// Process-local epoch the batcher heartbeats are measured against.
    pub(crate) epoch: Instant,
    /// Injected per-batch slowdown in milliseconds (0 = healthy); set by
    /// `set_fault` when the daemon allows it.
    pub(crate) fault_ms: AtomicU64,
}

impl Shared {
    pub(crate) fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

/// A bound, not-yet-running server. Binding is separate from running so
/// callers (tests, the daemon binary) can learn the ephemeral port first.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    join: std::thread::JoinHandle<ServerStats>,
}

impl ServerHandle {
    /// The bound address (with the real port even when 0 was requested).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Waits for the daemon to drain and exit, returning its final
    /// lifetime statistics.
    pub fn join(self) -> ServerStats {
        self.join.join().expect("server thread must not panic")
    }
}

impl Server {
    /// Binds the listener described by `config`.
    ///
    /// # Errors
    ///
    /// The underlying bind failure (address in use, permission, …).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            cache: ModelCache::new(config.cache_cap),
            stats: Stats::default(),
            stopping: AtomicBool::new(false),
            epoch: Instant::now(),
            fault_ms: AtomicU64::new(0),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (with the real port even when 0 was requested).
    ///
    /// # Errors
    ///
    /// Propagates the OS failure to report the local address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon on the calling thread until a `Shutdown` request
    /// drains it; returns the final lifetime statistics.
    ///
    /// # Errors
    ///
    /// Fatal listener or reactor set-up failures only; per-connection
    /// errors are handled and counted, never fatal.
    pub fn run(self) -> std::io::Result<ServerStats> {
        crate::shard::run(self.listener, self.shared)
    }

    /// Spawns [`Server::run`] on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the OS failure to report the local address.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let join = std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || self.run().expect("server run loop"))?;
        Ok(ServerHandle { addr, join })
    }
}

pub(crate) fn load_artifact(shared: &Shared, path: &str) -> Result<(Arc<ModelArtifact>, String), ArtifactError> {
    let _span = pathrep_obs::span!("serve.load_model");
    let (artifact, id) = ModelArtifact::load(path)?;
    let artifact = Arc::new(artifact);
    let cached = shared.cache.insert(id.clone(), Arc::clone(&artifact));
    shared.stats.model_loads.fetch_add(1, Ordering::Relaxed);
    pathrep_obs::counter_add("serve.model_loads", 1);
    pathrep_obs::gauge_set("serve.cache_size", cached as f64);
    ledger::record("serve", "model_load", |f| {
        f.text("model", &id)
            .text("label", &artifact.label)
            .text("path", path)
            .int("targets", artifact.predictor.target_count() as u64)
            .int("measurements", artifact.predictor.measurement_count() as u64)
            .num("epsilon_r", artifact.selection.epsilon_r)
            .num("guard_band_phi", artifact.guard_band_phi);
    });
    Ok((artifact, id))
}

/// Resolves a model id against the cache, counting the hit or miss.
pub(crate) fn resolve_model(shared: &Shared, id: &str) -> Result<Arc<ModelArtifact>, String> {
    match shared.cache.get(id) {
        Some(art) => {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            pathrep_obs::counter_add("serve.cache_hits", 1);
            Ok(art)
        }
        None => {
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            pathrep_obs::counter_add("serve.cache_misses", 1);
            Err(format!(
                "model `{id}` is not loaded (send load_model first; the LRU cache holds {} models)",
                shared.config.cache_cap
            ))
        }
    }
}

/// Answers a control request. The reactor serves the hot-path requests
/// (`predict`, `predict_batch`) and `shutdown` itself and never passes
/// them here.
pub(crate) fn respond_to(shared: &Shared, req: Request) -> Response {
    match req {
        Request::LoadModel { path } => match load_artifact(shared, &path) {
            Ok((artifact, model)) => Response::Loaded {
                model,
                label: artifact.label.clone(),
                targets: artifact.predictor.target_count(),
                measurements: artifact.predictor.measurement_count(),
            },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
        Request::Stats => Response::Stats(
            shared
                .stats
                .snapshot(shared.cache.len() as u64),
        ),
        Request::DumpFlight { path } => {
            let path = path.unwrap_or_else(obs_config::flight_dump_path);
            match flight::dump_to(&path) {
                Ok((records, dropped)) => Response::FlightDumped {
                    path,
                    records: records as u64,
                    dropped,
                },
                Err(e) => Response::Error {
                    message: format!("flight dump to {path} failed: {e}"),
                },
            }
        }
        Request::SetFault { slowdown_ms } => {
            if !shared.config.allow_fault {
                Response::Error {
                    message: "fault injection is disabled \
                              (start the daemon with --allow-fault)"
                        .into(),
                }
            } else {
                shared.fault_ms.store(slowdown_ms, Ordering::SeqCst);
                pathrep_obs::gauge_set("serve.fault_slowdown_ms", slowdown_ms as f64);
                pathrep_obs::warn("serve.fault", || {
                    format!("injected batcher slowdown set to {slowdown_ms} ms")
                });
                Response::FaultSet { slowdown_ms }
            }
        }
        Request::Predict { .. } | Request::PredictBatch { .. } | Request::Shutdown => {
            unreachable!("the reactor serves predictions and shutdown itself")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrep_core::predictor::MeasurementPredictor;
    use pathrep_linalg::Matrix;

    #[test]
    fn config_from_env_falls_back_on_garbage() {
        // Use the real vars briefly; restore to avoid cross-test leakage.
        std::env::set_var(obs_config::ENV_SERVE_BATCH, "not-a-number");
        std::env::set_var(obs_config::ENV_SERVE_QUEUE, "0");
        std::env::set_var(obs_config::ENV_SERVE_SHARDS, "0");
        let c = ServerConfig::from_env();
        assert_eq!(c.batch_max, ServerConfig::default().batch_max);
        assert_eq!(c.queue_cap, ServerConfig::default().queue_cap);
        assert_eq!(c.shards, 1, "shard count 0 is rejected; the default is one reactor");
        std::env::remove_var(obs_config::ENV_SERVE_BATCH);
        std::env::remove_var(obs_config::ENV_SERVE_QUEUE);
        std::env::remove_var(obs_config::ENV_SERVE_SHARDS);
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let cache = ModelCache::new(2);
        let art = |label: &str| {
            let (a, _) = ModelArtifact::from_bytes(&demo_artifact(label).to_bytes()).unwrap();
            Arc::new(a)
        };
        cache.insert("a".into(), art("a"));
        cache.insert("b".into(), art("b"));
        assert!(cache.get("a").is_some(), "touch `a` so `b` becomes LRU");
        cache.insert("c".into(), art("c"));
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        assert!(cache.get("b").is_none(), "`b` was least recently used");
        assert_eq!(cache.len(), 2);
    }

    fn demo_artifact(label: &str) -> ModelArtifact {
        let coef = Matrix::from_fn(2, 2, |i, j| (i + j) as f64 * 0.5 + 0.25);
        ModelArtifact {
            label: label.into(),
            selection: crate::artifact::SelectionMeta {
                epsilon: 0.05,
                epsilon_r: 0.01,
                eta: 0.05,
                rank: 2,
                effective_rank: 2,
                t_cons: 100.0,
                selected: vec![0, 1],
                remaining: vec![2, 3],
            },
            guard_band_phi: 1.0,
            predictor: MeasurementPredictor::from_parts(
                coef,
                vec![10.0, 11.0],
                vec![12.0, 13.0],
                vec![0.1, 0.2],
                3.0,
            )
            .unwrap(),
        }
    }
}
