//! # pathrep-serve — batching prediction server + versioned artifact store
//!
//! The paper selects a small representative path set at design time so
//! that, post-silicon, *every* fabricated die's full timing can be
//! predicted from a handful of measurements — an inherently online,
//! high-fan-out workload. This crate turns the batch pipeline into that
//! online system:
//!
//! * [`artifact`] — schema-versioned, checksummed persistence of a
//!   [`pathrep_core::predictor::MeasurementPredictor`] plus its selection
//!   provenance (ε, η, r, selected path ids) and guard-band φ; the FNV-1a
//!   content hash is the model id.
//! * [`protocol`] — a length-prefixed JSON wire protocol (`load_model`,
//!   `predict`, `predict_batch`, `stats`, `shutdown`) with exact `f64`
//!   round-trips, so wire results are bit-identical to in-memory ones.
//! * [`binproto`] — a compact fixed-layout binary frame protocol beside
//!   the JSON one (one peeked byte disambiguates, per frame, on one
//!   socket): every `f64` travels as its raw IEEE-754 bit pattern, so
//!   the wire is bit-exact by construction, and batch payloads decode
//!   in one pass into the fused kernel's row-major layout.
//! * [`server`] — the daemon's public face ([`Server`], [`ServerConfig`]):
//!   configuration, an LRU artifact cache, lifetime statistics and the
//!   control requests. No async runtime; the numeric fan-out is the
//!   existing `pathrep-par` pool.
//! * [`shard`] — the one serving runtime: `PATHREP_SERVE_SHARDS` reactor
//!   shards (default 1) on the `pathrep-net` readiness loop, with
//!   consistent-hash routing of model ids to per-shard bounded queues
//!   whose batchers coalesce concurrent same-model predictions into one
//!   fused kernel (deterministic per-request output regardless of
//!   batching). A full queue sheds with a typed `server overloaded`
//!   reply instead of blocking, and shutdown drains every accepted
//!   request. Replies stay bit-identical to the offline predictor at any
//!   shard count or protocol.
//! * [`client`] — a blocking client used by `pathrep-client` and tests.
//!   Requests carry the caller's [`pathrep_obs::trace::TraceContext`]
//!   (backward-compatibly — old peers ignore it), so client and daemon
//!   spans share one `trace_id`.
//! * [`stitch`] — merges the client's and daemon's Chrome traces into a
//!   single file correlated by those shared trace ids.
//! * [`demo`] — the quickstart (Figure-1) model as a servable artifact.
//!
//! Configuration comes from `PATHREP_SERVE_ADDR` / `PATHREP_SERVE_BATCH` /
//! `PATHREP_SERVE_QUEUE` / `PATHREP_SERVE_CACHE` /
//! `PATHREP_SERVE_WATCHDOG_MS` / `PATHREP_SERVE_SHARDS` /
//! `PATHREP_SERVE_PROTO`, all registered in
//! [`pathrep_obs::config::ALL_ENV_VARS`]. Telemetry: per-request spans,
//! `serve.*` counters/gauges/histograms (exported as `pathrep_serve_*`
//! Prometheus families), and a `serve/model_load` ledger record per
//! artifact load.
//!
//! Failure-time forensics: the daemon binary installs the flight-recorder
//! panic hook (dump then exit 101), the server runs a per-shard
//! batcher-heartbeat stall watchdog, `dump_flight` requests pull the ring over the wire,
//! and `set_fault` (behind `--allow-fault`) lets gates inject sickness —
//! see [`pathrep_obs::flight`] and `scripts/obs_gate.sh`.

#![deny(missing_docs)]

pub mod artifact;
pub mod binproto;
pub mod client;
pub mod demo;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod stitch;

pub use artifact::{ArtifactError, ModelArtifact, SelectionMeta, ARTIFACT_SCHEMA_VERSION};
pub use client::{Client, ClientError, LoadedModel, WireProtocol};
pub use protocol::{Request, Response, ServerStats, TraceContext};
pub use server::{Server, ServerConfig, ServerHandle};
pub use stitch::stitch_traces;
