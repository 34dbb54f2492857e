//! # pathrep-obs — observability substrate for the pathrep pipeline
//!
//! A dependency-free instrumentation layer (std + the vendored
//! `parking_lot`/`serde` shims only) giving every stage of the DAC-2010
//! flow — path extraction, SVD/QR subset selection, the ε_r decrement
//! loop, the ADMM segment program and the Monte-Carlo evaluation —
//! spans, counters, gauges, histograms and warning events, collected in a
//! global thread-safe [`Registry`].
//!
//! ## Design rules
//!
//! * **Disabled means free.** Every recording call first checks
//!   [`enabled`] — a single relaxed atomic load — and returns immediately
//!   when telemetry is off, so instrumented kernels cost ~nothing in
//!   benchmarks.
//! * **Hierarchical spans.** [`span!`] returns an RAII guard; nested
//!   guards on the same thread build slash-separated paths
//!   (`"table1/prepare/extract"`) aggregated per path in the registry.
//! * **Structured export.** [`Registry::snapshot`] produces a plain-data
//!   [`Snapshot`] renderable as a text tree ([`Snapshot::render`]) or JSON
//!   ([`Snapshot::to_json`] / [`Snapshot::from_json`]).
//!
//! ## Environment variables
//!
//! * `PATHREP_OBS=1` — enable collection; experiment binaries then print a
//!   telemetry section after their tables.
//! * `PATHREP_OBS_JSON=<path>` — additionally append one JSON line per
//!   [`report`] call to `<path>`.
//! * `PATHREP_OBS_TRACE=<path>` — raise the flight ring to at least
//!   [`config::TRACE_CAPACITY`] records and write it at [`report`] as
//!   balanced Chrome Trace Event JSON (open in `chrome://tracing` or
//!   Perfetto); see [`flight`]. Requires `PATHREP_OBS=1`.
//! * `PATHREP_OBS_PROM=<path>` — write the snapshot at [`report`] in the
//!   Prometheus text exposition format; see [`prom`].
//! * `PATHREP_OBS_LEDGER=<path>` — append numerical-health records
//!   (condition numbers, `ε_r` traces, ADMM residual curves, guard-bands)
//!   as JSON Lines at [`report`]; see [`ledger`]. Works **without**
//!   `PATHREP_OBS=1`.
//! * `PATHREP_OBS_RUN_ID=<id>` — override the run id stamped on ledger
//!   records (defaults to `pid<process id>`).
//! * `PATHREP_OBS_HTTP=<addr>` — serve `GET /metrics`, `/healthz` and
//!   `/snapshot.json` from a background listener scraping the **live**
//!   registry; see [`http`]. `…:0` binds an ephemeral port.
//! * `PATHREP_THREADS=<n>` — worker count for the `pathrep-par` kernel
//!   pool (registered in [`config::ALL_ENV_VARS`] so the drift guard
//!   covers it); `1` = sequential, unset or `0` = available parallelism.
//!   Results are bit-identical at any setting.
//! * `PATHREP_OBS_FLIGHT=<cap>` — capacity of the always-on flight
//!   recorder ring (see [`flight`]), the one span recorder; unset means
//!   the default small capacity, `0`/`off` disables it. Dumped on panic,
//!   stall, request, or at [`report`] under `PATHREP_OBS_TRACE`.
//! * `PATHREP_OBS_FLIGHT_DUMP=<path>` — where panic-hook/watchdog flight
//!   dumps land (default `flight_<pid>.json`).
//!
//! All parsing of these variables lives in [`config`]; export failures
//! warn on stderr and never abort the run.
//!
//! ## Example
//!
//! ```
//! pathrep_obs::set_enabled(true);
//! {
//!     let _outer = pathrep_obs::span!("stage");
//!     let _inner = pathrep_obs::span!("kernel");
//!     pathrep_obs::counter_add("stage.kernel.calls", 1);
//! }
//! let snap = pathrep_obs::registry().snapshot();
//! assert_eq!(snap.counters[0].name, "stage.kernel.calls");
//! let round_trip = pathrep_obs::Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(round_trip.counters[0].value, 1);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod flight;
pub mod hdr;
pub mod http;
pub mod json;
pub mod ledger;
pub mod prom;
mod registry;
pub mod selftime;
mod snapshot;
mod span;
pub mod trace;
pub mod work;

pub use hdr::HdrHistogram;
pub use registry::{registry, Event, Level, Registry, MAX_EVENTS};
pub use snapshot::{
    CounterSnapshot, EventSnapshot, GaugeSnapshot, HistogramSnapshot, Snapshot, SpanNode,
};
pub use span::{adopt_span_parent, current_span_path, ParentSpanGuard, SpanGuard};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = undecided (read env on first query), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry collection is on. The first call resolves the
/// `PATHREP_OBS` environment variable (`1`/`true`/`on` enable); later
/// calls are a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = config::obs_enabled_from_env();
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Programmatically enables or disables collection, overriding the
/// environment (used by tests and by embedding applications).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Opens a span named `name` under the current thread's innermost open
/// span; prefer the [`span!`] macro. The returned guard records the
/// span's wall-clock duration into the global registry when dropped.
#[inline]
pub fn span_enter(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// Adds `delta` to the monotonic counter `name`.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        registry().counter_add_slow(name, delta);
    }
}

/// Sets the gauge `name` to `value` (last write wins).
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        registry().gauge_set_slow(name, value);
    }
}

/// Records `value` into the log-bucketed HDR histogram `name` (~2 %
/// relative-error buckets at any scale, no preconfigured edges; see
/// [`hdr`]), so residuals spanning decades and tail latencies
/// (p999/p9999) both resolve.
#[inline]
pub fn histogram_record(name: &'static str, value: f64) {
    if enabled() {
        registry().histogram_record_slow(name, value);
    }
}

/// Records a warning event (e.g. an unconverged solver), keeping the
/// first [`registry::MAX_EVENTS`] events. Events also land in the flight
/// ring as instant marks, so a post-mortem dump shows them in-line with
/// the spans that surrounded them.
#[inline]
pub fn warn(name: &'static str, message: impl FnOnce() -> String) {
    if enabled() {
        let msg = message();
        if flight::collecting() {
            flight::instant(name, msg.clone());
        }
        registry().event_slow(Level::Warn, name, msg);
    }
}

/// Records an informational event (also mirrored into the flight ring;
/// see [`warn`]).
#[inline]
pub fn info(name: &'static str, message: impl FnOnce() -> String) {
    if enabled() {
        let msg = message();
        if flight::collecting() {
            flight::instant(name, msg.clone());
        }
        registry().event_slow(Level::Info, name, msg);
    }
}

/// Clears every metric in the global registry, the ledger buffer, the
/// flight ring and the calling thread's pending work tallies (tests and
/// long-lived embedders).
pub fn reset() {
    registry().reset();
    ledger::reset();
    flight::reset();
    work::reset_thread();
}

/// Emits the standard end-of-run telemetry report for an experiment
/// labelled `label`: when collection is enabled, prints the text tree to
/// stdout and honours the export environment variables —
/// `PATHREP_OBS_JSON=<path>` appends one JSON line
/// `{"label": …, "snapshot": …}`, `PATHREP_OBS_TRACE=<path>` writes the
/// flight ring as balanced Chrome Trace Event JSON,
/// `PATHREP_OBS_PROM=<path>` writes the snapshot in the Prometheus text
/// exposition format, and `PATHREP_OBS_LEDGER=<path>` drains the
/// numerical-health ledger as JSON Lines (this one works even when
/// `PATHREP_OBS` is unset). Export failures warn and continue — telemetry
/// never aborts a run.
pub fn report(label: &str) {
    // The ledger is gated on its own variable, not on `enabled()`:
    // accuracy diagnostics must not require the metrics report.
    if let Some(path) = config::ledger_path() {
        config::export_or_warn("ledger", &path, ledger::append_jsonl);
    }
    if !enabled() {
        return;
    }
    let snap = registry().snapshot();
    println!("\n── telemetry ({label}) ──");
    print!("{}", snap.render());
    if let Some(path) = config::json_path() {
        config::export_or_warn("snapshot", &path, |p| append_json_line(p, label, &snap));
    }
    if let Some(path) = config::trace_path() {
        config::export_or_warn("trace", &path, |p| flight::dump_to(p).map(drop));
    }
    if let Some(path) = config::prom_path() {
        config::export_or_warn("prometheus", &path, |p| prom::write_prometheus(p, &snap));
    }
}

fn append_json_line(path: &str, label: &str, snap: &Snapshot) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"label\":{},\"snapshot\":{}}}",
        json::escape_string(label),
        snap.to_json()
    )
}

/// Opens a hierarchical timing span: `let _g = pathrep_obs::span!("name")`.
/// The guard records the span's duration when it leaves scope; bind it to
/// a named `_`-prefixed variable so it lives to the end of the block.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_enter($name)
    };
}
