//! Centralized parsing of every `PATHREP_OBS*` environment variable.
//!
//! All export backends resolve their configuration through this module so
//! the variable names, the empty-value convention ("set but blank" means
//! "off") and the failure policy live in exactly one place. The failure
//! policy is: **telemetry can never abort a run** — every file-system error
//! on an export path is reported through [`warn_export`] and swallowed.

/// Enables metric collection (`1`/`true`/`on`/`yes`).
pub const ENV_OBS: &str = "PATHREP_OBS";
/// Appends one JSON snapshot line per [`crate::report`] call.
pub const ENV_JSON: &str = "PATHREP_OBS_JSON";
/// Raises the flight ring to at least [`TRACE_CAPACITY`] records and
/// writes it as Chrome Trace Event JSON at [`crate::report`].
pub const ENV_TRACE: &str = "PATHREP_OBS_TRACE";
/// Writes the final snapshot in Prometheus text exposition format.
pub const ENV_PROM: &str = "PATHREP_OBS_PROM";
/// Appends numerical-health records as JSONL (see [`crate::ledger`]).
pub const ENV_LEDGER: &str = "PATHREP_OBS_LEDGER";
/// Overrides the run id stamped on every ledger record.
pub const ENV_RUN_ID: &str = "PATHREP_OBS_RUN_ID";
/// Bind address of the live telemetry HTTP plane (`GET /metrics`,
/// `/healthz`, `/snapshot.json`); unset or blank disables it. `…:0`
/// binds an ephemeral port (see [`crate::http`]).
pub const ENV_HTTP: &str = "PATHREP_OBS_HTTP";
/// Worker-thread count for the parallel kernels (read by `pathrep-par`,
/// registered here so the env-drift guard covers it): unset or `0` means
/// available parallelism, `1` forces exact sequential execution. Results
/// are bit-identical at any setting; only wall time changes.
pub const ENV_THREADS: &str = "PATHREP_THREADS";

/// Listen address of the `pathrep-serve` daemon (read by `pathrep-serve`,
/// registered here so the env-drift guard covers it). Default
/// `127.0.0.1:7878`; `…:0` binds an ephemeral port.
pub const ENV_SERVE_ADDR: &str = "PATHREP_SERVE_ADDR";
/// Maximum prediction requests coalesced into one batched kernel call by
/// the `pathrep-serve` micro-batcher (default 32).
pub const ENV_SERVE_BATCH: &str = "PATHREP_SERVE_BATCH";
/// Bound in rows on each `pathrep-serve` shard's prediction queue; a
/// request that would overfill a non-empty queue is shed with a typed
/// `server overloaded` reply (default 256).
pub const ENV_SERVE_QUEUE: &str = "PATHREP_SERVE_QUEUE";
/// Capacity of the `pathrep-serve` LRU model-artifact cache (default 8).
pub const ENV_SERVE_CACHE: &str = "PATHREP_SERVE_CACHE";
/// Reactor shard count of the `pathrep-serve` daemon (registered here so
/// the env-drift guard covers it): unset means 1; `N > 0` runs N
/// readiness-loop shards with consistent-hash model routing; `0` and
/// garbage are rejected with a warning and fall back to 1.
pub const ENV_SERVE_SHARDS: &str = "PATHREP_SERVE_SHARDS";
/// Default wire protocol of `pathrep-client` hot-path requests (`json` or
/// `binary`; registered here so the env-drift guard covers it). The
/// daemon auto-detects per frame, so this is purely a client-side default.
pub const ENV_SERVE_PROTO: &str = "PATHREP_SERVE_PROTO";

/// Capacity of the always-on flight recorder ring (see [`crate::flight`]):
/// unset means the default small capacity, `0` or `off` disables
/// recording, any other integer sets the ring size in records.
pub const ENV_FLIGHT: &str = "PATHREP_OBS_FLIGHT";
/// Output path for flight-recorder dumps triggered by the panic hook or
/// the serve stall watchdog; defaults to `flight_<pid>.json` in the
/// working directory.
pub const ENV_FLIGHT_DUMP: &str = "PATHREP_OBS_FLIGHT_DUMP";
/// Stall-watchdog deadline in milliseconds for the `pathrep-serve`
/// batcher heartbeat (registered here so the env-drift guard covers it):
/// unset means the 5000 ms default, `0` disables the watchdog.
pub const ENV_SERVE_WATCHDOG_MS: &str = "PATHREP_SERVE_WATCHDOG_MS";

/// Every recognized pathrep environment variable, for docs and drift
/// guards.
pub const ALL_ENV_VARS: &[&str] = &[
    ENV_OBS,
    ENV_JSON,
    ENV_TRACE,
    ENV_PROM,
    ENV_LEDGER,
    ENV_RUN_ID,
    ENV_HTTP,
    ENV_THREADS,
    ENV_SERVE_ADDR,
    ENV_SERVE_BATCH,
    ENV_SERVE_QUEUE,
    ENV_SERVE_CACHE,
    ENV_SERVE_SHARDS,
    ENV_SERVE_PROTO,
    ENV_FLIGHT,
    ENV_FLIGHT_DUMP,
    ENV_SERVE_WATCHDOG_MS,
];

/// Whether `PATHREP_OBS` asks for collection (`1`/`true`/`on`/`yes`).
pub fn obs_enabled_from_env() -> bool {
    std::env::var(ENV_OBS)
        .map(|v| matches!(v.trim(), "1" | "true" | "on" | "yes"))
        .unwrap_or(false)
}

/// The value of a path-carrying variable, or `None` when unset or blank.
pub fn path_from_env(var: &str) -> Option<String> {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() => Some(v),
        _ => None,
    }
}

/// The JSON-lines snapshot export path (`PATHREP_OBS_JSON`).
pub fn json_path() -> Option<String> {
    path_from_env(ENV_JSON)
}

/// The Chrome-trace export path (`PATHREP_OBS_TRACE`).
pub fn trace_path() -> Option<String> {
    path_from_env(ENV_TRACE)
}

/// The Prometheus exposition export path (`PATHREP_OBS_PROM`).
pub fn prom_path() -> Option<String> {
    path_from_env(ENV_PROM)
}

/// The numerical-health ledger path (`PATHREP_OBS_LEDGER`).
pub fn ledger_path() -> Option<String> {
    path_from_env(ENV_LEDGER)
}

/// The live-telemetry HTTP bind address (`PATHREP_OBS_HTTP`).
pub fn http_addr() -> Option<String> {
    path_from_env(ENV_HTTP)
}

/// Default flight-recorder ring capacity when `PATHREP_OBS_FLIGHT` is
/// unset: small enough that the always-on ring is invisible in benchmarks,
/// large enough to hold the last few hundred requests' span records.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Minimum flight-ring capacity when `PATHREP_OBS_TRACE` asks for a
/// trace file: 2^16 records is ~6 MiB when full and several minutes of dense
/// instrumentation. A saturated trace keeps the most recent records.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// The flight-recorder ring capacity (`PATHREP_OBS_FLIGHT`): `None`
/// disables recording (`0` or `off`), unset/unparsable falls back to
/// [`DEFAULT_FLIGHT_CAPACITY`] — the recorder is on by default. A set
/// `PATHREP_OBS_TRACE` raises the result to at least [`TRACE_CAPACITY`].
pub fn flight_capacity() -> Option<usize> {
    let cap = match path_from_env(ENV_FLIGHT) {
        None => Some(DEFAULT_FLIGHT_CAPACITY),
        Some(v) => match v.trim() {
            "0" | "off" | "false" | "no" => None,
            v => Some(v.parse::<usize>().unwrap_or(DEFAULT_FLIGHT_CAPACITY).max(16)),
        },
    };
    match trace_path() {
        Some(_) => Some(cap.unwrap_or(0).max(TRACE_CAPACITY)),
        None => cap,
    }
}

/// The flight-dump output path (`PATHREP_OBS_FLIGHT_DUMP`), defaulting to
/// `flight_<pid>.json` in the working directory.
pub fn flight_dump_path() -> String {
    path_from_env(ENV_FLIGHT_DUMP)
        .unwrap_or_else(|| format!("flight_{}.json", std::process::id()))
}

/// The serve stall-watchdog deadline (`PATHREP_SERVE_WATCHDOG_MS`):
/// `None` when disabled with `0`, unset/unparsable falls back to the
/// 5000 ms default.
pub fn serve_watchdog_ms() -> Option<u64> {
    match path_from_env(ENV_SERVE_WATCHDOG_MS) {
        None => Some(5000),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(ms),
            Err(_) => Some(5000),
        },
    }
}

/// The run id stamped on ledger records: `PATHREP_OBS_RUN_ID` when set,
/// otherwise `pid<process id>`.
pub fn run_id() -> String {
    path_from_env(ENV_RUN_ID).unwrap_or_else(|| format!("pid{}", std::process::id()))
}

/// Reports a failed telemetry export on stderr and returns — the run
/// continues; telemetry is advisory and must never abort real work.
pub fn warn_export(what: &str, path: &str, err: &dyn std::fmt::Display) {
    eprintln!("pathrep-obs: [warn] {what} export to {path} failed: {err} (run continues)");
}

/// Runs `write`, funnelling any error through [`warn_export`]. Every export
/// backend goes through this so no telemetry path can panic on I/O.
pub fn export_or_warn(
    what: &str,
    path: &str,
    write: impl FnOnce(&str) -> std::io::Result<()>,
) {
    if let Err(e) = write(path) {
        warn_export(what, path, &e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_paths_count_as_unset() {
        // Use a variable name no other test touches to stay race-free.
        std::env::set_var("PATHREP_CONFIG_TEST_VAR", "  ");
        assert_eq!(path_from_env("PATHREP_CONFIG_TEST_VAR"), None);
        std::env::set_var("PATHREP_CONFIG_TEST_VAR", "out.jsonl");
        assert_eq!(
            path_from_env("PATHREP_CONFIG_TEST_VAR").as_deref(),
            Some("out.jsonl")
        );
        std::env::remove_var("PATHREP_CONFIG_TEST_VAR");
    }

    #[test]
    fn export_or_warn_swallows_errors() {
        // A directory path cannot be written as a file: must not panic.
        export_or_warn("test", "/", |p| std::fs::write(p, "x"));
    }

    #[test]
    fn all_env_vars_lists_every_constant() {
        for v in [
            ENV_OBS, ENV_JSON, ENV_TRACE, ENV_PROM, ENV_LEDGER, ENV_RUN_ID, ENV_HTTP,
            ENV_THREADS, ENV_SERVE_ADDR, ENV_SERVE_BATCH, ENV_SERVE_QUEUE, ENV_SERVE_CACHE,
            ENV_SERVE_SHARDS, ENV_SERVE_PROTO, ENV_FLIGHT, ENV_FLIGHT_DUMP,
            ENV_SERVE_WATCHDOG_MS,
        ] {
            assert!(ALL_ENV_VARS.contains(&v));
        }
        assert_eq!(ALL_ENV_VARS.len(), 17);
    }

    #[test]
    fn flight_capacity_defaults_on_and_zero_disables() {
        // The default (unset) path cannot be asserted here without racing
        // other tests over the process environment; exercise the explicit
        // values through the parser used by `flight_capacity`.
        std::env::set_var(ENV_FLIGHT, "0");
        assert_eq!(flight_capacity(), None);
        std::env::set_var(ENV_FLIGHT, "off");
        assert_eq!(flight_capacity(), None);
        std::env::set_var(ENV_FLIGHT, "128");
        assert_eq!(flight_capacity(), Some(128));
        std::env::set_var(ENV_FLIGHT, "2");
        assert_eq!(flight_capacity(), Some(16), "tiny caps clamp up to 16");
        // A trace path raises the ring to the trace capacity, even when
        // the flight variable disabled it.
        std::env::set_var(ENV_TRACE, "trace.json");
        assert_eq!(flight_capacity(), Some(TRACE_CAPACITY));
        std::env::set_var(ENV_FLIGHT, "0");
        assert_eq!(flight_capacity(), Some(TRACE_CAPACITY));
        std::env::remove_var(ENV_TRACE);
        std::env::remove_var(ENV_FLIGHT);
        assert_eq!(flight_capacity(), Some(DEFAULT_FLIGHT_CAPACITY));
    }
}
