//! The `pathrep-serve` daemon: binds, prints its address, serves until a
//! `shutdown` request drains it, then emits the telemetry report (which
//! honours `PATHREP_OBS_PROM` / `PATHREP_OBS_LEDGER` / … exports).
//!
//! Usage: `pathrep-serve [--addr HOST:PORT] [--allow-fault]
//! [--inject-panic N]`
//! Environment: `PATHREP_SERVE_ADDR`, `PATHREP_SERVE_BATCH`,
//! `PATHREP_SERVE_QUEUE`, `PATHREP_SERVE_CACHE`,
//! `PATHREP_SERVE_WATCHDOG_MS`, `PATHREP_SERVE_SHARDS` (see the README
//! env table). `--addr`
//! overrides the environment.
//!
//! The daemon installs the flight-recorder panic hook with exit code 101:
//! a panic on any daemon thread dumps the ring
//! (`PATHREP_OBS_FLIGHT_DUMP`) and kills the whole process, instead of
//! silently losing one thread. `--allow-fault` enables wire-level fault
//! injection (`set_fault`) and `--inject-panic N` panics inside the Nth
//! request's span — both exist for `scripts/obs_gate.sh`.

use pathrep_serve::{Server, ServerConfig};
use std::io::Write;

fn main() {
    let mut config = ServerConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(addr) => config.addr = addr,
                None => {
                    eprintln!("pathrep-serve: --addr needs a HOST:PORT value");
                    std::process::exit(2);
                }
            },
            "--allow-fault" => config.allow_fault = true,
            "--inject-panic" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => config.inject_panic = Some(n),
                None => {
                    eprintln!("pathrep-serve: --inject-panic needs a request count");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "usage: pathrep-serve [--addr HOST:PORT] [--allow-fault] \
                     [--inject-panic N]"
                );
                return;
            }
            other => {
                eprintln!("pathrep-serve: unknown flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    // Black-box recording: a panic anywhere in the daemon dumps the
    // flight ring to disk, then exits 101 so supervisors see the crash.
    pathrep_obs::flight::install_panic_hook(Some(101));
    pathrep_obs::ledger::set_run_context("pathrep-serve", 0);
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pathrep-serve: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().expect("bound listener has an address");
    // The gate scripts parse this exact line to learn the ephemeral port.
    println!(
        "pathrep-serve: listening on {addr} (batch={} queue={} cache={} watchdog={} shards={})",
        config.batch_max, config.queue_cap, config.cache_cap,
        match config.watchdog_ms {
            Some(ms) => format!("{ms}ms"),
            None => "off".to_owned(),
        },
        config.shards);
    // Live telemetry plane (PATHREP_OBS_HTTP): scrape-only HTTP endpoints
    // over the in-process registry. Gate scripts parse this line too.
    match pathrep_obs::http::start_from_env() {
        Some(Ok(obs_http)) => {
            println!("pathrep-serve: obs http listening on {}", obs_http.addr());
        }
        Some(Err(e)) => {
            eprintln!("pathrep-serve: cannot bind the obs http endpoint: {e}");
            std::process::exit(1);
        }
        None => {}
    }
    let _ = std::io::stdout().flush();

    match server.run() {
        Ok(stats) => {
            println!(
                "pathrep-serve: drained — {} requests, {} predictions in {} batches \
                 (max batch {}), {} errors",
                stats.requests, stats.predictions, stats.batches, stats.max_batch, stats.errors
            );
            pathrep_obs::report("pathrep-serve");
        }
        Err(e) => {
            eprintln!("pathrep-serve: fatal listener error: {e}");
            pathrep_obs::report("pathrep-serve");
            std::process::exit(1);
        }
    }
}
