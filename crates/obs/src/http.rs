//! Live telemetry HTTP plane: scrape the registry while the process runs.
//!
//! Every export built so far is exit-time-only — Prometheus text, traces
//! and the ledger are written when [`crate::report`] runs — which leaves
//! a long-lived daemon opaque until shutdown. [`start`] binds a tiny
//! std-only HTTP/1.1 listener on a background thread and answers
//!
//! * `GET /metrics` — the **live** registry snapshot in Prometheus text
//!   exposition format 0.0.4 (same renderer as `PATHREP_OBS_PROM`),
//! * `GET /healthz` — `200 ok` liveness probe,
//! * `GET /snapshot.json` — the live snapshot as JSON
//!   ([`crate::Snapshot::to_json`]).
//!
//! [`start_from_env`] wires it to `PATHREP_OBS_HTTP=<addr>`
//! (`127.0.0.1:0` binds an ephemeral port; the caller prints the bound
//! address). Handlers only *read* the registry — they take the same
//! consistent snapshot `report()` takes and mutate nothing, so a scrape
//! cannot perturb deterministic counters or golden-ledger byte identity.
//!
//! The listener thread is detached and lives until process exit: a
//! telemetry plane has no work to drain, and holding the scrape socket
//! open through the final report is exactly what an external prober
//! wants.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Per-connection socket timeout: a stalled scraper must not pin a
/// handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Cap on the request head (request line + headers) we are willing to
/// buffer; scrape requests are tiny.
const MAX_HEAD: usize = 8 * 1024;

/// Handle to a running telemetry HTTP listener (see [`start`]).
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
}

impl HttpServer {
    /// The bound listen address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Binds `addr` and serves the scrape endpoints from a detached
/// background thread.
///
/// # Errors
///
/// Returns the bind error; the caller decides whether a dead telemetry
/// plane is fatal (the daemon treats it as a warning).
pub fn start(addr: &str) -> std::io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("pathrep-obs-http".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // One thread per connection: scrapes are rare and short,
                // and a slow client must not block the next prober.
                let _ = std::thread::Builder::new()
                    .name("pathrep-obs-http-conn".into())
                    .spawn(move || {
                        let _ = handle(stream);
                    });
            }
        })?;
    Ok(HttpServer { addr: bound })
}

/// Starts the plane when `PATHREP_OBS_HTTP` is set: `None` when unset,
/// otherwise the [`start`] result for the configured address.
pub fn start_from_env() -> Option<std::io::Result<HttpServer>> {
    crate::config::http_addr().map(|addr| start(&addr))
}

/// Reads the request head and answers one request, then closes.
fn handle(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return respond(&mut stream, 431, "text/plain", "request head too large\n");
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(()); // peer closed before a full request
        }
        head.extend_from_slice(&chunk[..n]);
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "only GET is supported\n");
    }
    match target {
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/metrics" => {
            let body = crate::prom::render_prometheus(&crate::registry().snapshot());
            respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
        }
        "/snapshot.json" => {
            let body = crate::registry().snapshot().to_json();
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "unknown path\n"),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
