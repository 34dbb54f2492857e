//! The serving runtime: readiness-loop reactor shards on [`pathrep_net`].
//!
//! [`crate::server::Server::run`] runs this with `PATHREP_SERVE_SHARDS=N`
//! shards (default 1). Architecture:
//!
//! ```text
//! accept thread ── round-robins sockets over N reactor shards
//!   reactor shard i (epoll loop, non-blocking):
//!     parse frames (JSON or binary, auto-detected per frame)
//!       control requests ─ answered inline
//!       predict rows ──── consistent-hash on model id ──> job queue[h(model)]
//!                                                             │ pop ≤ batch_max,
//!                                                             v same model+width
//!                                              batcher thread h ── predict_batch
//!     completions ◄──── mailbox + wake pipe ◄── one Done per row
//!     encode reply (same protocol as the request), flush opportunistically
//! ```
//!
//! **Locality.** Jobs route by consistent hash of the model id
//! ([`pathrep_net::HashRing`]), so concurrent requests for one model land
//! in one queue and coalesce into one fused kernel no matter which reactor
//! owns their sockets. Only the owning reactor ever writes a socket;
//! batchers talk to reactors exclusively through mailboxes.
//!
//! **Determinism.** The batcher pops same-model same-width rows in
//! arrival order and `predict_batch` computes each row by the exact
//! floating-point sequence of a solo `predict`, so replies are
//! bit-identical to the offline predictor at any shard count, batching,
//! or protocol. A `predict_batch` enqueues one job per row — structurally
//! the same as that many concurrent `predict`s — so the two cannot
//! diverge.
//!
//! **Backpressure & shedding.** Each shard's job queue is bounded
//! (`queue_cap`). A reactor never blocks, so instead of waiting it (a)
//! stops *parsing* a connection while a request is in flight — pipelined
//! bytes sit in the buffer and TCP flow control pushes back — and (b)
//! sheds with a typed `server overloaded` reply (counted in
//! `serve.shard.shed`) when a request would overfill a non-empty routed
//! queue. An empty queue admits any request, so a batch wider than
//! `queue_cap` is served alone rather than refused forever.
//!
//! **Drain.** A `shutdown` request flips the stop flag, notifies every
//! shard and nudges the acceptor. Reactors stop parsing new frames,
//! batchers drain their queues to empty (the queues reject pushes once
//! stopping, so no job can slip in behind the drain), completions flow
//! back, replies flush, and every thread joins — no accepted request is
//! dropped.

use crate::binproto::{self, BinRequest, BinResponse, WireFrame};
use crate::protocol::{write_frame, Request, Response, ServerStats, TraceContext};
use crate::server::{effective_trace, resolve_model, respond_to, Shared, Stats};
use pathrep_core::predictor::MeasurementPredictor;
use pathrep_linalg::Matrix;
use pathrep_obs::{ledger, trace};
use pathrep_net::{Event, HashRing, Interest, Mailbox, MailboxSender, Shard as NetShard, Token};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Per-shard gauge names. The metrics API takes `&'static str`, so the
/// formatted names are interned once per distinct name for the process
/// lifetime (bounded: two short strings per shard index ever seen).
#[derive(Clone, Copy)]
struct ShardGauges {
    conns: &'static str,
    queue_depth: &'static str,
}

/// Interns a metric name, returning the same `&'static str` for repeated
/// requests so restarted daemons in one process do not leak afresh.
fn intern(name: String) -> &'static str {
    use std::collections::HashMap;
    use std::sync::OnceLock;
    static POOL: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = pool.lock().unwrap();
    if let Some(&s) = map.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    map.insert(name, leaked);
    leaked
}

fn shard_gauges(n: usize) -> Vec<ShardGauges> {
    (0..n)
        .map(|i| ShardGauges {
            conns: intern(format!("serve.shard.{i}.conns")),
            queue_depth: intern(format!("serve.shard.{i}.queue_depth")),
        })
        .collect()
}

/// Reply protocol for one request, decided by its request frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Proto {
    Json,
    Binary,
}

/// One queued prediction row, owned by a shard batcher.
struct Job {
    model_id: String,
    predictor: Arc<MeasurementPredictor>,
    measured: Vec<f64>,
    parent_span: Option<String>,
    trace_ctx: Option<TraceContext>,
    /// Completion routing: the reactor that owns the socket, its conn
    /// token, the request serial, and this row's index within the request.
    home: usize,
    conn: Token,
    serial: u64,
    row: usize,
}

/// Why a non-blocking push was refused.
enum PushRefused {
    /// The queue is at capacity; the request should shed.
    Full(usize),
    /// The daemon is draining; new work is refused.
    Stopping,
}

/// Bounded per-shard job queue: non-blocking producers (reactors shed
/// instead of waiting), condvar-blocking consumer (the shard batcher).
struct JobQueue {
    inner: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    cap: usize,
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue { inner: Mutex::new(VecDeque::new()), not_empty: Condvar::new(), cap }
    }

    /// Atomically enqueue all rows of one request, or none of them. An
    /// empty queue admits any request, so one wider than `cap` is served
    /// alone instead of being refused forever.
    /// Checking `stopping` under the queue lock is what makes the drain
    /// airtight: once the flag is set no new job can enter, so "stopping
    /// and empty" really means the batcher is done.
    fn try_push_all(&self, jobs: Vec<Job>, stopping: &AtomicBool) -> Result<usize, PushRefused> {
        let mut q = self.inner.lock().unwrap();
        if stopping.load(Ordering::SeqCst) {
            return Err(PushRefused::Stopping);
        }
        if !q.is_empty() && q.len() + jobs.len() > self.cap {
            return Err(PushRefused::Full(q.len()));
        }
        q.extend(jobs);
        let depth = q.len();
        drop(q);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Pops the front row plus every queued row for the same model and
    /// width (up to `batch_max`, preserving arrival order of the rest).
    /// Blocks while empty; `None` once `stopped` is set *and* the queue
    /// has drained, so shutdown never drops an accepted request.
    fn pop_batch(&self, batch_max: usize, stopped: &AtomicBool) -> Option<Vec<Job>> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(front) = q.pop_front() {
                let mut batch = vec![front];
                let mut i = 0;
                while batch.len() < batch_max && i < q.len() {
                    if q[i].model_id == batch[0].model_id
                        && q[i].measured.len() == batch[0].measured.len()
                    {
                        batch.push(q.remove(i).expect("index i is in bounds"));
                    } else {
                        i += 1;
                    }
                }
                return Some(batch);
            }
            if stopped.load(Ordering::SeqCst) {
                return None;
            }
            q = self.not_empty.wait(q).unwrap();
        }
    }

    /// Wakes the batcher so it can observe the stop flag.
    fn wake_all(&self) {
        self.not_empty.notify_all();
    }

    /// Rows currently queued (the watchdog's "work is pending" signal).
    fn depth(&self) -> usize {
        self.inner.lock().unwrap().len()
    }
}

/// Cross-thread messages a reactor drains from its mailbox.
enum Msg {
    /// A freshly-accepted socket to adopt.
    Conn(TcpStream),
    /// One prediction row finished (or failed) in a batcher.
    Done { conn: Token, serial: u64, row: usize, result: Result<Vec<f64>, String> },
    /// Begin draining: stop parsing new frames, finish in-flight work.
    Stop,
}

/// How to shape the reply once every row of a request has completed.
#[derive(Clone, Copy)]
enum ReplyKind {
    /// `predict` — one row in, one row out.
    Single,
    /// `predict_batch` — reply carries all rows.
    Batch,
}

/// A request whose rows are out with the batchers.
struct Inflight {
    serial: u64,
    kind: ReplyKind,
    proto: Proto,
    ctx: TraceContext,
    t0: Instant,
    results: Vec<Option<Vec<f64>>>,
    done: usize,
    error: Option<String>,
}

/// Per-connection reactor state (the `D` of [`NetShard`]).
#[derive(Default)]
struct ConnState {
    inflight: Option<Inflight>,
    /// Close once the write buffer drains (set after protocol errors).
    close_after_flush: bool,
    /// Whether the poller interest currently includes write readiness
    /// (connections are adopted with read interest only).
    armed_write: bool,
}

/// Renders a JSON payload as one length-prefixed frame.
fn json_frame(payload: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    write_frame(&mut buf, payload).expect("in-memory frame write cannot fail");
    buf
}

/// Encodes an error reply in the request's protocol.
fn error_frame(proto: Proto, message: String, ctx: Option<TraceContext>) -> Vec<u8> {
    match proto {
        Proto::Json => json_frame(&Response::Error { message }.encode_with_trace(ctx)),
        Proto::Binary => BinResponse::Error { message }.encode(ctx),
    }
}

/// Encodes a prediction reply in the request's protocol.
fn predicted_frame(
    kind: ReplyKind,
    proto: Proto,
    rows: Vec<Vec<f64>>,
    ctx: TraceContext,
) -> Vec<u8> {
    match (kind, proto) {
        (ReplyKind::Single, Proto::Json) => json_frame(
            &Response::Predicted { predicted: rows.into_iter().next().expect("one row") }
                .encode_with_trace(Some(ctx)),
        ),
        (ReplyKind::Batch, Proto::Json) => json_frame(
            &Response::PredictedBatch { predicted: rows }.encode_with_trace(Some(ctx)),
        ),
        (ReplyKind::Single, Proto::Binary) => BinResponse::Predicted {
            predicted: rows.into_iter().next().expect("one row"),
        }
        .encode(Some(ctx)),
        (ReplyKind::Batch, Proto::Binary) => {
            let cols = rows.first().map_or(0, Vec::len);
            let mut flat = Vec::with_capacity(rows.len() * cols);
            for r in &rows {
                flat.extend_from_slice(r);
            }
            BinResponse::PredictedBatch { rows: rows.len(), cols, data: flat }.encode(Some(ctx))
        }
    }
}

/// Lifts a binary hot-path request into the JSON request type, so both
/// framings share one dispatch path.
fn lift(req: BinRequest) -> Request {
    match req {
        BinRequest::Predict { model, measured } => Request::Predict { model, measured },
        BinRequest::PredictBatch { model, cols, data, .. } => Request::PredictBatch {
            model,
            measured: data.chunks(cols.max(1)).map(<[f64]>::to_vec).collect(),
        },
    }
}

struct Reactor {
    idx: usize,
    net: NetShard<ConnState>,
    mailbox: Mailbox<Msg>,
    senders: Vec<MailboxSender<Msg>>,
    queues: Arc<Vec<JobQueue>>,
    ring: Arc<HashRing>,
    shared: Arc<Shared>,
    gauges: Arc<Vec<ShardGauges>>,
    listen_addr: SocketAddr,
    draining: bool,
    inflight_count: usize,
    next_serial: u64,
}

impl Reactor {
    fn conns_gauge(&self) {
        pathrep_obs::gauge_set(self.gauges[self.idx].conns, self.net.conn_count() as f64);
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut mail: Vec<Msg> = Vec::new();
        loop {
            let woken = match self.net.poll(&mut events, None) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("pathrep-serve: [warn] shard {} poll failed: {e}", self.idx);
                    break;
                }
            };
            if woken {
                self.mailbox.drain_into(&mut mail);
                for msg in mail.drain(..) {
                    match msg {
                        Msg::Conn(stream) => self.adopt(stream),
                        Msg::Done { conn, serial, row, result } => {
                            self.complete(conn, serial, row, result)
                        }
                        Msg::Stop => self.draining = true,
                    }
                }
            }
            for i in 0..events.len() {
                self.handle_event(events[i]);
            }
            if self.draining && self.inflight_count == 0 && self.all_flushed() {
                break;
            }
        }
        // Teardown: dropping the conns closes the sockets.
        for token in self.net.tokens() {
            self.net.remove_conn(token);
        }
        self.conns_gauge();
        pathrep_obs::gauge_set(self.gauges[self.idx].queue_depth, 0.0);
    }

    fn adopt(&mut self, stream: TcpStream) {
        if self.draining {
            return; // late racer: dropping the socket closes it
        }
        match self.net.add_conn(stream, ConnState::default()) {
            Ok(_) => self.conns_gauge(),
            Err(e) => eprintln!("pathrep-serve: [warn] shard {} adopt failed: {e}", self.idx),
        }
    }

    fn all_flushed(&mut self) -> bool {
        self.net.tokens().into_iter().all(|t| {
            self.net
                .conn_mut(t)
                .map_or(true, |(conn, _)| !conn.wants_write())
        })
    }

    fn handle_event(&mut self, ev: Event) {
        if ev.error {
            self.close_conn(ev.token);
            return;
        }
        if ev.readable {
            let fill_failed = match self.net.conn_mut(ev.token) {
                Some((conn, _)) => conn.fill().is_err(),
                None => return,
            };
            if fill_failed {
                self.close_conn(ev.token);
                return;
            }
            self.pump_conn(ev.token);
        }
        if ev.writable {
            let flush_failed = match self.net.conn_mut(ev.token) {
                Some((conn, _)) => conn.flush().is_err(),
                None => return,
            };
            if flush_failed {
                self.close_conn(ev.token);
                return;
            }
            self.rearm(ev.token);
        }
        self.maybe_close(ev.token);
    }

    /// Parse and serve as many buffered frames as flow control allows: at
    /// most one hot-path request in flight per connection (replies stay in
    /// request order and pipelining clients get backpressure instead of
    /// unbounded queueing).
    fn pump_conn(&mut self, token: Token) {
        loop {
            enum Scanned {
                Frame(WireFrame),
                None,
                Bad(String),
            }
            let scanned = {
                let (conn, state) = match self.net.conn_mut(token) {
                    Some(x) => x,
                    None => return,
                };
                if state.inflight.is_some() || state.close_after_flush || self.draining {
                    break;
                }
                match binproto::scan_frame(conn.data()) {
                    Ok(Some((frame, used))) => {
                        conn.consume(used);
                        Scanned::Frame(frame)
                    }
                    Ok(None) => Scanned::None,
                    Err(e) => Scanned::Bad(e.to_string()),
                }
            };
            match scanned {
                Scanned::Frame(frame) => self.handle_frame(token, frame),
                Scanned::None => break,
                Scanned::Bad(message) => {
                    // Framing is broken; answer once and close.
                    self.count_error();
                    self.queue_reply(token, &error_frame(Proto::Json, message, None));
                    if let Some((_, state)) = self.net.conn_mut(token) {
                        state.close_after_flush = true;
                    }
                    break;
                }
            }
        }
        self.maybe_close(token);
    }

    fn handle_frame(&mut self, token: Token, frame: WireFrame) {
        let t0 = Instant::now();
        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        pathrep_obs::counter_add("serve.requests", 1);
        pathrep_obs::counter_add("serve.shard.requests", 1);
        // Replies go out in the request's protocol; binary frames carry
        // only the hot path and are lifted into the JSON request type.
        let (proto, decoded) = match frame {
            WireFrame::Json(payload) => (
                Proto::Json,
                Request::decode_with_trace(&payload).map_err(|e| e.to_string()),
            ),
            WireFrame::Binary { op, payload } => (
                Proto::Binary,
                BinRequest::decode(op, &payload)
                    .map(|(req, ctx)| (lift(req), ctx))
                    .map_err(|e| e.to_string()),
            ),
        };
        let (req, wire_ctx) = match decoded {
            Ok(pair) => pair,
            Err(message) => {
                self.count_error();
                return self.queue_reply(token, &error_frame(proto, message, None));
            }
        };
        // Adopt the client's trace context (or mint one) before opening
        // the request span, so the span — and any ledger records written
        // while handling — carry the ids the reply echoes back.
        let ctx = effective_trace(wire_ctx);
        let _ctx = trace::set_context(ctx);
        let _span = pathrep_obs::span!("serve.shard.request");
        if let Some(n) = self.shared.config.inject_panic {
            let served = self.shared.stats.requests.load(Ordering::Relaxed);
            if served >= n && !matches!(req, Request::Shutdown) {
                // Gate-only: die inside the request span, with the trace
                // context set, so the panic-hook flight dump must carry
                // this request's trace_id on the in-flight span.
                panic!(
                    "injected panic for the observability gate \
                     (request {served}, trace_id {})",
                    ctx.trace_id
                );
            }
        }
        match req {
            Request::Predict { model, measured } => {
                self.start_predict(token, proto, ctx, t0, ReplyKind::Single, model, vec![measured]);
            }
            Request::PredictBatch { measured, .. } if measured.is_empty() => {
                let reply = predicted_frame(ReplyKind::Batch, proto, measured, ctx);
                self.reply(token, t0, &reply);
            }
            Request::PredictBatch { model, measured } => {
                self.start_predict(token, proto, ctx, t0, ReplyKind::Batch, model, measured);
            }
            Request::Shutdown => {
                self.finish_control(token, t0, Response::ShuttingDown, ctx);
                self.initiate_shutdown();
            }
            other => {
                let resp = respond_to(&self.shared, other);
                self.finish_control(token, t0, resp, ctx);
            }
        }
    }

    fn count_error(&self) {
        self.shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        pathrep_obs::counter_add("serve.errors", 1);
    }

    /// Queue a request's reply and record its latency.
    fn reply(&mut self, token: Token, t0: Instant, bytes: &[u8]) {
        self.queue_reply(token, bytes);
        pathrep_obs::histogram_record("serve.request_ns", t0.elapsed().as_nanos() as f64);
    }

    /// Answer a control request in JSON.
    fn finish_control(&mut self, token: Token, t0: Instant, resp: Response, ctx: TraceContext) {
        if matches!(resp, Response::Error { .. }) {
            self.count_error();
        }
        self.reply(token, t0, &json_frame(&resp.encode_with_trace(Some(ctx))));
    }

    /// Reply to a failed hot-path request in its own protocol.
    fn reply_error(
        &mut self,
        token: Token,
        proto: Proto,
        ctx: TraceContext,
        t0: Instant,
        message: String,
    ) {
        self.count_error();
        self.reply(token, t0, &error_frame(proto, message, Some(ctx)));
    }

    /// Validate a hot-path request, route its rows to the owning shard's
    /// job queue (consistent hash of the model id) and park the request as
    /// in-flight on the connection.
    #[allow(clippy::too_many_arguments)]
    fn start_predict(
        &mut self,
        token: Token,
        proto: Proto,
        ctx: TraceContext,
        t0: Instant,
        kind: ReplyKind,
        model: String,
        rows: Vec<Vec<f64>>,
    ) {
        let artifact = match resolve_model(&self.shared, &model) {
            Ok(a) => a,
            Err(message) => return self.reply_error(token, proto, ctx, t0, message),
        };
        let want = artifact.predictor.measurement_count();
        for (i, row) in rows.iter().enumerate() {
            if row.len() != want {
                let message =
                    format!("row {i}: expected {want} measurements, got {}", row.len());
                return self.reply_error(token, proto, ctx, t0, message);
            }
        }
        let serial = self.next_serial;
        self.next_serial += 1;
        let parent_span = pathrep_obs::current_span_path();
        let predictor = Arc::new(artifact.predictor.clone());
        let target = self.ring.shard_for(&model);
        let n_rows = rows.len();
        let jobs: Vec<Job> = rows
            .into_iter()
            .enumerate()
            .map(|(row, measured)| Job {
                model_id: model.clone(),
                predictor: Arc::clone(&predictor),
                measured,
                parent_span: parent_span.clone(),
                trace_ctx: Some(ctx),
                home: self.idx,
                conn: token,
                serial,
                row,
            })
            .collect();
        match self.queues[target].try_push_all(jobs, &self.shared.stopping) {
            Ok(depth) => {
                Stats::bump_max(&self.shared.stats.queue_high_water, depth as u64);
                pathrep_obs::gauge_set(self.gauges[target].queue_depth, depth as f64);
                if let Some((_, state)) = self.net.conn_mut(token) {
                    state.inflight = Some(Inflight {
                        serial,
                        kind,
                        proto,
                        ctx,
                        t0,
                        results: vec![None; n_rows],
                        done: 0,
                        error: None,
                    });
                    self.inflight_count += 1;
                }
            }
            Err(PushRefused::Full(depth)) => {
                pathrep_obs::counter_add("serve.shard.shed", 1);
                let message = format!(
                    "server overloaded: shard {target} queue is full \
                     ({depth} rows queued, capacity {})",
                    self.shared.config.queue_cap
                );
                self.reply_error(token, proto, ctx, t0, message);
            }
            Err(PushRefused::Stopping) => {
                self.reply_error(token, proto, ctx, t0, "server is shutting down".into());
            }
        }
    }

    /// Apply one row completion; when the request is whole, encode and
    /// queue the reply, then resume parsing the connection's buffer.
    fn complete(&mut self, token: Token, serial: u64, row: usize, result: Result<Vec<f64>, String>) {
        let finished = {
            let inf = match self.net.conn_mut(token) {
                Some((_, state)) => match state.inflight.as_mut() {
                    Some(inf) if inf.serial == serial => inf,
                    // Stale completion for a conn that died (or a token
                    // that was recycled): the serial can never match a
                    // different request, so it is safe to drop.
                    _ => return,
                },
                None => return,
            };
            match result {
                Ok(values) => {
                    inf.results[row] = Some(values);
                    self.shared.stats.predictions.fetch_add(1, Ordering::Relaxed);
                    pathrep_obs::counter_add("serve.predictions", 1);
                }
                Err(e) => {
                    if inf.error.is_none() {
                        inf.error = Some(e);
                    }
                }
            }
            inf.done += 1;
            inf.done == inf.results.len()
        };
        if !finished {
            return;
        }
        let inf = match self.net.conn_mut(token) {
            Some((_, state)) => state.inflight.take().expect("inflight present when finished"),
            None => return,
        };
        self.inflight_count -= 1;
        let reply = match inf.error {
            Some(message) => {
                self.count_error();
                error_frame(inf.proto, message, Some(inf.ctx))
            }
            None => {
                let rows = inf
                    .results
                    .into_iter()
                    .map(|r| r.expect("all rows completed without error"))
                    .collect();
                predicted_frame(inf.kind, inf.proto, rows, inf.ctx)
            }
        };
        self.reply(token, inf.t0, &reply);
        // The connection may have whole frames buffered behind the one we
        // just answered — serve them now that the in-flight slot is free.
        self.pump_conn(token);
    }

    /// Queue reply bytes, flush what the socket will take immediately, and
    /// arm write interest for the rest.
    fn queue_reply(&mut self, token: Token, bytes: &[u8]) {
        let flush_failed = match self.net.conn_mut(token) {
            Some((conn, _)) => {
                conn.queue_write(bytes);
                conn.flush().is_err()
            }
            None => return,
        };
        if flush_failed {
            self.close_conn(token);
            return;
        }
        self.rearm(token);
    }

    /// Point the poller at what this connection actually needs next,
    /// skipping the syscall when the armed interest already matches.
    fn rearm(&mut self, token: Token) {
        let want_write = match self.net.conn_mut(token) {
            Some((conn, state)) => {
                let want = conn.wants_write();
                if want == state.armed_write {
                    return;
                }
                state.armed_write = want;
                want
            }
            None => return,
        };
        let interest = if want_write { Interest::BOTH } else { Interest::READ };
        let _ = self.net.set_interest(token, interest);
    }

    /// Close now if the peer is gone (or errored out) and nothing is owed.
    fn maybe_close(&mut self, token: Token) {
        let should_close = match self.net.conn_mut(token) {
            Some((conn, state)) => {
                (conn.is_eof() || state.close_after_flush)
                    && state.inflight.is_none()
                    && !conn.wants_write()
            }
            None => false,
        };
        if should_close {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: Token) {
        if let Some((_, state)) = self.net.remove_conn(token) {
            if state.inflight.is_some() {
                // Queued rows will still complete; their Done messages
                // fail the serial match and fall on the floor.
                self.inflight_count -= 1;
            }
            self.conns_gauge();
        }
    }

    fn initiate_shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        for s in &self.senders {
            s.send(Msg::Stop);
        }
        for q in self.queues.iter() {
            q.wake_all();
        }
        // Nudge the accept loop awake so it observes the flag.
        let _ = TcpStream::connect(self.listen_addr);
    }
}

/// One shard's batcher: pops coalesced same-model batches from its queue,
/// runs the fused kernel, and mails one `Done` per row back to the reactor
/// that owns each row's socket. Never blocks on a reactor.
fn shard_batcher(
    idx: usize,
    shared: &Shared,
    queues: &[JobQueue],
    senders: &[MailboxSender<Msg>],
    heartbeats: &[AtomicU64],
    gauges: &[ShardGauges],
) {
    let beat = || {
        heartbeats[idx].store(shared.epoch.elapsed().as_millis() as u64, Ordering::Relaxed)
    };
    while let Some(batch) = queues[idx].pop_batch(shared.config.batch_max, &shared.stopping) {
        beat();
        let fault_ms = shared.fault_ms.load(Ordering::Relaxed);
        if fault_ms > 0 {
            // Injected sickness (`set_fault`): stall before serving so
            // request latency inflates and, with a slowdown past the
            // watchdog deadline, the heartbeat goes stale while rows
            // queue behind this batch.
            std::thread::sleep(std::time::Duration::from_millis(fault_ms));
        }
        let rows = batch.len();
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        Stats::bump_max(&shared.stats.max_batch, rows as u64);
        pathrep_obs::histogram_record("serve.batch_rows", rows as f64);
        pathrep_obs::gauge_set(gauges[idx].queue_depth, queues[idx].depth() as f64);
        let _parent = pathrep_obs::adopt_span_parent(batch[0].parent_span.clone());
        let _ctx = batch[0].trace_ctx.map(trace::set_context);
        let _span = pathrep_obs::span!("serve.batch");
        let predictor = Arc::clone(&batch[0].predictor);
        let width = batch[0].measured.len();
        let mut data = Vec::with_capacity(rows * width);
        for job in &batch {
            data.extend_from_slice(&job.measured);
        }
        let result = Matrix::from_vec(rows, width, data)
            .map_err(|e| e.to_string())
            .and_then(|m| predictor.predict_batch(&m).map_err(|e| e.to_string()));
        for (i, job) in batch.iter().enumerate() {
            let row_result = match &result {
                Ok(out) => Ok(out.row(i).to_vec()),
                Err(e) => Err(e.clone()),
            };
            senders[job.home].send(Msg::Done {
                conn: job.conn,
                serial: job.serial,
                row: job.row,
                result: row_result,
            });
        }
        beat();
    }
}

/// Stall watchdog: fires once per stall of a shard (rows queued but that
/// shard's batcher heartbeat quiet past the deadline). A fire warns,
/// counts, marks the flight ring and dumps it — the evidence lands while
/// the stall is live, not after the process is killed. Re-arms once the
/// heartbeat recovers.
fn shard_watchdog(
    shared: &Shared,
    queues: &[JobQueue],
    heartbeats: &[AtomicU64],
    deadline_ms: u64,
) {
    let poll = std::time::Duration::from_millis((deadline_ms / 4).clamp(10, 250));
    let slice = std::time::Duration::from_millis(5);
    let mut fired = vec![false; queues.len()];
    while !shared.stopping.load(Ordering::SeqCst) {
        let wake = std::time::Instant::now() + poll;
        while std::time::Instant::now() < wake && !shared.stopping.load(Ordering::SeqCst) {
            std::thread::sleep(slice);
        }
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let now_ms = shared.epoch.elapsed().as_millis() as u64;
        for (i, q) in queues.iter().enumerate() {
            let depth = q.depth();
            let age = now_ms.saturating_sub(heartbeats[i].load(Ordering::Relaxed));
            if depth > 0 && age > deadline_ms {
                if !fired[i] {
                    fired[i] = true;
                    pathrep_obs::counter_add("serve.watchdog_fires", 1);
                    let diagnosis = format!(
                        "shard {i} batcher heartbeat quiet for {age} ms \
                         (deadline {deadline_ms} ms) with {depth} rows queued"
                    );
                    pathrep_obs::warn("serve.watchdog", || diagnosis.clone());
                    pathrep_obs::flight::instant("serve.watchdog", diagnosis.clone());
                    eprintln!("pathrep-serve: [watchdog] {diagnosis}");
                    pathrep_obs::flight::dump_default();
                }
            } else if age <= deadline_ms {
                fired[i] = false;
            }
        }
    }
}

/// Run the runtime on the calling thread until a `shutdown` request
/// drains it; returns the final lifetime statistics. This is
/// [`crate::server::Server::run`].
pub(crate) fn run(
    listener: TcpListener,
    shared: Arc<Shared>,
) -> std::io::Result<ServerStats> {
    let addr = listener.local_addr()?;
    let nshards = shared.config.shards.max(1);
    let queues: Arc<Vec<JobQueue>> =
        Arc::new((0..nshards).map(|_| JobQueue::new(shared.config.queue_cap)).collect());
    let ring = Arc::new(HashRing::new(nshards));
    let heartbeats: Arc<Vec<AtomicU64>> =
        Arc::new((0..nshards).map(|_| AtomicU64::new(0)).collect());
    let gauges: Arc<Vec<ShardGauges>> = Arc::new(shard_gauges(nshards));

    let mut mailboxes = Vec::with_capacity(nshards);
    let mut senders = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let (mailbox, sender) = Mailbox::new()?;
        mailboxes.push(mailbox);
        senders.push(sender);
    }

    let mut reactors = Vec::with_capacity(nshards);
    for (idx, mailbox) in mailboxes.into_iter().enumerate() {
        let mut net: NetShard<ConnState> = NetShard::new()?;
        net.attach_wake(mailbox.wake_fd())?;
        let reactor = Reactor {
            idx,
            net,
            mailbox,
            senders: senders.clone(),
            queues: Arc::clone(&queues),
            ring: Arc::clone(&ring),
            shared: Arc::clone(&shared),
            gauges: Arc::clone(&gauges),
            listen_addr: addr,
            draining: false,
            inflight_count: 0,
            next_serial: 0,
        };
        reactors.push(
            std::thread::Builder::new()
                .name(format!("serve-reactor-{idx}"))
                .spawn(move || reactor.run())
                .expect("spawning a reactor thread"),
        );
    }

    let mut batchers = Vec::with_capacity(nshards);
    for idx in 0..nshards {
        let shared = Arc::clone(&shared);
        let queues = Arc::clone(&queues);
        let senders = senders.clone();
        let heartbeats = Arc::clone(&heartbeats);
        let gauges = Arc::clone(&gauges);
        batchers.push(
            std::thread::Builder::new()
                .name(format!("serve-batcher-{idx}"))
                .spawn(move || {
                    shard_batcher(idx, &shared, &queues, &senders, &heartbeats, &gauges)
                })
                .expect("spawning a shard batcher"),
        );
    }

    let watchdog = shared.config.watchdog_ms.map(|deadline_ms| {
        let shared = Arc::clone(&shared);
        let queues = Arc::clone(&queues);
        let heartbeats = Arc::clone(&heartbeats);
        std::thread::Builder::new()
            .name("serve-watchdog".into())
            .spawn(move || shard_watchdog(&shared, &queues, &heartbeats, deadline_ms))
            .expect("spawning the watchdog thread")
    });

    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => {
                senders[next].send(Msg::Conn(s));
                next = (next + 1) % nshards;
            }
            Err(e) => eprintln!("pathrep-serve: [warn] accept failed: {e}"),
        }
    }

    // Drain. The shutdown-handling reactor already broadcast Stop and set
    // the flag; repeat both here so a drain that began any other way (or a
    // Stop lost to a crashed reactor) still converges.
    shared.stopping.store(true, Ordering::SeqCst);
    for q in queues.iter() {
        q.wake_all();
    }
    for s in &senders {
        s.send(Msg::Stop);
    }
    for b in batchers {
        let _ = b.join();
    }
    for r in reactors {
        let _ = r.join();
    }
    if let Some(w) = watchdog {
        let _ = w.join();
    }
    pathrep_obs::gauge_set("serve.queue_depth", 0.0);
    let stats = shared.stats.snapshot(shared.cache_len() as u64);
    ledger::record("serve", "drained", |f| {
        f.text("addr", &addr.to_string())
            .int("requests", stats.requests)
            .int("predictions", stats.predictions)
            .int("errors", stats.errors);
    });
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrep_linalg::Matrix;

    fn predictor() -> Arc<MeasurementPredictor> {
        let coef = Matrix::from_fn(2, 2, |i, j| (i + j) as f64 * 0.5 + 0.25);
        Arc::new(
            MeasurementPredictor::from_parts(
                coef,
                vec![10.0, 11.0],
                vec![12.0, 13.0],
                vec![0.1, 0.2],
                3.0,
            )
            .unwrap(),
        )
    }

    fn jobs(model: &str, n: usize, predictor: &Arc<MeasurementPredictor>) -> Vec<Job> {
        (0..n)
            .map(|row| Job {
                model_id: model.into(),
                predictor: Arc::clone(predictor),
                measured: vec![0.0, 0.0],
                parent_span: None,
                trace_ctx: None,
                home: 0,
                conn: Token(0),
                serial: 0,
                row,
            })
            .collect()
    }

    #[test]
    fn queue_batches_same_model_and_respects_flush_size() {
        let q = JobQueue::new(16);
        let stopped = AtomicBool::new(false);
        let p = predictor();
        for model in ["m1", "m1", "m2", "m1", "m1", "m1"] {
            assert!(q.try_push_all(jobs(model, 1, &p), &stopped).is_ok());
        }
        let b1 = q.pop_batch(3, &stopped).unwrap();
        assert_eq!(b1.len(), 3, "flush-on-size caps the batch");
        assert!(b1.iter().all(|j| j.model_id == "m1"));
        let b2 = q.pop_batch(3, &stopped).unwrap();
        assert_eq!(b2.len(), 1, "the m2 row runs alone, order preserved");
        assert_eq!(b2[0].model_id, "m2");
        let b3 = q.pop_batch(3, &stopped).unwrap();
        assert_eq!(b3.len(), 2);
        assert!(b3.iter().all(|j| j.model_id == "m1"));
        stopped.store(true, Ordering::SeqCst);
        assert!(q.pop_batch(3, &stopped).is_none(), "drained + stopped ends the loop");
    }

    #[test]
    fn empty_queue_admits_a_request_wider_than_its_capacity() {
        let q = JobQueue::new(4);
        let stopping = AtomicBool::new(false);
        let p = predictor();
        assert!(matches!(q.try_push_all(jobs("m", 10, &p), &stopping), Ok(10)));
        assert!(
            matches!(q.try_push_all(jobs("m", 1, &p), &stopping), Err(PushRefused::Full(10))),
            "a non-empty queue past capacity sheds"
        );
        q.pop_batch(16, &stopping).unwrap();
        assert!(matches!(q.try_push_all(jobs("m", 3, &p), &stopping), Ok(3)));
        assert!(matches!(q.try_push_all(jobs("m", 1, &p), &stopping), Ok(4)));
        assert!(matches!(q.try_push_all(jobs("m", 1, &p), &stopping), Err(PushRefused::Full(4))));
        stopping.store(true, Ordering::SeqCst);
        assert!(matches!(q.try_push_all(jobs("m", 1, &p), &stopping), Err(PushRefused::Stopping)));
    }
}
