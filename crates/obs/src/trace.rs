//! Trace identity shared by every span record: the cross-process
//! [`TraceContext`], the monotonic trace clock and per-thread trace ids.
//!
//! The span begin/end records themselves live in the flight ring
//! ([`crate::flight`]), the one span recorder; `PATHREP_OBS_TRACE=<path>`
//! enlarges that ring and writes it at [`crate::report`].
//!
//! Timestamps are monotonic nanoseconds since the trace epoch (the first
//! clock read after process start), never wall-clock, so traces are immune
//! to clock adjustments and trivially diffable across runs.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Cross-process trace correlation ids, propagated over the serve wire
/// protocol and stamped on every span event recorded while a
/// [`TraceContextGuard`] is live on the recording thread. `trace_id`
/// identifies one logical request end-to-end (client pick or
/// server-generated); `request_seq` is the client's own sequence number
/// within its run. Both render as Chrome-trace `args`, so a stitched
/// client+server trace can be filtered to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// End-to-end request id shared by client and server events.
    pub trace_id: u64,
    /// Request sequence number within the originating client.
    pub request_seq: u64,
}

thread_local! {
    /// Trace context active on this thread, if any.
    static TRACE_CTX: std::cell::Cell<Option<TraceContext>> =
        const { std::cell::Cell::new(None) };
}

/// RAII guard restoring the previous thread trace context on drop;
/// created by [`set_context`]. Nested guards compose.
#[derive(Debug)]
#[must_use = "the trace context is active only while the guard lives"]
pub struct TraceContextGuard {
    prev: Option<TraceContext>,
}

/// Installs `ctx` as this thread's trace context for the guard's
/// lifetime: span events recorded meanwhile carry it as Chrome-trace
/// `args`, and ledger records stamp it as `trace_id`/`request_seq` facts.
pub fn set_context(ctx: TraceContext) -> TraceContextGuard {
    TraceContextGuard {
        prev: TRACE_CTX.with(|c| c.replace(Some(ctx))),
    }
}

impl Drop for TraceContextGuard {
    fn drop(&mut self) {
        TRACE_CTX.with(|c| c.set(self.prev));
    }
}

/// The trace context currently active on this thread, if any.
pub fn current_context() -> Option<TraceContext> {
    TRACE_CTX.with(|c| c.get())
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the trace epoch (the time axis of flight
/// records).
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Sentinel in [`TID_OVERRIDE`]: no pooled worker tid is active.
const NO_OVERRIDE: u64 = u64::MAX;

/// First tid of the pooled worker range — far above any realistic count of
/// sequentially numbered real threads, so the two ranges never collide.
const WORKER_TID_BASE: u64 = 1_000_000;

thread_local! {
    /// Pooled worker tid temporarily assigned to this thread, if any.
    static TID_OVERRIDE: std::cell::Cell<u64> = const { std::cell::Cell::new(NO_OVERRIDE) };
}

fn worker_tid_pool() -> &'static Mutex<Vec<u64>> {
    static POOL: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_WORKER_TID: AtomicU64 = AtomicU64::new(WORKER_TID_BASE);

/// RAII guard for a pooled worker trace tid; created by [`worker_tid`].
/// Dropping returns the id to the pool and restores the thread's previous
/// tid (nested guards compose).
#[derive(Debug)]
#[must_use = "the pooled tid is assigned only while the guard lives"]
pub struct WorkerTidGuard {
    tid: Option<u64>,
    prev: u64,
}

/// Assigns this thread a trace tid from the worker pool for the guard's
/// lifetime, one task at a time. Pool tasks then land on as many rows as
/// ran concurrently, whichever threads ran them, instead of one row per
/// thread that ever ran a task. Pool ids start at
/// `WORKER_TID_BASE` (10^6) and are reused, so all pool work lands on a small
/// stable set of rows. No-op (no pool lock taken) unless telemetry is on
/// and the flight ring is recording.
pub fn worker_tid() -> WorkerTidGuard {
    if !(crate::enabled() && crate::flight::collecting()) {
        return WorkerTidGuard {
            tid: None,
            prev: NO_OVERRIDE,
        };
    }
    let tid = worker_tid_pool()
        .lock()
        .pop()
        .unwrap_or_else(|| NEXT_WORKER_TID.fetch_add(1, Ordering::Relaxed));
    let prev = TID_OVERRIDE.with(|c| c.replace(tid));
    WorkerTidGuard {
        tid: Some(tid),
        prev,
    }
}

impl Drop for WorkerTidGuard {
    fn drop(&mut self) {
        if let Some(tid) = self.tid {
            TID_OVERRIDE.with(|c| c.set(self.prev));
            worker_tid_pool().lock().push(tid);
        }
    }
}

/// This thread's trace tid: its pooled worker tid while a
/// [`WorkerTidGuard`] is live, else a small sequential per-thread id
/// (first recording thread = 0).
pub(crate) fn thread_id() -> u64 {
    let overridden = TID_OVERRIDE.with(|c| c.get());
    if overridden != NO_OVERRIDE {
        return overridden;
    }
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|&t| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_guard_nests_and_restores() {
        assert_eq!(current_context(), None);
        {
            let _outer = set_context(TraceContext {
                trace_id: 1,
                request_seq: 0,
            });
            assert_eq!(current_context().map(|c| c.trace_id), Some(1));
            {
                let _inner = set_context(TraceContext {
                    trace_id: 2,
                    request_seq: 9,
                });
                assert_eq!(current_context().map(|c| c.trace_id), Some(2));
            }
            assert_eq!(current_context().map(|c| c.trace_id), Some(1));
        }
        assert_eq!(current_context(), None);
    }
}
