//! RAII span guards and the per-thread span stack.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Stack of full paths of the spans currently open on this thread.
    static SPAN_PATHS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Guard for one open span; records the elapsed wall-clock time into the
/// global registry when dropped. Created by [`crate::span!`].
#[must_use = "a span guard measures until it is dropped; bind it with `let _g = …`"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when telemetry was disabled at entry — drop is then free.
    started: Option<Instant>,
    /// Leaf name, kept for the flight end record.
    name: &'static str,
    /// Whether a flight-ring begin was recorded (record the end on drop).
    recorded: bool,
}

impl SpanGuard {
    #[inline]
    pub(crate) fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                started: None,
                name,
                recorded: false,
            };
        }
        SPAN_PATHS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => {
                    let mut p = String::with_capacity(parent.len() + 1 + name.len());
                    p.push_str(parent);
                    p.push('/');
                    p.push_str(name);
                    p
                }
                None => name.to_owned(),
            };
            stack.push(path);
        });
        let recorded = crate::flight::collecting();
        if recorded {
            crate::flight::record_begin(name);
        }
        SpanGuard {
            started: Some(Instant::now()),
            name,
            recorded,
        }
    }
}

/// The slash-separated path of the innermost span currently open on this
/// thread, or `None` when telemetry is disabled or no span is open.
///
/// Worker pools capture this on the submitting thread and hand it to
/// [`adopt_span_parent`] on each worker, so spans opened inside pool tasks
/// nest under the caller's span instead of starting a fresh root — the
/// span stack itself is `thread_local!` and does not cross threads.
pub fn current_span_path() -> Option<String> {
    if !crate::enabled() {
        return None;
    }
    SPAN_PATHS.with(|stack| stack.borrow().last().cloned())
}

/// RAII guard for an adopted parent span path; created by
/// [`adopt_span_parent`]. Dropping pops the adopted path without recording
/// anything — the originating thread's own [`SpanGuard`] does the timing.
#[derive(Debug)]
#[must_use = "the parent path is adopted only while the guard lives"]
pub struct ParentSpanGuard {
    adopted: bool,
}

/// Pushes `path` (a value from [`current_span_path`], captured on the
/// submitting thread) as the parent for spans subsequently opened on this
/// thread. No-op when `path` is `None` or telemetry is disabled.
pub fn adopt_span_parent(path: Option<String>) -> ParentSpanGuard {
    let Some(path) = path.filter(|_| crate::enabled()) else {
        return ParentSpanGuard { adopted: false };
    };
    SPAN_PATHS.with(|stack| stack.borrow_mut().push(path));
    ParentSpanGuard { adopted: true }
}

impl Drop for ParentSpanGuard {
    fn drop(&mut self) {
        // Pool workers drop this guard at task end, before the submitting
        // call returns — the point at which the task's pending work
        // tallies must reach the registry, since the worker then parks.
        // (Unconditional: workers record work even when no parent span
        // was adopted. A no-op when nothing is pending.)
        crate::work::flush();
        if self.adopted {
            SPAN_PATHS.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        // Span end is the flush point of the thread-local work
        // accumulator (a no-op when the kernels inside recorded nothing).
        crate::work::flush();
        let duration_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if self.recorded {
            crate::flight::record_end(self.name);
        }
        let path = SPAN_PATHS.with(|stack| stack.borrow_mut().pop());
        if let Some(path) = path {
            crate::registry().span_record(&path, duration_ns);
        }
    }
}
