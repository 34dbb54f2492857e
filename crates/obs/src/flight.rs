//! Always-on flight recorder: a fixed-capacity ring of recent span
//! begin/end and instant records — the crate's one span recorder.
//!
//! The ring is **on by default** at a small capacity
//! ([`crate::config::DEFAULT_FLIGHT_CAPACITY`] records, tunable with
//! `PATHREP_OBS_FLIGHT=<cap>`, `0` disables), overwriting the oldest
//! record so it always holds the *most recent* activity. When a process
//! panics, stalls, or is asked over the wire, [`dump_to`] renders the ring
//! as a Chrome-trace-compatible JSON file — the black box recovered from
//! the crash site. `PATHREP_OBS_TRACE=<path>` turns the same ring into a
//! run trace: the capacity rises to at least
//! [`crate::config::TRACE_CAPACITY`] and [`crate::report`] dumps it to
//! `<path>`.
//!
//! Because the ring overwrites, a raw dump would contain end records whose
//! begins were evicted and begins whose spans were still open at dump
//! time. [`render_chrome`] repairs both at render time: orphaned ends are
//! dropped, and still-open begins get a synthetic end at the dump
//! timestamp — which is precisely how the *panicking* request's span (its
//! end never ran) survives into the dump with its trace context attached.
//!
//! [`install_panic_hook`] chains the previous hook, records the panic
//! message as an instant record, dumps the ring and optionally exits the
//! process — the daemon installs it with an exit code so an injected
//! panic kills the process *after* the evidence is on disk.

use crate::trace::TraceContext;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Phase of a flight record, mirroring the Chrome-trace `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightPhase {
    /// Span entry (`ph:"B"`).
    Begin,
    /// Span exit (`ph:"E"`).
    End,
    /// A point-in-time mark (`ph:"i"`): events, panics, watchdog fires.
    Instant,
}

/// One record in the flight ring.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Span leaf name or instant-mark name.
    pub name: &'static str,
    /// Begin, end or instant.
    pub phase: FlightPhase,
    /// Monotonic nanoseconds on the shared trace epoch.
    pub ts_ns: u64,
    /// Per-thread trace id (pooled for worker-pool threads; see
    /// [`crate::trace::worker_tid`]).
    pub tid: u64,
    /// Trace context active on the recording thread, if any.
    pub ctx: Option<TraceContext>,
    /// Free-form details for instant records (panic message, watchdog
    /// diagnosis); `None` for span records.
    pub note: Option<String>,
}

struct Ring {
    records: VecDeque<FlightRecord>,
    /// Records evicted to make room — the ring's drop count.
    overwritten: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            records: VecDeque::new(),
            overwritten: 0,
        })
    })
}

/// 0 = undecided (read env on first query), 1 = off, 2 = on.
static COLLECTING: AtomicU8 = AtomicU8::new(0);
static CAPACITY: AtomicUsize = AtomicUsize::new(0);

/// Whether the flight recorder is accepting records. The first call
/// resolves `PATHREP_OBS_FLIGHT` (unset means **on** at the default small
/// capacity; `0`/`off` disables); later calls are one relaxed atomic
/// load. Recording still requires [`crate::enabled`] — the recorder rides
/// the span path, which is dead when telemetry is off.
#[inline]
pub fn collecting() -> bool {
    match COLLECTING.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_collecting(),
    }
}

#[cold]
fn init_collecting() -> bool {
    let cap = crate::config::flight_capacity();
    CAPACITY.store(cap.unwrap_or(0), Ordering::Relaxed);
    COLLECTING.store(if cap.is_some() { 2 } else { 1 }, Ordering::Relaxed);
    cap.is_some()
}

/// Programmatically sets the ring capacity, overriding the environment:
/// `0` disables recording, anything else enables it at that capacity
/// (used by tests and embedders). Does not clear existing records.
pub fn set_capacity(cap: usize) {
    CAPACITY.store(cap, Ordering::Relaxed);
    COLLECTING.store(if cap > 0 { 2 } else { 1 }, Ordering::Relaxed);
}

/// The active ring capacity (0 when disabled).
pub fn capacity() -> usize {
    let _ = collecting(); // force env resolution
    CAPACITY.load(Ordering::Relaxed)
}

fn push(record: FlightRecord) {
    let cap = CAPACITY.load(Ordering::Relaxed);
    if cap == 0 {
        return;
    }
    let mut g = ring().lock();
    while g.records.len() >= cap {
        g.records.pop_front();
        g.overwritten += 1;
    }
    g.records.push_back(record);
}

fn record(name: &'static str, phase: FlightPhase, note: Option<String>) {
    push(FlightRecord {
        name,
        phase,
        ts_ns: crate::trace::now_ns(),
        tid: crate::trace::thread_id(),
        ctx: crate::trace::current_context(),
        note,
    });
}

/// Records a span begin (called from the span guard's hot path; the
/// caller has already checked [`crate::enabled`] and [`collecting`]).
#[inline]
pub(crate) fn record_begin(name: &'static str) {
    record(name, FlightPhase::Begin, None);
}

/// Records a span end.
#[inline]
pub(crate) fn record_end(name: &'static str) {
    record(name, FlightPhase::End, None);
}

/// Records an instant mark (panic, watchdog fire, notable event) with a
/// free-form note. No-op when the recorder is off.
pub fn instant(name: &'static str, note: impl Into<String>) {
    if collecting() {
        record(name, FlightPhase::Instant, Some(note.into()));
    }
}

/// A copy of the ring in record order plus the overwrite (drop) count.
pub fn snapshot() -> (Vec<FlightRecord>, u64) {
    let g = ring().lock();
    (g.records.iter().cloned().collect(), g.overwritten)
}

/// Clears the ring and its drop count.
pub fn reset() {
    let mut g = ring().lock();
    g.records.clear();
    g.overwritten = 0;
}

/// Renders flight records as a Chrome Trace Event JSON array with
/// **balanced** B/E pairs: end records whose begin was overwritten are
/// dropped, and begins still open at dump time get a synthetic end at the
/// latest timestamp in the dump (so the in-flight span — e.g. the request
/// that panicked — appears with its full extent and trace context).
/// Instant records render as `ph:"i"` thread-scoped marks carrying their
/// note, and the overwrite count is surfaced as a leading metadata mark.
pub fn render_chrome(records: &[FlightRecord], overwritten: u64, pid: u32) -> String {
    use std::collections::BTreeMap;
    // Pass 1: match B/E per tid; remember which records survive.
    // `stacks` maps tid -> indices of currently-open Begin records; a
    // BTreeMap so the synthetic ends below come out in tid order and the
    // same records always render to the same bytes.
    let mut stacks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut keep = vec![true; records.len()];
    for (i, r) in records.iter().enumerate() {
        match r.phase {
            FlightPhase::Begin => stacks.entry(r.tid).or_default().push(i),
            FlightPhase::End => {
                let stack = stacks.entry(r.tid).or_default();
                // Pop the innermost open begin with the same name; an
                // evicted begin leaves its end orphaned — drop the end.
                match stack.iter().rposition(|&bi| records[bi].name == r.name) {
                    Some(pos) => {
                        // Anything opened after it never ended inside the
                        // window either; leave those on the stack — they
                        // get synthetic ends below.
                        stack.remove(pos);
                    }
                    None => keep[i] = false,
                }
            }
            FlightPhase::Instant => {}
        }
    }
    let dump_ts = records.iter().map(|r| r.ts_ns).max().unwrap_or(0);
    let fmt_ts = |ts_ns: u64| format!("{}.{:03}", ts_ns / 1_000, ts_ns % 1_000);
    let fmt_ctx = |ctx: Option<TraceContext>| match ctx {
        Some(c) => format!(
            ",\"trace_id\":{},\"request_seq\":{}",
            c.trace_id, c.request_seq
        ),
        None => String::new(),
    };
    let mut out = String::with_capacity(records.len() * 80 + 128);
    out.push('[');
    out.push_str(&format!(
        "{{\"name\":\"flight.overwritten\",\"ph\":\"i\",\"ts\":0.000,\"pid\":{pid},\
         \"tid\":0,\"s\":\"g\",\"args\":{{\"overwritten\":{overwritten}}}}}"
    ));
    for (i, r) in records.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        out.push(',');
        match r.phase {
            FlightPhase::Begin | FlightPhase::End => {
                out.push_str(&format!(
                    "{{\"name\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":{pid},\"tid\":{}\
                     ,\"args\":{{\"flight\":true{}}}}}",
                    crate::json::escape_string(r.name),
                    if r.phase == FlightPhase::Begin { "B" } else { "E" },
                    fmt_ts(r.ts_ns),
                    r.tid,
                    fmt_ctx(r.ctx),
                ));
            }
            FlightPhase::Instant => {
                let note = r.note.as_deref().unwrap_or("");
                out.push_str(&format!(
                    "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":{pid},\"tid\":{},\
                     \"s\":\"t\",\"args\":{{\"note\":{}{}}}}}",
                    crate::json::escape_string(r.name),
                    fmt_ts(r.ts_ns),
                    r.tid,
                    crate::json::escape_string(note),
                    fmt_ctx(r.ctx),
                ));
            }
        }
    }
    // Synthetic ends for spans still open at dump time, innermost first
    // so per-tid nesting stays balanced.
    for (tid, stack) in &stacks {
        for &bi in stack.iter().rev() {
            let r = &records[bi];
            out.push(',');
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"flight\":true,\"synthetic_end\":true{}}}}}",
                crate::json::escape_string(r.name),
                fmt_ts(dump_ts),
                fmt_ctx(r.ctx),
            ));
        }
    }
    out.push(']');
    out
}

/// Writes the current ring to `path` as balanced Chrome Trace JSON.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn dump_to(path: &str) -> std::io::Result<(usize, u64)> {
    let (records, overwritten) = snapshot();
    let n = records.len();
    std::fs::write(path, render_chrome(&records, overwritten, std::process::id()))?;
    Ok((n, overwritten))
}

/// Dumps the ring to the configured path (`PATHREP_OBS_FLIGHT_DUMP`, or
/// `flight_<pid>.json`), warning instead of failing on I/O errors, and
/// returns the path written (or attempted).
pub fn dump_default() -> String {
    let path = crate::config::flight_dump_path();
    match dump_to(&path) {
        Ok((n, dropped)) => {
            eprintln!(
                "pathrep-obs: flight recorder dumped {n} records \
                 ({dropped} overwritten) to {path}"
            );
        }
        Err(e) => crate::config::warn_export("flight", &path, &e),
    }
    path
}

/// Installs a panic hook that records the panic as an instant mark, dumps
/// the flight ring to the configured path, chains the previously
/// installed hook, and — when `exit_code` is `Some` — terminates the
/// process with that code (daemons install it this way so a panicking
/// handler thread kills the whole process *after* the dump lands).
/// Reentrant panics skip the dump.
pub fn install_panic_hook(exit_code: Option<i32>) {
    use std::sync::atomic::AtomicBool;
    static IN_HOOK: AtomicBool = AtomicBool::new(false);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !IN_HOOK.swap(true, Ordering::SeqCst) {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            let loc = info
                .location()
                .map(|l| format!(" at {}:{}", l.file(), l.line()))
                .unwrap_or_default();
            instant("panic", format!("{msg}{loc}"));
            dump_default();
        }
        prev(info);
        IN_HOOK.store(false, Ordering::SeqCst);
        if let Some(code) = exit_code {
            std::process::exit(code);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that mutate the process-global ring/capacity.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn rec(name: &'static str, phase: FlightPhase, ts_ns: u64, tid: u64) -> FlightRecord {
        FlightRecord {
            name,
            phase,
            ts_ns,
            tid,
            ctx: None,
            note: None,
        }
    }

    /// Walks a rendered dump and asserts every tid's B/E stream is
    /// balanced; returns (begin_count, end_count, instant_count).
    fn check_dump_balanced(json: &str) -> (usize, usize, usize) {
        use std::collections::HashMap;
        let v = crate::json::parse(json).expect("dump parses");
        let items = v.array().expect("top-level array");
        let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
        let (mut b, mut e, mut i) = (0, 0, 0);
        for item in items {
            let ph = item.field("ph").unwrap().string().unwrap();
            let tid = item.field("tid").unwrap().number().unwrap() as u64;
            let name = item.field("name").unwrap().string().unwrap();
            match ph.as_str() {
                "B" => {
                    stacks.entry(tid).or_default().push(name);
                    b += 1;
                }
                "E" => {
                    let open = stacks
                        .entry(tid)
                        .or_default()
                        .pop()
                        .expect("E without open B");
                    assert_eq!(open, name, "mismatched B/E pair");
                    e += 1;
                }
                "i" => i += 1,
                other => panic!("unexpected phase {other}"),
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "unbalanced spans on tid {tid}: {stack:?}");
        }
        (b, e, i)
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _l = guard();
        set_capacity(4);
        reset();
        for i in 0..6u64 {
            push(rec("x", FlightPhase::Instant, i, 0));
        }
        let (records, overwritten) = snapshot();
        assert_eq!(records.len(), 4);
        assert_eq!(overwritten, 2);
        assert_eq!(records[0].ts_ns, 2, "oldest two were evicted");
        reset();
        let (records, overwritten) = snapshot();
        assert!(records.is_empty());
        assert_eq!(overwritten, 0);
        set_capacity(0);
        push(rec("y", FlightPhase::Instant, 9, 0));
        assert!(snapshot().0.is_empty(), "capacity 0 records nothing");
    }

    #[test]
    fn render_drops_orphan_ends_and_closes_open_begins() {
        // tid 0: an orphaned end (begin evicted), then a full span, then
        // a begin with no end (the "panicking" span).
        let records = vec![
            rec("evicted", FlightPhase::End, 10, 0),
            rec("ok", FlightPhase::Begin, 20, 0),
            rec("ok", FlightPhase::End, 30, 0),
            FlightRecord {
                ctx: Some(TraceContext {
                    trace_id: 77,
                    request_seq: 3,
                }),
                ..rec("inflight", FlightPhase::Begin, 40, 0)
            },
            rec("mark", FlightPhase::Instant, 45, 0),
        ];
        let json = render_chrome(&records, 5, 42);
        let (b, e, i) = check_dump_balanced(&json);
        assert_eq!(b, 2, "orphaned end must not leave an extra B");
        assert_eq!(e, 2, "open begin gets a synthetic end");
        assert_eq!(i, 2, "instant mark + overwritten metadata mark");
        // The in-flight span keeps its trace context in the dump.
        assert!(json.contains("\"trace_id\":77"), "{json}");
        assert!(json.contains("\"synthetic_end\":true"), "{json}");
        assert!(json.contains("\"overwritten\":5"), "{json}");
    }

    #[test]
    fn render_formats_timestamps_and_escapes_names() {
        let records = [
            rec("a\"b", FlightPhase::Begin, 1_500, 0),
            rec("a\"b", FlightPhase::End, 2_000, 0),
        ];
        assert_eq!(
            render_chrome(&records, 0, 42),
            "[{\"name\":\"flight.overwritten\",\"ph\":\"i\",\"ts\":0.000,\"pid\":42,\
             \"tid\":0,\"s\":\"g\",\"args\":{\"overwritten\":0}},\
             {\"name\":\"a\\\"b\",\"ph\":\"B\",\"ts\":1.500,\"pid\":42,\"tid\":0,\
             \"args\":{\"flight\":true}},\
             {\"name\":\"a\\\"b\",\"ph\":\"E\",\"ts\":2.000,\"pid\":42,\"tid\":0,\
             \"args\":{\"flight\":true}}]"
        );
    }

    #[test]
    fn render_is_deterministic_with_open_spans_on_many_tids() {
        let records: Vec<FlightRecord> = (0..8u64)
            .map(|tid| rec("open", FlightPhase::Begin, 10 + tid, tid))
            .collect();
        let first = render_chrome(&records, 0, 1);
        for _ in 0..20 {
            assert_eq!(render_chrome(&records, 0, 1), first);
        }
        // Synthetic ends follow tid order.
        let v = crate::json::parse(&first).unwrap();
        let end_tids: Vec<f64> = v
            .array()
            .unwrap()
            .iter()
            .filter(|e| e.field("ph").unwrap().string().unwrap() == "E")
            .map(|e| e.field("tid").unwrap().number().unwrap())
            .collect();
        assert_eq!(end_tids, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn span_guards_feed_the_ring_when_enabled() {
        let _l = guard();
        crate::set_enabled(true);
        set_capacity(64);
        reset();
        {
            let _outer = crate::span!("flight_outer");
            let _inner = crate::span!("flight_inner");
        }
        let (records, _) = snapshot();
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert!(names.contains(&"flight_outer"), "{names:?}");
        assert!(names.contains(&"flight_inner"), "{names:?}");
        let json = render_chrome(&snapshot().0, 0, 1);
        check_dump_balanced(&json);
        reset();
    }
}
