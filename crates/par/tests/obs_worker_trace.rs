//! Observability contract of the worker pool: spans opened inside pool
//! tasks nest under the submitting thread's span, and flight-ring span
//! records emitted from workers stay balanced on a small pooled set of
//! tids.
//!
//! The obs registry, the flight ring and the pool size are all
//! process-global, so the tests serialize on one mutex and reset the
//! telemetry state at entry. No trace path is set: tid pooling must work
//! for the default always-on flight ring.

use pathrep_obs::flight::{self, FlightPhase, FlightRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// First tid of the pooled worker range (see `pathrep-obs`'s trace module);
/// real threads count up from 0, pooled workers from here.
const WORKER_TID_BASE: u64 = 1_000_000;

/// Requested pool size; the pool caps it at the machine's parallelism.
const THREADS: usize = 4;

/// Grain that makes every unit worth a worker of its own.
const SPLIT: usize = pathrep_par::MIN_FLOPS_PER_WORKER;

fn setup() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pathrep_obs::set_enabled(true);
    flight::set_capacity(pathrep_obs::config::DEFAULT_FLIGHT_CAPACITY);
    pathrep_obs::reset();
    pathrep_par::set_threads(THREADS);
    guard
}

fn teardown() {
    pathrep_par::set_threads(0);
}

/// Workers the pool actually runs for a large region: the requested
/// count capped at the machine's available parallelism.
fn effective_workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    THREADS.min(cores)
}

/// The flight ring's span records, asserting nothing was overwritten.
fn span_records() -> Vec<FlightRecord> {
    let (records, overwritten) = flight::snapshot();
    assert_eq!(overwritten, 0, "this tiny workload must not wrap the ring");
    records
        .into_iter()
        .filter(|r| r.phase != FlightPhase::Instant)
        .collect()
}

#[test]
fn worker_spans_nest_under_the_submitting_span() {
    let _guard = setup();
    {
        let _outer = pathrep_obs::span!("pool_outer");
        let out = pathrep_par::map_indexed(16, SPLIT, |i| {
            let _inner = pathrep_obs::span!("pool_task");
            i * 3
        });
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }
    let snap = pathrep_obs::registry().snapshot();
    let outer = snap
        .spans
        .iter()
        .find(|s| s.path == "pool_outer")
        .expect("outer span is a root");
    let task = outer
        .children
        .iter()
        .find(|s| s.path == "pool_outer/pool_task")
        .expect("worker spans must adopt the submitting thread's path");
    assert_eq!(task.count, 16, "every task execution is recorded");
    assert!(
        !snap.spans.iter().any(|s| s.path == "pool_task"),
        "no task span may escape to the root: {:?}",
        snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
    teardown();
}

#[test]
fn worker_trace_events_are_balanced_on_pooled_tids() {
    let _guard = setup();
    const REGIONS: usize = 10;
    {
        let _outer = pathrep_obs::span!("trace_outer");
        for _ in 0..REGIONS {
            pathrep_par::for_each_subrange(32, SPLIT, |r| {
                for _ in r {
                    let _s = pathrep_obs::span!("trace_unit");
                }
            });
        }
    }
    let records = span_records();

    // Stack discipline per tid: depth never goes negative and every begin
    // is closed — an unbalanced stream renders as garbage in a viewer.
    let mut depth: BTreeMap<u64, i64> = BTreeMap::new();
    for FlightRecord { phase, tid, .. } in &records {
        let d = depth.entry(*tid).or_insert(0);
        match phase {
            FlightPhase::Begin => *d += 1,
            FlightPhase::End => {
                *d -= 1;
                assert!(*d >= 0, "tid {tid}: end without a matching begin");
            }
            FlightPhase::Instant => {}
        }
    }
    for (tid, d) in &depth {
        assert_eq!(*d, 0, "tid {tid}: {d} span(s) left open");
    }

    // Every unit recorded off the submitting thread ran on a pool
    // worker, which must carry a pooled tid; ten regions must share at
    // most `workers - 1` of them, as the caller runs one task itself.
    let caller_tid = records
        .iter()
        .find(|r| r.name == "trace_outer")
        .map(|r| r.tid)
        .expect("outer begin recorded");
    let worker_tids: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.name == "trace_unit" && r.tid != caller_tid)
        .map(|r| r.tid)
        .collect();
    assert!(
        worker_tids.iter().all(|&t| t >= WORKER_TID_BASE),
        "pool workers must take pooled tids, got {worker_tids:?}"
    );
    let workers = effective_workers();
    assert!(
        worker_tids.len() < workers,
        "{workers} workers must share at most {} pooled tids, got {worker_tids:?}",
        workers - 1
    );
    let unit_begins = records
        .iter()
        .filter(|r| r.name == "trace_unit" && r.phase == FlightPhase::Begin)
        .count();
    assert_eq!(unit_begins, 32 * REGIONS, "every unit span is recorded exactly once");
    teardown();
}
