//! # pathrep-par — deterministic persistent worker pool for the hot kernels
//!
//! The execution layer that the numerical kernels (`matmul`, pivoted QR,
//! SVD bidiagonalization, the Monte-Carlo evaluation, the ADMM
//! prox/projection steps) use to fan work out across threads **without
//! changing a single bit of any result**. It runs on `std` alone: one
//! process-wide pool of parked worker threads, started on the first call
//! that fans out.
//!
//! ## The determinism contract
//!
//! The worker count is a *scheduling* knob, never a *semantic* one:
//!
//! * Work is partitioned into contiguous index ranges; every element of the
//!   output is computed by exactly the same sequence of floating-point
//!   operations regardless of how the ranges are assigned to threads.
//! * Reductions never combine partials in arrival order. Either each output
//!   element owns its full accumulation (row/column-parallel kernels), or
//!   the caller reduces fixed-size chunks in chunk-index order
//!   ([`map_indexed`] returns results positionally, not first-come-first-served).
//! * RNG streams are keyed by chunk index, not by worker id, so seeded
//!   sampling draws identical values at any thread count.
//!
//! Consequently `PATHREP_THREADS=1` and `PATHREP_THREADS=64` produce
//! bit-identical selections, obs counters and ledger records; only wall
//! time differs.
//!
//! ## One break-even
//!
//! Every entry point takes the work of one unit in **flops** (the same
//! closed-form count the kernels record in `pathrep_obs::work`) and fans
//! out only as far as each worker gets at least [`MIN_FLOPS_PER_WORKER`]
//! of them. Below that a call runs inline on the calling thread: handing a
//! task to a parked worker and waiting for it costs a few microseconds,
//! which a smaller share of work cannot repay.
//!
//! ## The pool
//!
//! `available_parallelism − 1` workers start lazily on the first call that
//! fans out and then live for the whole process. Between jobs they park on
//! a condition variable and never spin, so other threads of the process
//! (the serving reactor, say) keep their CPU. A call publishes its tasks as
//! one job, runs tasks itself, and returns only after every task has
//! finished and every worker has let go of the job. A call made from inside
//! a task, or while another thread's job holds the pool, runs its tasks
//! inline in index order. A panic in a task is re-raised on the caller.
//!
//! ## Configuration
//!
//! The pool size is resolved once from the `PATHREP_THREADS` environment
//! variable ([`pathrep_obs::config::ENV_THREADS`]): unset or `0` means
//! available parallelism, `1` forces fully inline sequential execution
//! (no thread is ever started), any other value is the worker count.
//! [`set_threads`] overrides it programmatically (tests, the perf gate).
//!
//! ## Observability
//!
//! Spans opened inside worker tasks must nest under the span that was open
//! on the submitting thread, and flight-ring span records from workers must
//! land on a small stable set of tids. Every job therefore captures the
//! parent span path ([`pathrep_obs::current_span_path`]); a worker adopts
//! it ([`pathrep_obs::adopt_span_parent`]) and takes a pooled trace tid
//! ([`pathrep_obs::trace::worker_tid`]) for each task it runs. Dropping the
//! adopted parent at task end flushes the worker's work tallies, so no
//! tally is pending on a worker once the call returns.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, TryLockError};

/// The break-even of a fan-out: the least work, in flops, that one worker
/// must get before a call splits across workers. A sweep of 2^16…2^22 over
/// the repository benchmark on a 2-vCPU host picked it (see CHANGES.md).
pub const MIN_FLOPS_PER_WORKER: usize = 1 << 20;

/// Resolved worker count; 0 = not yet resolved from the environment.
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The pool's worker count: the `PATHREP_THREADS` environment variable,
/// resolved once and cached (unset, empty, unparsable or `0` all mean
/// "available parallelism"). Always at least 1.
#[inline]
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => resolve_threads(),
        n => n,
    }
}

#[cold]
fn resolve_threads() -> usize {
    let n = match std::env::var(pathrep_obs::config::ENV_THREADS) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    };
    THREADS.store(n, Ordering::Relaxed);
    n
}

fn default_threads() -> usize {
    // Cached: this sits on every kernel call's worker-count decision and
    // available_parallelism() is a syscall.
    static CORES: AtomicUsize = AtomicUsize::new(0);
    match CORES.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            CORES.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the worker count for the whole process (tests and the perf
/// gate's thread axis). `0` clears the override so the next [`threads`]
/// call re-resolves `PATHREP_THREADS`. Results are unaffected either way —
/// this only changes scheduling.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// Splits `0..n` into exactly `workers` contiguous balanced ranges
/// (`workers ≤ n`); the first `n % workers` ranges are one longer.
fn partition(n: usize, workers: usize) -> Vec<Range<usize>> {
    debug_assert!(workers >= 1 && workers <= n);
    let base = n / workers;
    let rem = n % workers;
    let mut parts = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        parts.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    parts
}

/// How many workers to actually use for `n` units of `flops_per_unit`
/// flops each: as many as get at least [`MIN_FLOPS_PER_WORKER`] flops, and
/// never more than `n`. `workers_override` of 0 means the global
/// [`threads`] setting, capped at the machine's available parallelism:
/// more workers than cores can never go faster (worker count is
/// scheduling-only, so results are identical either way). An explicit
/// `workers_override` is trusted as-is so tests can force multi-worker
/// paths regardless of the host.
fn effective_workers(n: usize, flops_per_unit: usize, workers_override: usize) -> usize {
    let base = if workers_override > 0 {
        workers_override
    } else {
        threads().min(default_threads())
    };
    let by_work = n.saturating_mul(flops_per_unit) / MIN_FLOPS_PER_WORKER;
    base.min(by_work).min(n).max(1)
}

/// One published fan-out: task `i` is `run(i)`. The caller runs task 0
/// itself; every other index is claimed once through `next`.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    /// The caller's span path, adopted by workers for each task.
    parent: Option<String>,
    /// The first panic payload of a task run by a worker.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs tasks until none is left. Workers run each task
    /// under the caller's span path and a pooled trace tid, and keep the
    /// first panic for the caller.
    fn drain(&self, on_worker: bool) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if !on_worker {
                (self.run)(i);
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _tid = pathrep_obs::trace::worker_tid();
                let _span = pathrep_obs::adopt_span_parent(self.parent.clone());
                (self.run)(i)
            }));
            if let Err(payload) = outcome {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// A published job with its lifetime erased. Workers dereference it only
/// while they hold a reference counted in [`Slot::refs`], and the caller
/// does not return (so the job cannot be freed) before that count is zero.
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointee is `Sync` (its closure is `Sync`, the rest are
// atomics and a mutex); the pointer only crosses threads under the slot
// lock and is dereferenced under the refcount discipline above.
unsafe impl Send for JobPtr {}

struct Slot {
    /// The job open for workers to join, if any.
    job: Option<JobPtr>,
    /// Bumped per published job, so a worker joins each job at most once.
    epoch: u64,
    /// Workers currently holding `job`.
    refs: usize,
}

struct Pool {
    /// Held by the one caller whose job occupies the pool, for the whole
    /// job: a call from inside one of its tasks (on the caller or on a
    /// worker) finds it taken and runs inline instead of waiting on itself.
    busy: Mutex<()>,
    slot: Mutex<Slot>,
    /// Signalled when a job is published.
    work: Condvar,
    /// Signalled when the last worker lets go of a job.
    done: Condvar,
    /// Workers started, set by the first call that fans out.
    workers: OnceLock<usize>,
}

/// Locks `m`, ignoring poisoning: every critical section here leaves its
/// data consistent, and task panics are caught outside them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The pool and its worker count, starting the workers on first use.
fn pool() -> (&'static Pool, usize) {
    static POOL: OnceLock<Pool> = OnceLock::new();
    let pool = POOL.get_or_init(|| Pool {
        busy: Mutex::new(()),
        slot: Mutex::new(Slot {
            job: None,
            epoch: 0,
            refs: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
        workers: OnceLock::new(),
    });
    let workers = *pool.workers.get_or_init(|| {
        (0..default_threads() - 1)
            .take_while(|i| {
                std::thread::Builder::new()
                    .name(format!("pathrep-par-{i}"))
                    .spawn(move || worker_loop(pool))
                    .is_ok()
            })
            .count()
    });
    (pool, workers)
}

fn worker_loop(pool: &'static Pool) {
    let mut seen = 0;
    loop {
        let job = {
            let mut slot = lock(&pool.slot);
            loop {
                match slot.job {
                    Some(job) if slot.epoch != seen => {
                        seen = slot.epoch;
                        slot.refs += 1;
                        break job;
                    }
                    _ => slot = pool.work.wait(slot).unwrap_or_else(|p| p.into_inner()),
                }
            }
        };
        // SAFETY: the reference taken above keeps the caller in
        // `run_tasks` until it is released below (see `JobPtr`).
        unsafe { &*job.0 }.drain(true);
        let mut slot = lock(&pool.slot);
        slot.refs -= 1;
        if slot.refs == 0 {
            pool.done.notify_one();
        }
    }
}

/// Runs `tasks` (already carved into per-worker units) on the pool: the
/// first task on the calling thread, the rest on whichever of the caller
/// and the parked workers claims them first. Runs them all inline, in
/// order, when called from inside a task, when another thread's job holds
/// the pool, or when the pool has no workers. A task panic is re-raised on
/// the caller once every worker has let go of the job.
fn run_tasks<T, F>(tasks: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = tasks.len();
    let inline = |tasks: Vec<T>| tasks.into_iter().for_each(&f);
    if n <= 1 {
        return inline(tasks);
    }
    let (pool, workers) = pool();
    if workers == 0 {
        return inline(tasks);
    }
    let _busy = match pool.busy.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(p)) => p.into_inner(),
        Err(TryLockError::WouldBlock) => return inline(tasks),
    };
    let cells: Vec<Mutex<Option<T>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let run = |i: usize| {
        let task = lock(&cells[i]).take().expect("each task is claimed once");
        f(task)
    };
    let job = Job {
        run: &run,
        n,
        next: AtomicUsize::new(1),
        parent: pathrep_obs::current_span_path(),
        panic: Mutex::new(None),
    };
    {
        let mut slot = lock(&pool.slot);
        slot.job = Some(JobPtr(std::ptr::from_ref(&job).cast::<Job<'static>>()));
        slot.epoch += 1;
    }
    if n > workers {
        pool.work.notify_all();
    } else {
        (0..n - 1).for_each(|_| pool.work.notify_one());
    }
    let first = catch_unwind(AssertUnwindSafe(|| {
        run(0);
        job.drain(false);
    }));
    {
        // Retract the job and wait for every worker holding it: after this
        // no thread can reach `job`, `run` or `cells` any more.
        let mut slot = lock(&pool.slot);
        slot.job = None;
        while slot.refs > 0 {
            slot = pool.done.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
    }
    let worker_panic = lock(&job.panic).take();
    if let Some(payload) = first.err().or(worker_panic) {
        drop(_busy);
        resume_unwind(payload);
    }
}

/// Parallel loop over the index range `0..n`, handing each worker one
/// contiguous subrange. Each index is `flops_per_unit` flops of work; the
/// loop stays fully inline when the pool is sequential or the whole range
/// is too little work to split (see [`MIN_FLOPS_PER_WORKER`]).
///
/// The caller's closure must only write state that is disjoint across
/// subranges (e.g. per-column updates through an [`UnsafeSlice`]); reads
/// of shared immutable data are always fine.
pub fn for_each_subrange<F>(n: usize, flops_per_unit: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let workers = effective_workers(n, flops_per_unit, 0);
    if workers <= 1 {
        f(0..n);
        return;
    }
    run_tasks(partition(n, workers), f);
}

/// Parallel loop over a mutable slice viewed as `data.len() / unit`
/// contiguous units of `unit` elements each (e.g. matrix rows), each unit
/// `flops_per_unit` flops of work: each worker receives
/// `(first_unit_index, sub_slice)` for a contiguous block of whole units.
/// Inline when sequential or too little work to split.
///
/// # Panics
///
/// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`.
pub fn for_each_unit_chunk_mut<T, F>(data: &mut [T], unit: usize, flops_per_unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(unit > 0, "unit must be positive");
    assert_eq!(
        data.len() % unit,
        0,
        "data length must be a whole number of units"
    );
    let n_units = data.len() / unit;
    if n_units == 0 {
        return;
    }
    let workers = effective_workers(n_units, flops_per_unit, 0);
    if workers <= 1 {
        f(0, data);
        return;
    }
    let mut chunks = Vec::with_capacity(workers);
    let mut rest = data;
    for r in partition(n_units, workers) {
        let (head, tail) = rest.split_at_mut((r.end - r.start) * unit);
        chunks.push((r.start, head));
        rest = tail;
    }
    run_tasks(chunks, |(first_unit, chunk)| f(first_unit, chunk));
}

/// Deterministic indexed map: computes `f(i)` for `i` in `0..n` on the pool
/// (each `f(i)` being `flops_per_unit` flops of work) and returns the
/// results **in index order** — the combine order can never depend on
/// thread scheduling. This is the primitive behind the chunked Monte-Carlo
/// reduction.
pub fn map_indexed<R, F>(n: usize, flops_per_unit: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with(n, flops_per_unit, 0, f)
}

/// [`map_indexed`] with an explicit worker-count override (`0` = the global
/// [`threads`] setting). Results are identical for every override value.
pub fn map_indexed_with<R, F>(n: usize, flops_per_unit: usize, workers_override: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let workers = effective_workers(n, flops_per_unit, workers_override);
    if workers <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(i));
        }
    } else {
        let mut chunks = Vec::with_capacity(workers);
        let mut rest = slots.as_mut_slice();
        for r in partition(n, workers) {
            let (head, tail) = rest.split_at_mut(r.end - r.start);
            chunks.push((r.start, head));
            rest = tail;
        }
        run_tasks(chunks, |(first, chunk): (usize, &mut [Option<R>])| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = Some(f(first + k));
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index was computed"))
        .collect()
}

/// A shared raw view of a mutable slice for kernels whose per-worker write
/// sets are disjoint but **strided** (e.g. disjoint column ranges of a
/// row-major matrix), which `split_at_mut` cannot express.
///
/// All access is `unsafe`: the caller asserts that no element is written by
/// one worker while any other worker touches it. Reads of elements outside
/// every worker's write set are safe under the same discipline.
pub struct UnsafeSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send + Sync> Send for UnsafeSlice<'_, T> {}
unsafe impl<T: Send + Sync> Sync for UnsafeSlice<'_, T> {}

impl<'a, T> UnsafeSlice<'a, T> {
    /// Wraps `slice`; the borrow keeps the underlying storage alive and
    /// exclusively reserved for the lifetime of the view.
    pub fn new(slice: &'a mut [T]) -> Self {
        UnsafeSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and no other thread may be writing element `i`
    /// concurrently.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Writes element `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and no other thread may be reading or writing
    /// element `i` concurrently.
    #[inline]
    pub unsafe fn set(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `set_threads` is process-global; serialize the tests that touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    /// Grain that makes every unit worth a worker of its own.
    const SPLIT: usize = MIN_FLOPS_PER_WORKER;

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(n);
        let r = f();
        set_threads(0);
        r
    }

    #[test]
    fn partition_is_balanced_and_exhaustive() {
        let parts = partition(10, 3);
        assert_eq!(parts, vec![0..4, 4..7, 7..10]);
        let parts = partition(4, 4);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn effective_workers_respects_grain() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        // Explicit overrides are exact (not clamped by host core count),
        // which keeps these assertions machine-independent.
        let m = MIN_FLOPS_PER_WORKER;
        assert_eq!(effective_workers(1000, m, 8), 8);
        assert_eq!(effective_workers(1000, m / 400, 8), 2);
        assert_eq!(effective_workers(1000, m / 1000 - 1, 8), 1);
        assert_eq!(effective_workers(3, m, 8), 3, "never more workers than units");
        assert_eq!(effective_workers(1000, m, 3), 3);
        assert_eq!(effective_workers(usize::MAX, usize::MAX, 8), 8, "no overflow");
    }

    #[test]
    fn global_setting_is_capped_at_available_parallelism() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cores = default_threads();
        set_threads(cores + 13);
        assert_eq!(effective_workers(usize::MAX, SPLIT, 0), cores);
        set_threads(0);
    }

    #[test]
    fn unit_chunks_cover_every_row_once() {
        with_threads(4, || {
            let mut data = vec![0u32; 12 * 3];
            for_each_unit_chunk_mut(&mut data, 3, SPLIT, |first_row, chunk| {
                for (r, row) in chunk.chunks_mut(3).enumerate() {
                    for x in row.iter_mut() {
                        *x += (first_row + r) as u32 + 1;
                    }
                }
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, (i / 3) as u32 + 1);
            }
        });
    }

    #[test]
    fn map_indexed_returns_results_in_order() {
        for t in [1, 4] {
            let out = with_threads(t, || map_indexed(100, SPLIT, |i| i * i));
            assert_eq!(out.len(), 100);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i * i);
            }
        }
    }

    #[test]
    fn subranges_are_disjoint_and_exhaustive() {
        with_threads(3, || {
            let mut hits = vec![0u8; 50];
            let slice = UnsafeSlice::new(&mut hits);
            for_each_subrange(50, SPLIT, |r| {
                for i in r {
                    // Disjoint ranges: no two workers touch the same index.
                    unsafe { slice.set(i, slice.get(i) + 1) };
                }
            });
            assert!(hits.iter().all(|&h| h == 1));
        });
    }

    #[test]
    fn sequential_mode_spawns_nothing_and_matches() {
        let seq = with_threads(1, || map_indexed(37, SPLIT, |i| (i as f64).sin()));
        let par = with_threads(4, || map_indexed(37, SPLIT, |i| (i as f64).sin()));
        assert_eq!(seq, par, "map results must be bit-identical");
    }

    #[test]
    fn below_the_break_even_a_call_stays_on_the_caller() {
        with_threads(4, || {
            let caller = std::thread::current().id();
            let ids = map_indexed(64, MIN_FLOPS_PER_WORKER / 64 - 1, |_| {
                std::thread::current().id()
            });
            assert!(ids.iter().all(|&id| id == caller));
        });
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                for_each_subrange(16, SPLIT, |r| {
                    if r.contains(&9) {
                        panic!("worker boom");
                    }
                });
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn the_pool_works_after_a_task_panic() {
        for bad in [0, 15] {
            let result = std::panic::catch_unwind(|| {
                with_threads(4, || {
                    map_indexed(16, SPLIT, |i| {
                        if i == bad {
                            panic!("task {i} fails");
                        }
                        i
                    })
                })
            });
            assert!(result.is_err(), "task {bad}'s panic must reach the caller");
            let out = with_threads(4, || map_indexed(16, SPLIT, |i| 2 * i));
            assert_eq!(out, (0..16).map(|i| 2 * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_calls_run_inline_and_match_sequential() {
        let nested = |_: ()| {
            map_indexed(8, SPLIT, |i| {
                let inner = map_indexed(8, SPLIT, |j| (i * 8 + j) as f64 * 0.5);
                inner.iter().sum::<f64>()
            })
        };
        let seq = with_threads(1, || nested(()));
        let par = with_threads(4, || nested(()));
        assert_eq!(seq, par);
        let expected: Vec<f64> = (0..8)
            .map(|i| (0..8).map(|j| (i * 8 + j) as f64 * 0.5).sum())
            .collect();
        assert_eq!(par, expected);
    }

    #[test]
    fn concurrent_callers_all_get_exact_results() {
        with_threads(4, || {
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    s.spawn(move || {
                        for call in 0..200u64 {
                            let n = 1 + ((t * 200 + call) % 23) as usize;
                            let out = map_indexed(n, SPLIT, |i| t * 1_000_000 + call * 100 + i as u64);
                            let expected: Vec<u64> =
                                (0..n as u64).map(|i| t * 1_000_000 + call * 100 + i).collect();
                            assert_eq!(out, expected, "thread {t}, call {call}");
                        }
                    });
                }
            });
        });
    }

    #[test]
    fn zero_length_inputs_are_noops() {
        with_threads(4, || {
            for_each_subrange(0, SPLIT, |_| panic!("must not run"));
            let mut empty: Vec<f64> = Vec::new();
            for_each_unit_chunk_mut(&mut empty, 3, SPLIT, |_, _| panic!("must not run"));
            assert!(map_indexed(0, SPLIT, |_| 0u8).is_empty());
        });
    }
}
