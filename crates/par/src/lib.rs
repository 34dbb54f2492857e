//! # pathrep-par — deterministic scoped worker pool for the hot kernels
//!
//! A thin execution layer over the vendored `crossbeam` scoped-thread shim
//! that the numerical kernels (`matmul`, pivoted QR, SVD bidiagonalization,
//! the Monte-Carlo evaluation, the ADMM prox/projection steps) use to fan
//! work out across threads **without changing a single bit of any result**.
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
//! ## Configuration
//!
//! The pool size is resolved once from the `PATHREP_THREADS` environment
//! variable ([`pathrep_obs::config::ENV_THREADS`]): unset or `0` means
//! available parallelism, `1` forces fully inline sequential execution
//! (no threads are ever spawned), any other value is the worker count.
//! [`set_threads`] overrides it programmatically (tests, the perf gate).
//!
//! ## Observability
//!
//! Spans opened inside worker closures must nest under the span that was
//! open on the submitting thread, and flight-ring span records from
//! workers must land on a small stable set of tids. Every spawn therefore
//! captures the parent span path ([`pathrep_obs::current_span_path`]) and
//! adopts it on the worker ([`pathrep_obs::adopt_span_parent`]), and takes
//! a pooled trace tid ([`pathrep_obs::trace::worker_tid`]) for the task's
//! lifetime.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// How many workers to actually use for `n` units of work when each worker
/// must own at least `min_per_worker` units. `workers_override` of 0 means
/// the global [`threads`] setting, capped at the machine's available
/// parallelism: spawning more workers than cores only adds thread-spawn
/// and context-switch cost on every kernel call and can never go faster
/// (worker count is scheduling-only, so results are identical either way).
/// An explicit `workers_override` is trusted as-is so tests can force
/// multi-worker paths regardless of the host.
fn effective_workers(n: usize, min_per_worker: usize, workers_override: usize) -> usize {
    let base = if workers_override > 0 {
        workers_override
    } else {
        threads().min(default_threads())
    };
    base.min(n / min_per_worker.max(1)).max(1)
}

/// Runs `tasks` (already carved into per-worker units) on the pool: the
/// first task inline on the calling thread, the rest on scoped workers
/// that adopt the caller's span path and a pooled trace tid. A worker
/// panic is re-raised on the caller.
fn run_tasks<T, F>(tasks: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let mut it = tasks.into_iter();
    let Some(first) = it.next() else { return };
    let parent = pathrep_obs::current_span_path();
    let result = crossbeam::scope(|s| {
        for task in it {
            let f = &f;
            let parent = parent.clone();
            s.spawn(move |_| {
                let _tid = pathrep_obs::trace::worker_tid();
                let _span = pathrep_obs::adopt_span_parent(parent);
                f(task)
            });
        }
        f(first)
    });
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}

/// Parallel loop over the index range `0..n`, handing each worker one
/// contiguous subrange. Stays fully inline (no spawn) when the pool is
/// sequential or `n < 2 * min_per_worker`.
///
/// The caller's closure must only write state that is disjoint across
/// subranges (e.g. per-column updates through an [`UnsafeSlice`]); reads
/// of shared immutable data are always fine.
pub fn for_each_subrange<F>(n: usize, min_per_worker: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let workers = effective_workers(n, min_per_worker, 0);
    if workers <= 1 {
        f(0..n);
        return;
    }
    run_tasks(partition(n, workers), f);
}

/// Parallel loop over a mutable slice viewed as `data.len() / unit`
/// contiguous units of `unit` elements each (e.g. matrix rows): each worker
/// receives `(first_unit_index, sub_slice)` for a contiguous block of whole
/// units. Inline when sequential or too small to split.
///
/// # Panics
///
/// Panics if `unit == 0` or `data.len()` is not a multiple of `unit`.
pub fn for_each_unit_chunk_mut<T, F>(data: &mut [T], unit: usize, min_units_per_worker: usize, f: F)
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
    let workers = effective_workers(n_units, min_units_per_worker, 0);
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
/// and returns the results **in index order** — the combine order can never
/// depend on thread scheduling. This is the primitive behind the chunked
/// Monte-Carlo reduction.
pub fn map_indexed<R, F>(n: usize, min_per_worker: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with(n, min_per_worker, 0, f)
}

/// [`map_indexed`] with an explicit worker-count override (`0` = the global
/// [`threads`] setting). Results are identical for every override value.
pub fn map_indexed_with<R, F>(n: usize, min_per_worker: usize, workers_override: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    let workers = effective_workers(n, min_per_worker, workers_override);
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
        // which keeps these grain assertions machine-independent.
        assert_eq!(effective_workers(1000, 100, 8), 8);
        assert_eq!(effective_workers(1000, 400, 8), 2);
        assert_eq!(effective_workers(10, 64, 8), 1);
        assert_eq!(effective_workers(1000, 100, 3), 3);
    }

    #[test]
    fn global_setting_is_capped_at_available_parallelism() {
        let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let cores = default_threads();
        set_threads(cores + 13);
        assert_eq!(effective_workers(usize::MAX, 1, 0), cores);
        set_threads(0);
    }

    #[test]
    fn unit_chunks_cover_every_row_once() {
        with_threads(4, || {
            let mut data = vec![0u32; 12 * 3];
            for_each_unit_chunk_mut(&mut data, 3, 1, |first_row, chunk| {
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
            let out = with_threads(t, || map_indexed(100, 1, |i| i * i));
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
            for_each_subrange(50, 1, |r| {
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
        let seq = with_threads(1, || map_indexed(37, 1, |i| (i as f64).sin()));
        let par = with_threads(4, || map_indexed(37, 1, |i| (i as f64).sin()));
        assert_eq!(seq, par, "map results must be bit-identical");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                for_each_subrange(16, 1, |r| {
                    if r.contains(&9) {
                        panic!("worker boom");
                    }
                });
            })
        });
        assert!(result.is_err(), "panic must reach the caller");
    }

    #[test]
    fn zero_length_inputs_are_noops() {
        with_threads(4, || {
            for_each_subrange(0, 1, |_| panic!("must not run"));
            let mut empty: Vec<f64> = Vec::new();
            for_each_unit_chunk_mut(&mut empty, 3, 1, |_, _| panic!("must not run"));
            assert!(map_indexed(0, 1, |_| 0u8).is_empty());
        });
    }
}
