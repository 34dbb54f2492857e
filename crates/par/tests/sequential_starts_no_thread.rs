//! `PATHREP_THREADS=1` (here [`pathrep_par::set_threads`]`(1)`) must run
//! every call inline: no pool worker may ever start. The pool is
//! process-global and starts lazily, so this check needs a process of its
//! own — which an integration test binary with a single test is. Threads
//! are counted from `/proc/self/task` (Linux); elsewhere the test only
//! checks results.

use pathrep_par::MIN_FLOPS_PER_WORKER as SPLIT;

/// Live threads of this process, or `None` without `/proc`.
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

fn fan_out() -> Vec<usize> {
    let mut rows = vec![0usize; 64];
    pathrep_par::for_each_unit_chunk_mut(&mut rows, 1, SPLIT, |first, chunk| {
        for (k, x) in chunk.iter_mut().enumerate() {
            *x = first + k;
        }
    });
    pathrep_par::for_each_subrange(64, SPLIT, |_| {});
    let squares = pathrep_par::map_indexed(64, SPLIT, |i| i * i);
    rows.iter().zip(&squares).map(|(a, b)| a + b).collect()
}

#[test]
fn one_worker_starts_no_thread_and_the_pool_starts_only_when_used() {
    let expected: Vec<usize> = (0..64).map(|i| i + i * i).collect();
    pathrep_par::set_threads(1);
    let before = thread_count();
    for _ in 0..50 {
        assert_eq!(fan_out(), expected);
    }
    assert_eq!(thread_count(), before, "set_threads(1) started a thread");

    // Control: the same calls at two workers do start the pool (when the
    // host has a second core), so the count above could have moved.
    pathrep_par::set_threads(2);
    assert_eq!(fan_out(), expected);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let (Some(before), Some(after)) = (before, thread_count()) {
        assert_eq!(after, before + cores - 1, "the pool starts cores − 1 workers");
    }
    pathrep_par::set_threads(0);
}
