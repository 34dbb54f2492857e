//! Deterministic kernel work accounting: flops, bytes moved and elements
//! touched, recorded by the numeric kernels (matmul/matvec, pivoted QR,
//! SVD, Cholesky, Monte-Carlo evaluation) and materialized as
//! `work.<kernel>.{flops,bytes,elements}` counters in every
//! [`crate::Snapshot`] — and therefore as `pathrep_work_*` Prometheus
//! families and `BENCH_*.json` counter columns.
//!
//! ## Determinism contract
//!
//! Work is *model-based*: each kernel records the closed-form operation
//! count of the mathematical operation it performs (e.g. `2·m·n·k` flops
//! for an `m×k · k×n` matmul), not a hardware event count. A kernel that
//! skips structural zeros still records the full model count. Because the
//! counts are pure functions of the operand shapes (and, for iterative
//! kernels, of the bit-deterministic iteration counts), the totals are
//! **bit-identical at any `PATHREP_THREADS` setting** — `u64` addition is
//! commutative and associative, so it does not matter which worker thread
//! recorded which share.
//!
//! ## Mechanics
//!
//! [`record`] appends into a thread-local accumulator (one relaxed atomic
//! load when telemetry is off — the disabled-means-free rule) that is
//! flushed into the global registry under a single lock acquisition:
//!
//! * when a [`crate::SpanGuard`] closes on the recording thread,
//! * when a pool worker drops its [`crate::ParentSpanGuard`] at the end of
//!   each task (before the `pathrep-par` call that submitted it returns,
//!   so no tally is left pending on a parked worker), and
//! * at the start of [`crate::Registry::snapshot`] (covering span-less
//!   call paths on the snapshotting thread).
//!
//! Nested kernels overlap — an SVD records its own work *and* drives the
//! matmul model through any products it performs — so per-kernel totals
//! attribute work to the kernel that did it and are **not additive**
//! across kernels.

use std::cell::RefCell;

/// Accumulated work of one kernel: model-based flop count, bytes moved
/// (8 bytes per `f64` element the kernel logically reads or writes) and
/// elements touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkTally {
    /// Floating-point operations (closed-form model count).
    pub flops: u64,
    /// Bytes logically moved (`8 ×` the touched `f64` elements, counting
    /// a read-modify-write once per pass).
    pub bytes: u64,
    /// Matrix/vector elements the kernel logically touched.
    pub elements: u64,
}

impl WorkTally {
    /// Element-wise sum.
    pub fn add(&mut self, other: WorkTally) {
        self.flops += other.flops;
        self.bytes += other.bytes;
        self.elements += other.elements;
    }

    /// Arithmetic intensity `flops / bytes` (0 when no bytes moved).
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.bytes as f64
        }
    }
}

thread_local! {
    /// Per-thread pending tallies, merged by kernel name. The kernel set
    /// is tiny (≈8 names), so a linear scan beats a map.
    static PENDING: RefCell<Vec<(&'static str, WorkTally)>> =
        const { RefCell::new(Vec::new()) };
}

/// Records `flops`/`bytes`/`elements` of work done by `kernel` into this
/// thread's pending accumulator. The tally reaches the registry at the
/// next flush point (span end on this thread, pool-worker guard drop, or
/// snapshot). Active when telemetry **or** the ledger is collecting —
/// ledger-only runs (`PATHREP_OBS_LEDGER` without `PATHREP_OBS`) still
/// stamp work facts on their records; fully disabled runs pay one or two
/// relaxed atomic loads.
#[inline]
pub fn record(kernel: &'static str, flops: u64, bytes: u64, elements: u64) {
    if !crate::enabled() && !crate::ledger::collecting() {
        return;
    }
    record_slow(
        kernel,
        WorkTally {
            flops,
            bytes,
            elements,
        },
    );
}

#[cold]
fn record_slow(kernel: &'static str, tally: WorkTally) {
    PENDING.with(|p| {
        let mut p = p.borrow_mut();
        match p.iter_mut().find(|(k, _)| *k == kernel) {
            Some((_, t)) => t.add(tally),
            None => p.push((kernel, tally)),
        }
    });
}

/// Flushes this thread's pending tallies into the global registry; a
/// no-op costing one thread-local read when nothing is pending (the
/// common case on every disabled span drop).
#[inline]
pub fn flush() {
    PENDING.with(|p| {
        if p.borrow().is_empty() {
            return;
        }
        let drained: Vec<(&'static str, WorkTally)> = std::mem::take(&mut *p.borrow_mut());
        crate::registry().work_merge_slow(&drained);
    });
}

/// Clears this thread's pending tallies without flushing them (used by
/// [`crate::reset`] so a stale tally cannot leak into the next
/// measurement window).
pub(crate) fn reset_thread() {
    PENDING.with(|p| p.borrow_mut().clear());
}

/// This thread's *pending* (not yet flushed) tally for `kernel`.
///
/// Kernels read it before and after their inner phases and stamp the
/// difference — one invocation's work — into a ledger record. The
/// difference is only meaningful when no span closes on this thread in
/// between: a span end flushes the accumulator into the registry and
/// zeroes it. The numeric kernels satisfy this (their own span stays
/// open across the whole invocation and they open no inner spans).
pub fn thread_tally(kernel: &str) -> WorkTally {
    PENDING.with(|p| {
        p.borrow()
            .iter()
            .find(|(k, _)| *k == kernel)
            .map(|&(_, t)| t)
            .unwrap_or_default()
    })
}

impl WorkTally {
    /// Saturating element-wise difference `self − earlier` (the work done
    /// between two [`thread_tally`] reads).
    pub fn since(&self, earlier: WorkTally) -> WorkTally {
        WorkTally {
            flops: self.flops.saturating_sub(earlier.flops),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            elements: self.elements.saturating_sub(earlier.elements),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_is_flops_per_byte() {
        let t = WorkTally {
            flops: 16,
            bytes: 8,
            elements: 1,
        };
        assert_eq!(t.intensity(), 2.0);
        assert_eq!(WorkTally::default().intensity(), 0.0);
    }

    #[test]
    fn tallies_merge_by_kernel() {
        let mut a = WorkTally {
            flops: 1,
            bytes: 2,
            elements: 3,
        };
        a.add(WorkTally {
            flops: 10,
            bytes: 20,
            elements: 30,
        });
        assert_eq!(
            a,
            WorkTally {
                flops: 11,
                bytes: 22,
                elements: 33,
            }
        );
    }
}
