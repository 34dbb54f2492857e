//! Log-bucketed HDR histograms: bounded relative error at any scale,
//! no preconfigured edges — the registry's one histogram kind.
//!
//! Every [`crate::histogram_record`] lands here, whether the quantity is
//! a solver residual spanning `1e-12..1e3` or a request latency whose
//! interesting mass (p999, p9999) sits wherever preconfigured edges
//! would be coarsest. An [`HdrHistogram`] buckets by the value's binary
//! exponent with [`SUB_BUCKETS`] sub-buckets per octave, giving every
//! bucket a relative width of at most `1/32 ≈ 3.1 %` (~2 % quantile
//! error) regardless of magnitude. Bucket indexing is pure integer math
//! on the `f64` bit pattern (no `log2` rounding hazards), so recording is
//! deterministic and cheap.
//!
//! Storage is a sparse `BTreeMap<u32, u64>` over occupied buckets: a
//! latency histogram spanning `1 µs..10 s` touches a few hundred buckets,
//! not the tens of thousands a dense HDR layout would allocate.
//!
//! [`HdrHistogram::snapshot`] materializes the occupied buckets (with
//! their *exact* lower and upper bounds) into a plain
//! [`HistogramSnapshot`] of edges and counts, which quantile estimation,
//! the text report, JSON and the Prometheus exposition all consume.

use crate::snapshot::HistogramSnapshot;
use std::collections::BTreeMap;

/// Power-of-two count of sub-buckets per octave (linear within the
/// octave, as in classic HDR histograms). 32 bounds every bucket's
/// relative width by `1/32 ≈ 3.1 %`, i.e. ~1.6 % worst-case quantile
/// error at the bucket midpoint — the "~2 % relative error" regime.
pub const SUB_BUCKETS: u32 = 32;

const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// A log₂-sub-bucketed histogram with ~2 % relative-error buckets across
/// the entire positive `f64` range. Values `≤ 0` (and NaN) fall into a
/// dedicated non-positive bucket so a stray zero cannot distort the
/// positive-range quantiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HdrHistogram {
    /// Occupied bucket index → count. The index is
    /// `(biased_exponent << SUB_BITS) | top_mantissa_bits`, monotone in
    /// the recorded value.
    counts: BTreeMap<u32, u64>,
    /// Values `≤ 0`, non-finite, or subnormal-below-resolution.
    nonpositive: u64,
    sum: f64,
    min: f64,
    max: f64,
    total: u64,
}

/// Bucket index for a positive finite `v`: biased exponent concatenated
/// with the mantissa's top [`SUB_BITS`] bits. Monotone in `v` because the
/// IEEE-754 ordering of positive floats is the ordering of their bit
/// patterns.
#[inline]
fn bucket_index(v: f64) -> u32 {
    (v.to_bits() >> (52 - SUB_BITS)) as u32
}

/// Exclusive upper bound of bucket `idx` (the smallest value of the next
/// bucket); every value in the bucket is `< upper_edge` and
/// `≥ lower_edge`. Computed by reversing the index → bit-pattern map, so
/// shared edges of adjacent buckets are bit-identical.
fn upper_edge(idx: u32) -> f64 {
    f64::from_bits(((idx as u64) + 1) << (52 - SUB_BITS))
}

/// Inclusive lower bound of bucket `idx`.
fn lower_edge(idx: u32) -> f64 {
    f64::from_bits((idx as u64) << (52 - SUB_BITS))
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        HdrHistogram {
            counts: BTreeMap::new(),
            nonpositive: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            total: 0,
        }
    }

    /// Records one value. Positive finite values land in their ~2 %
    /// relative-width bucket; everything else (zero, negatives, NaN,
    /// infinities) lands in the non-positive bucket and is excluded from
    /// `sum`-based statistics only when non-finite.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        if value.is_finite() && value > 0.0 && value >= f64::MIN_POSITIVE {
            *self.counts.entry(bucket_index(value)).or_insert(0) += 1;
        } else {
            self.nonpositive += 1;
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of finite recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite recorded value (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest finite recorded value (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Folds another histogram's counts into this one (used to merge
    /// per-worker latency histograms into one report).
    pub fn merge(&mut self, other: &HdrHistogram) {
        for (&idx, &c) in &other.counts {
            *self.counts.entry(idx).or_insert(0) += c;
        }
        self.nonpositive += other.nonpositive;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.total += other.total;
    }

    /// Materializes the occupied buckets as a plain [`HistogramSnapshot`]
    /// named `name`. Each occupied bucket contributes its exact bounds as
    /// edges (with zero-count gap buckets between non-adjacent occupied
    /// buckets), so [`HistogramSnapshot::quantile`] interpolates within
    /// true ~2 %-wide bounds instead of across unoccupied ranges.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut edges: Vec<f64> = Vec::with_capacity(2 * self.counts.len() + 2);
        let mut counts: Vec<u64> = Vec::with_capacity(2 * self.counts.len() + 3);
        if self.nonpositive > 0 {
            // Bucket (-inf, 0] carries the non-positive values.
            edges.push(0.0);
            counts.push(self.nonpositive);
        }
        for (&idx, &c) in &self.counts {
            let lo = lower_edge(idx);
            if edges.last().copied() != Some(lo) {
                edges.push(lo);
                // Gap bucket up to this bucket's lower bound: empty.
                counts.push(0);
            }
            edges.push(upper_edge(idx));
            counts.push(c);
        }
        // Overflow bucket above the last edge: always empty here.
        counts.push(0);
        let (min, max) = if self.total > 0 && self.min.is_finite() {
            (self.min, self.max)
        } else {
            (0.0, 0.0)
        };
        HistogramSnapshot {
            name: name.to_owned(),
            edges,
            counts,
            count: self.total,
            sum: self.sum,
            min,
            max,
        }
    }

    /// Estimates the `q`-quantile through [`HdrHistogram::snapshot`]'s
    /// bucket bounds — within ~2 % of the true order statistic for any
    /// positive-valued distribution.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot("q").quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_edges_bracket() {
        let values = [1e-9, 3.7e-4, 0.5, 1.0, 1.5, 2.0, 1234.5, 9.9e12];
        let mut prev = 0u32;
        for &v in &values {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index must be monotone in the value");
            prev = idx;
            assert!(lower_edge(idx) <= v && v < upper_edge(idx), "v = {v}");
            // Sub-buckets split the octave linearly: the relative width is
            // (1/32)/(1 + s/32), worst at s = 0 where it is exactly 1/32.
            let width = upper_edge(idx) / lower_edge(idx) - 1.0;
            assert!(width <= 1.0 / SUB_BUCKETS as f64 + 1e-12);
        }
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        // A wide log-uniform-ish sweep: exact order statistics are known.
        let mut h = HdrHistogram::new();
        let mut vals: Vec<f64> = (0..10_000)
            .map(|i| 1e3 * 1.002_f64.powi(i))
            .collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_by(f64::total_cmp);
        for &q in &[0.01, 0.5, 0.9, 0.99, 0.999, 0.9999] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let est = h.quantile(q);
            let rel = (est - exact).abs() / exact;
            assert!(rel < 0.025, "q={q}: est {est} vs exact {exact} ({rel:.4})");
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn outliers_do_not_skew_the_body() {
        let mut h = HdrHistogram::new();
        for _ in 0..999 {
            h.record(1.0e6);
        }
        h.record(1.0e12); // one 6-decade outlier
        let p50 = h.quantile(0.50);
        assert!((p50 - 1.0e6).abs() / 1.0e6 < 0.025, "p50 = {p50}");
        let p999 = h.quantile(0.999);
        assert!(p999 < 1.1e6, "p999 must stay in the body, got {p999}");
        assert_eq!(h.quantile(1.0), 1.0e12);
    }

    #[test]
    fn nonpositive_and_merge_are_handled() {
        let mut a = HdrHistogram::new();
        a.record(0.0);
        a.record(-3.0);
        a.record(8.0);
        let mut b = HdrHistogram::new();
        b.record(8.0);
        b.record(16.0);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        let snap = a.snapshot("m");
        assert_eq!(snap.counts.iter().sum::<u64>(), 5);
        assert_eq!(snap.count, 5);
        assert_eq!(a.max(), 16.0);
        assert_eq!(a.min(), -3.0);
        // Non-positives sit in the (-inf, 0] bucket.
        assert_eq!(snap.edges[0], 0.0);
        assert_eq!(snap.counts[0], 2);
    }

    #[test]
    fn empty_histogram_snapshots_cleanly() {
        let h = HdrHistogram::new();
        let snap = h.snapshot("empty");
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.min, 0.0);
        assert_eq!(snap.max, 0.0);
    }
}
