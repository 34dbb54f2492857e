//! Inclusive/exclusive (self-time) span profiles.
//!
//! The span tree in a [`Snapshot`] carries *inclusive* totals: a parent's
//! `total_ns` contains every child's. Attribution needs the *exclusive*
//! view — how much time a span spent in its own code — so [`profile`]
//! flattens the tree into pre-order [`ProfileEntry`] rows where
//! `self_ns = total_ns − Σ children.total_ns` (saturating: clock jitter
//! between a parent's and its children's `Instant` reads can make the
//! children sum marginally past the parent).
//!
//! `perf_gate` serializes the profile of each workload into
//! `BENCH_<k>.json`; `pathrep-doctor --perf-diff` ranks spans by
//! Δself-time between two reports to say *which* kernel a wall-time
//! regression lives in.

use crate::snapshot::{Snapshot, SpanNode};
use serde::{Deserialize, Serialize};

/// One span path's aggregated timing, in flattened (pre-order) form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Full slash-separated span path.
    pub path: String,
    /// Completed executions.
    pub count: u64,
    /// Inclusive wall-clock nanoseconds.
    pub total_ns: u64,
    /// Exclusive (self) nanoseconds: inclusive minus children.
    pub self_ns: u64,
}

impl ProfileEntry {
    /// The leaf span name (last path component).
    pub fn leaf(&self) -> &str {
        leaf_of(&self.path)
    }
}

/// The last slash-separated component of a span path.
pub fn leaf_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Flattens `snap`'s span forest into pre-order self-time rows.
pub fn profile(snap: &Snapshot) -> Vec<ProfileEntry> {
    let mut out = Vec::new();
    for root in &snap.spans {
        walk(root, &mut out);
    }
    out
}

fn walk(node: &SpanNode, out: &mut Vec<ProfileEntry>) {
    let children_ns: u128 = node.children.iter().map(|c| c.total_ns).sum();
    let total_ns = node.total_ns.min(u64::MAX as u128) as u64;
    let self_ns = node.total_ns.saturating_sub(children_ns).min(u64::MAX as u128) as u64;
    out.push(ProfileEntry {
        path: node.path.clone(),
        count: node.count,
        total_ns,
        self_ns,
    });
    for child in &node.children {
        walk(child, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(path: &str, total_ns: u128, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: leaf_of(path).to_owned(),
            path: path.to_owned(),
            count: 1,
            total_ns,
            min_ns: 0,
            max_ns: 0,
            children,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let snap = Snapshot {
            spans: vec![node(
                "outer",
                10_000,
                vec![node("outer/a", 4_000, vec![]), node("outer/b", 1_000, vec![])],
            )],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
            events: vec![],
            events_dropped: 0,
        };
        let prof = profile(&snap);
        assert_eq!(prof.len(), 3);
        assert_eq!(prof[0].path, "outer");
        assert_eq!(prof[0].total_ns, 10_000);
        assert_eq!(prof[0].self_ns, 5_000);
        assert_eq!(prof[1].self_ns, 4_000, "leaves keep their full time");
        assert_eq!(prof[2].leaf(), "b");
    }

    #[test]
    fn oversubtracted_parent_saturates_to_zero() {
        // Children can sum marginally past the parent (independent clock
        // reads); self time must clamp, not wrap.
        let snap = Snapshot {
            spans: vec![node("p", 1_000, vec![node("p/c", 1_200, vec![])])],
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
            events: vec![],
            events_dropped: 0,
        };
        assert_eq!(profile(&snap)[0].self_ns, 0);
    }
}
