//! Per-layer metrics from one traced pass: span self-time shares and the
//! crates' own work counters.

use crate::report::{Report, PER_LAYER};
use pathrep_obs::selftime::{profile, ProfileEntry};
use pathrep_obs::Snapshot;

/// The crate (layer) a span belongs to. The benchmark names its own spans
/// `<layer>.<call>`, as the serving crate does; the other crates' span
/// names are mapped here.
pub fn layer_of(leaf: &str) -> &str {
    if let Some((layer, _)) = leaf.split_once('.') {
        return layer;
    }
    match leaf {
        "generate_circuit" | "decompose_segments" => "circuit",
        "delay_model_build" => "variation",
        "circuit_yield" | "circuit_yield_mc" | "extract_paths" | "sparse_model_build" => "ssta",
        "svd" | "qr_factor" | "cholesky" | "sketched_svd" | "spmv" | "spmm" => "linalg",
        "admm_linearized" | "admm_ellipsoid" => "convopt",
        "exact_select"
        | "subset_select"
        | "hybrid_select"
        | "hybrid_sweep"
        | "approx_select"
        | "evaluate_candidate"
        | "sketch_exact_select"
        | "sketch_approx_select"
        | "clustered_select" => "core",
        "mc_evaluate" | "prepare" | "prepare_circuit" | "prepare_sparse" | "build_delay_model" => {
            "eval"
        }
        _ => "other",
    }
}

/// Sets every per-layer metric to 0, so a layer the workload never enters
/// reads 0; the traced pass then overwrites what it measured.
pub fn zero_all(report: &mut Report) {
    for &(name, _) in PER_LAYER {
        report.set(name, 0.0);
    }
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .filter(|c| c.name == name)
        .fold(0.0, |acc, c| acc + c.value as f64)
}

fn self_ns(prof: &[ProfileEntry], pred: impl Fn(&str) -> bool) -> f64 {
    prof.iter()
        .filter(|e| pred(e.leaf()))
        .fold(0.0, |acc, e| acc + e.self_ns as f64)
}

fn total_ns(prof: &[ProfileEntry], leaf: &str) -> f64 {
    prof.iter()
        .filter(|e| e.leaf() == leaf)
        .fold(0.0, |acc, e| acc + e.total_ns as f64)
}

/// Sets the snapshot-derived per-layer metrics: each layer's share of all
/// span self-time, the shares of the kernels most likely to move, the
/// exact work counters, and rates derived from them.
pub fn from_snapshot(report: &mut Report, snap: &Snapshot) {
    let prof = profile(snap);
    let all = self_ns(&prof, |_| true).max(1.0);
    let pct = |ns: f64| 100.0 * ns / all;
    for (metric, layer) in [
        ("circuit.time_pct", "circuit"),
        ("variation.time_pct", "variation"),
        ("ssta.time_pct", "ssta"),
        ("linalg.time_pct", "linalg"),
        ("convopt.time_pct", "convopt"),
        ("core.time_pct", "core"),
        ("eval.time_pct", "eval"),
        ("serve.time_pct", "serve"),
    ] {
        report.set(metric, pct(self_ns(&prof, |l| layer_of(l) == layer)));
    }
    let leaves = |names: &'static [&'static str]| move |l: &str| names.contains(&l);
    report.set(
        "ssta.yield_mc_pct",
        pct(self_ns(
            &prof,
            leaves(&["circuit_yield", "circuit_yield_mc"]),
        )),
    );
    report.set(
        "ssta.extract_pct",
        pct(self_ns(&prof, leaves(&["extract_paths"]))),
    );
    report.set("linalg.svd_pct", pct(self_ns(&prof, leaves(&["svd"]))));
    report.set("linalg.qr_pct", pct(self_ns(&prof, leaves(&["qr_factor"]))));
    report.set(
        "linalg.sketch_pct",
        pct(self_ns(&prof, leaves(&["sketched_svd", "spmm", "spmv"]))),
    );
    report.set(
        "eval.mc_pct",
        pct(self_ns(&prof, leaves(&["mc_evaluate", "eval.evaluate"]))),
    );

    report.set("ssta.yield_samples", counter(snap, "ssta.yield.samples"));
    report.set(
        "ssta.extract_expansions",
        counter(snap, "ssta.extract.expansions"),
    );
    for (metric, kernel) in [
        ("linalg.flops.svd", "svd"),
        ("linalg.flops.qr_factor", "qr_factor"),
        ("linalg.flops.matmul", "matmul"),
        ("linalg.flops.matvec", "matvec"),
        ("linalg.flops.spmm", "spmm"),
    ] {
        report.set(metric, counter(snap, &format!("work.{kernel}.flops")));
    }
    let svd_ns = self_ns(&prof, leaves(&["svd"]));
    if svd_ns > 0.0 {
        report.set(
            "linalg.svd_gflops",
            counter(snap, "work.svd.flops") / svd_ns,
        );
    }
    report.set(
        "convopt.admm_iters",
        counter(snap, "convopt.admm.iterations"),
    );
    report.set(
        "core.approx_evals",
        counter(snap, "core.approx.evaluations") + counter(snap, "core.sketch.evaluations"),
    );
    report.set("core.subset_calls", counter(snap, "core.subset.calls"));
    let samples = counter(snap, "eval.mc.samples");
    report.set("eval.mc_samples", samples);
    let mc_ns = total_ns(&prof, "eval.evaluate");
    if mc_ns > 0.0 {
        report.set("eval.mc_samples_per_s", samples / (mc_ns * 1e-9));
    }
    report.set("net.shard_requests", counter(snap, "serve.shard.requests"));
    report.set("net.shed", counter(snap, "serve.shard.shed"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_instrumented_span_has_a_layer() {
        for leaf in [
            "generate_circuit",
            "decompose_segments",
            "delay_model_build",
            "circuit_yield_mc",
            "extract_paths",
            "sparse_model_build",
            "svd",
            "qr_factor",
            "sketched_svd",
            "spmm",
            "admm_linearized",
            "exact_select",
            "evaluate_candidate",
            "mc_evaluate",
            "prepare",
        ] {
            assert_ne!(layer_of(leaf), "other", "{leaf}");
        }
        assert_eq!(layer_of("serve.request"), "serve");
        assert_eq!(layer_of("core.factors"), "core");
    }
}
