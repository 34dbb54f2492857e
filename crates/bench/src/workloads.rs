//! The calibrated workload matrix `perf_gate` measures, and the
//! measurement harness itself.
//!
//! Two synthetic instances (small ≈ 300 gates, medium = the s1423-class
//! circuit) run through every selection algorithm of the paper — exact
//! (rank-revealing QR), approximate (Algorithm 1) and hybrid
//! path/segment (Algorithm 3, ADMM) — plus the Monte-Carlo evaluation and
//! the front-end pipeline itself. Every workload uses fixed RNG seeds, so
//! the operation counters collected from `pathrep-obs` are exactly
//! reproducible: a counter diff between two `BENCH_*.json` files is an
//! algorithmic change, never machine noise.

use crate::gate::{percentile_ms, WorkloadResult};
use pathrep_core::approx::{approx_select, ApproxConfig};
use pathrep_core::exact::exact_select;
use pathrep_core::hybrid::{hybrid_select, HybridConfig, HybridInputs};
use pathrep_core::predictor::DEFAULT_KAPPA;
use pathrep_core::sketch::{sketch_approx_select, sketch_exact_select, SketchApproxConfig};
use pathrep_eval::metrics::{evaluate, McConfig, MeasurementPlan};
use pathrep_eval::pipeline::{
    prepare, prepare_sparse, PipelineConfig, PreparedBenchmark, PreparedSparseBenchmark,
    SparsePipelineConfig,
};
use pathrep_eval::suite::{BenchmarkSpec, Suite};
use pathrep_linalg::sketch::SketchConfig;
use pathrep_serve::{Client, ModelArtifact, SelectionMeta, Server, ServerConfig, WireProtocol};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed shared by every workload (distinct from the unit-test seeds so the
/// gate exercises fresh instances).
pub const GATE_SEED: u64 = 11;

/// Monte-Carlo sample count for the evaluation workloads — small enough to
/// keep a 5-repeat run in seconds, large enough that the timed region is
/// dominated by real work.
pub const GATE_MC_SAMPLES: usize = 2_000;

/// One named, self-contained timed unit. `Send + Sync` so a future
/// multi-process or multi-thread harness can shard the matrix; today it
/// guarantees the shared [`PreparedBenchmark`]s stay thread-safe.
pub struct Workload {
    /// Stable name — the `BENCH_*.json` diff joins on it.
    pub name: &'static str,
    run: Box<dyn Fn() + Send + Sync>,
}

impl Workload {
    /// Runs the workload once.
    pub fn run(&self) {
        (self.run)()
    }
}

/// The small instance: a 300-gate synthetic circuit.
fn small_spec() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "bench",
        n_gates: 300,
        n_inputs: 24,
        n_outputs: 18,
        model_levels: 3,
        seed: GATE_SEED,
        depth: Some(10),
    }
}

fn medium_spec() -> BenchmarkSpec {
    Suite::by_name("s1423").expect("s1423 is in the suite")
}

fn small_config() -> PipelineConfig {
    PipelineConfig {
        max_paths: 300,
        ..PipelineConfig::default()
    }
}

fn medium_config() -> PipelineConfig {
    PipelineConfig {
        t_cons_factor: 0.98,
        max_paths: 400,
        ..PipelineConfig::default()
    }
}

/// Table-2-style regime for the hybrid workloads: tight constraint, scaled
/// random variation (where segment measurement pays off).
fn hybrid_config(base: &PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        t_cons_factor: 0.98,
        random_scale: 3.0,
        ..base.clone()
    }
}

fn prepare_or_die(spec: &BenchmarkSpec, config: &PipelineConfig) -> Arc<PreparedBenchmark> {
    Arc::new(prepare(spec, config).expect("gate workloads are deterministic and must prepare"))
}

fn exact_workload(name: &'static str, pb: Arc<PreparedBenchmark>) -> Workload {
    Workload {
        name,
        run: Box::new(move || {
            let dm = &pb.delay_model;
            exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA).expect("exact selection succeeds");
        }),
    }
}

fn approx_workload(name: &'static str, pb: Arc<PreparedBenchmark>) -> Workload {
    Workload {
        name,
        run: Box::new(move || {
            let dm = &pb.delay_model;
            let config = ApproxConfig::new(0.05, pb.t_cons);
            approx_select(dm.a(), dm.mu_paths(), &config).expect("approx selection succeeds");
        }),
    }
}

fn hybrid_workload(name: &'static str, pb: Arc<PreparedBenchmark>) -> Workload {
    Workload {
        name,
        run: Box::new(move || {
            let dm = &pb.delay_model;
            let inputs = HybridInputs {
                g: dm.g(),
                sigma: dm.sigma(),
                a: dm.a(),
                mu_segments: dm.mu_segments(),
                mu_paths: dm.mu_paths(),
            };
            let config = HybridConfig::new(0.08, 0.06, pb.t_cons);
            hybrid_select(&inputs, &config).expect("hybrid selection succeeds");
        }),
    }
}

fn mc_config() -> McConfig {
    McConfig {
        n_samples: GATE_MC_SAMPLES,
        seed: 99,
        // Use the global `PATHREP_THREADS` pool so perf_gate's thread axis
        // also covers the MC fan-out; the chunked sample split makes the
        // metrics identical at every worker count.
        threads: 0,
    }
}

fn mc_workload(name: &'static str, pb: Arc<PreparedBenchmark>) -> Workload {
    Workload {
        name,
        run: Box::new(move || {
            let dm = &pb.delay_model;
            let sel = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(0.05, pb.t_cons))
                .expect("approx selection succeeds");
            let plan = MeasurementPlan::Paths {
                selected: &sel.selected,
                predictor: &sel.predictor,
            };
            evaluate(dm, &plan, &sel.remaining, &mc_config()).expect("MC evaluation succeeds");
        }),
    }
}

/// A serve workload's model artifact in the temp dir, deleted when the
/// workload (whose closure owns it) drops.
struct TempArtifact(String);

impl TempArtifact {
    fn save(name: &str, artifact: &ModelArtifact) -> Self {
        let path = std::env::temp_dir()
            .join(format!("pathrep_gate_{}_{name}.artifact", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        artifact.save(&path).expect("gate artifact saves");
        TempArtifact(path)
    }
}

impl Drop for TempArtifact {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Builds a deterministic serving artifact: an MMSE predictor with
/// `measurements → targets` smooth synthetic coefficients (no RNG, so the
/// serve workloads pin their operation counters exactly).
fn serve_artifact(measurements: usize, targets: usize) -> ModelArtifact {
    let coef = pathrep_linalg::matrix::Matrix::from_fn(targets, measurements, |i, j| {
        (((i * 31 + j * 7) as f64) * 0.23).sin() * 0.4
    });
    let meas_mu: Vec<f64> = (0..measurements)
        .map(|j| 180.0 + (j as f64) * 1.5)
        .collect();
    let target_mu: Vec<f64> = (0..targets).map(|i| 170.0 + (i as f64) * 0.9).collect();
    let stds: Vec<f64> = (0..targets)
        .map(|i| 2.0 + ((i as f64) * 0.11).sin().abs())
        .collect();
    let predictor =
        pathrep_core::predictor::MeasurementPredictor::from_parts(coef, meas_mu, target_mu, stds, DEFAULT_KAPPA)
            .expect("synthetic serve predictor is valid");
    ModelArtifact {
        label: format!("gate_{measurements}x{targets}"),
        selection: SelectionMeta {
            epsilon: 0.05,
            epsilon_r: 0.03,
            eta: 0.99,
            rank: measurements,
            effective_rank: measurements,
            t_cons: 250.0,
            selected: (0..measurements).collect(),
            remaining: (0..targets).collect(),
        },
        guard_band_phi: 7.5,
        predictor,
    }
}

/// A full daemon round per run: bind an ephemeral port, load the artifact
/// over the wire, stream a fixed sequence of `predict` / `predict_batch`
/// requests from one sequential client, then drain via `shutdown`. The
/// request sequence is fixed, so the `serve.*` counters are exactly
/// reproducible at any `PATHREP_THREADS` (nondeterministic quantities —
/// batch composition, queue depth, latency — live in histograms/gauges,
/// which the gate does not compare).
fn serve_workload(
    name: &'static str,
    measurements: usize,
    targets: usize,
    requests: usize,
) -> Workload {
    serve_workload_proto(name, measurements, targets, requests, WireProtocol::Json)
}

fn serve_workload_proto(
    name: &'static str,
    measurements: usize,
    targets: usize,
    requests: usize,
    proto: WireProtocol,
) -> Workload {
    let artifact = serve_artifact(measurements, targets);
    let file = TempArtifact::save(name, &artifact);
    let meas_mu = artifact.predictor.meas_mu().to_vec();
    Workload {
        name,
        run: Box::new(move || {
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                ..ServerConfig::default()
            };
            let handle = Server::bind(config)
                .expect("gate server binds an ephemeral port")
                .spawn()
                .expect("gate server spawns");
            let addr = handle.addr();
            let mut client = Client::connect(addr).expect("gate client connects");
            client.set_protocol(proto);
            let model = client.load_model(&file.0).expect("daemon loads artifact").model;
            let measured = |k: usize| -> Vec<f64> {
                meas_mu
                    .iter()
                    .enumerate()
                    .map(|(j, &mu)| mu + (((k * 131 + j * 17) as f64) * 0.37).sin() * 3.0)
                    .collect()
            };
            let mut rows_served = 0usize;
            let t0 = Instant::now();
            for k in 0..requests {
                if k % 8 == 0 {
                    let rows: Vec<Vec<f64>> = (0..8).map(|r| measured(k * 8 + r)).collect();
                    client.predict_batch(&model, &rows).expect("gate batch predicts");
                    rows_served += 8;
                } else {
                    client.predict(&model, &measured(k)).expect("gate predicts");
                    rows_served += 1;
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            // Sustained rows/sec over the request loop; a gauge, because
            // wall-clock throughput is machine- and load-dependent (the
            // gate never diffs gauges).
            pathrep_obs::gauge_set("bench.rows_per_sec", rows_served as f64 / elapsed.max(1e-9));
            client.shutdown().expect("gate shutdown");
            let stats = handle.join();
            assert_eq!(stats.errors, 0, "gate serving must be error-free");
        }),
    }
}

/// Concurrency axis of the serving plane: `clients` worker threads each
/// stream `requests` batched predictions at full tilt against one daemon,
/// with a chosen reactor shard count and wire protocol.
/// The request sequence per worker is fixed, so the deterministic `serve.*`
/// counters are exactly reproducible; throughput lands in the
/// `bench.rows_per_sec` gauge.
fn serve_concurrent_workload(
    name: &'static str,
    shards: usize,
    proto: WireProtocol,
    clients: usize,
    requests: usize,
) -> Workload {
    let artifact = serve_artifact(16, 64);
    let file = TempArtifact::save(name, &artifact);
    let meas_mu = Arc::new(artifact.predictor.meas_mu().to_vec());
    Workload {
        name,
        run: Box::new(move || {
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                shards,
                ..ServerConfig::default()
            };
            let handle = Server::bind(config)
                .expect("gate server binds an ephemeral port")
                .spawn()
                .expect("gate server spawns");
            let addr = handle.addr();
            let mut loader = Client::connect(addr).expect("gate client connects");
            let model = loader.load_model(&file.0).expect("daemon loads artifact").model;
            let t0 = Instant::now();
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let model = model.clone();
                    let meas_mu = Arc::clone(&meas_mu);
                    std::thread::spawn(move || {
                        let mut client =
                            Client::connect(addr).expect("gate worker connects");
                        client.set_protocol(proto);
                        for k in 0..requests {
                            let rows: Vec<Vec<f64>> = (0..8)
                                .map(|r| {
                                    meas_mu
                                        .iter()
                                        .enumerate()
                                        .map(|(j, &mu)| {
                                            let phase = c * 7919 + (k * 8 + r) * 131 + j * 17;
                                            mu + ((phase as f64) * 0.37).sin() * 3.0
                                        })
                                        .collect()
                                })
                                .collect();
                            client
                                .predict_batch(&model, &rows)
                                .expect("gate batch predicts");
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("gate worker thread");
            }
            let elapsed = t0.elapsed().as_secs_f64();
            let rows_served = clients * requests * 8;
            pathrep_obs::gauge_set("bench.rows_per_sec", rows_served as f64 / elapsed.max(1e-9));
            loader.shutdown().expect("gate shutdown");
            let stats = handle.join();
            assert_eq!(stats.errors, 0, "gate serving must be error-free");
        }),
    }
}

/// Values recorded by the `hdr_record` workload — enough that the timed
/// region is dominated by [`pathrep_obs::HdrHistogram::record`] itself.
const HDR_RECORD_VALUES: usize = 200_000;

/// Measures the HDR-histogram recording hot path: the per-request cost the
/// serving plane pays for `serve.request_ns`. A deterministic LCG drives
/// the values (seeded, so the `hdr_records` counter is exactly stable) and
/// the resulting quantiles feed `black_box` so the loop cannot fold away.
fn hdr_record_workload(name: &'static str) -> Workload {
    Workload {
        name,
        run: Box::new(move || {
            let mut h = pathrep_obs::HdrHistogram::new();
            let mut state = GATE_SEED;
            for _ in 0..HDR_RECORD_VALUES {
                // LCG (Numerical Recipes constants): spans ~6 decades once
                // folded into a latency-like range below.
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let ns = 1_000.0 + (state >> 11) as f64 % 1.0e9;
                h.record(ns);
            }
            std::hint::black_box(h.quantile(0.999));
            assert_eq!(h.count(), HDR_RECORD_VALUES as u64);
            pathrep_obs::counter_add("obs.hdr.records", HDR_RECORD_VALUES as u64);
        }),
    }
}

/// Builds the full workload matrix. Preparation (circuit generation, path
/// extraction, delay-model construction for the shared instances) happens
/// here, untimed; the returned workloads are pure timed regions.
pub fn workload_matrix() -> Vec<Workload> {
    let small = prepare_or_die(&small_spec(), &small_config());
    let medium = prepare_or_die(&medium_spec(), &medium_config());
    let small_hy = prepare_or_die(&small_spec(), &hybrid_config(&small_config()));
    let medium_hy = prepare_or_die(&medium_spec(), &hybrid_config(&medium_config()));

    let mut workloads = vec![
        Workload {
            name: "pipeline_small",
            run: Box::new(|| {
                prepare(&small_spec(), &small_config()).expect("pipeline prepares");
            }),
        },
        Workload {
            name: "pipeline_medium",
            run: Box::new(|| {
                prepare(&medium_spec(), &medium_config()).expect("pipeline prepares");
            }),
        },
        exact_workload("exact_small", Arc::clone(&small)),
        exact_workload("exact_medium", Arc::clone(&medium)),
        approx_workload("approx_small", Arc::clone(&small)),
        approx_workload("approx_medium", Arc::clone(&medium)),
        hybrid_workload("hybrid_small", Arc::clone(&small_hy)),
        hybrid_workload("hybrid_medium", Arc::clone(&medium_hy)),
    ];
    workloads.push(mc_workload("mc_eval_small", small));
    workloads.push(mc_workload("mc_eval_medium", medium));
    workloads.push(serve_workload("serve_small", 16, 64, 64));
    workloads.push(serve_workload("serve_medium", 48, 256, 256));
    workloads.push(serve_workload_proto(
        "serve_binary_small",
        16,
        64,
        64,
        WireProtocol::Binary,
    ));
    // The concurrency axis: four binary clients against four reactor
    // shards; sustained rows/sec lands in the `bench.rows_per_sec` gauge.
    workloads.push(serve_concurrent_workload(
        "serve_sharded",
        4,
        WireProtocol::Binary,
        4,
        24,
    ));
    workloads.push(hdr_record_workload("hdr_record"));
    workloads
}

fn large_spec() -> BenchmarkSpec {
    Suite::large()
}

fn large_config() -> SparsePipelineConfig {
    SparsePipelineConfig {
        t_cons_factor: 1.0,
        k_paths: 800,
    }
}

fn sketch_exact_workload(name: &'static str, pb: Arc<PreparedSparseBenchmark>) -> Workload {
    Workload {
        name,
        run: Box::new(move || {
            let dm = &pb.delay_model;
            sketch_exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA, &SketchConfig::default())
                .expect("sketched exact selection succeeds");
        }),
    }
}

fn sketch_approx_workload(name: &'static str, pb: Arc<PreparedSparseBenchmark>) -> Workload {
    Workload {
        name,
        run: Box::new(move || {
            let dm = &pb.delay_model;
            let config = SketchApproxConfig::new(0.05, pb.t_cons);
            sketch_approx_select(dm.a(), dm.mu_paths(), &config)
                .expect("sketched approx selection succeeds");
        }),
    }
}

/// The large-instance matrix: the 100k-gate-class spec through the sparse
/// front-end and the sketched Algorithm 1. Separate from
/// [`workload_matrix`] so default `perf_gate` runs (and their
/// `BENCH_*.json` baselines) are unchanged; `perf_gate --include-large`
/// appends these rows. The shared instance is prepared here, untimed;
/// `pipeline_large` re-runs the full sparse front-end per repeat.
pub fn large_workload_matrix() -> Vec<Workload> {
    let large = Arc::new(
        prepare_sparse(&large_spec(), &large_config())
            .expect("large instance is deterministic and must prepare"),
    );
    vec![
        Workload {
            name: "pipeline_large",
            run: Box::new(|| {
                prepare_sparse(&large_spec(), &large_config()).expect("sparse pipeline prepares");
            }),
        },
        sketch_exact_workload("exact_large", Arc::clone(&large)),
        sketch_approx_workload("approx_large", large),
    ]
}

/// Dotted obs counter → short `BENCH_*.json` key for the headline
/// operation counts; everything else keeps its dotted name.
const COUNTER_ALIASES: &[(&str, &str)] = &[
    ("convopt.admm.iterations", "admm_iters"),
    ("core.approx.evaluations", "approx_evals"),
    ("core.subset.calls", "subset_calls"),
    ("eval.mc.samples", "mc_samples"),
    ("linalg.qr.pivot_swaps", "qr_pivots"),
    ("linalg.svd.calls", "svd_calls"),
    ("linalg.svd.qr_sweeps", "svd_sweeps"),
    ("obs.hdr.records", "hdr_records"),
    ("serve.predictions", "serve_predictions"),
    ("serve.requests", "serve_requests"),
    ("ssta.extract.paths", "extract_paths"),
];

fn collect_counters(snap: &pathrep_obs::Snapshot) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .map(|c| {
            let key = COUNTER_ALIASES
                .iter()
                .find(|(dotted, _)| *dotted == c.name)
                .map(|&(_, short)| short.to_owned())
                .unwrap_or_else(|| c.name.clone());
            (key, c.value)
        })
        .collect()
}

/// Runs every workload `repeats` times with telemetry on, collecting wall
/// times (p50/p95) and the obs counters of the final repeat. Counters are
/// checked for repeat-to-repeat stability — drift means hidden global
/// state and is reported on stderr rather than silently recorded.
pub fn measure(workloads: &[Workload], repeats: usize) -> Vec<WorkloadResult> {
    let repeats = repeats.max(1);
    pathrep_obs::set_enabled(true);
    let mut results = Vec::with_capacity(workloads.len());
    for w in workloads {
        let mut times_ms = Vec::with_capacity(repeats);
        let mut counters: Option<BTreeMap<String, u64>> = None;
        let mut profile = Vec::new();
        let mut rates: Vec<f64> = Vec::new();
        for rep in 0..repeats {
            pathrep_obs::reset();
            let t0 = Instant::now();
            w.run();
            times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let snap = pathrep_obs::registry().snapshot();
            // Self-time profile of the final repeat (same snapshot the
            // counters come from).
            profile = pathrep_obs::selftime::profile(&snap);
            // Sustained throughput, for workloads that report it.
            if let Some(g) = snap.gauges.iter().find(|g| g.name == "bench.rows_per_sec") {
                rates.push(g.value);
            }
            let c = collect_counters(&snap);
            if let Some(prev) = &counters {
                if prev != &c {
                    eprintln!(
                        "perf_gate: WARNING: workload `{}` counters drifted between \
                         repeat {} and {} — seeds are not pinning the work",
                        w.name,
                        rep - 1,
                        rep
                    );
                }
            }
            counters = Some(c);
        }
        times_ms.sort_by(f64::total_cmp);
        rates.sort_by(f64::total_cmp);
        results.push(WorkloadResult {
            name: w.name.to_owned(),
            p50_ms: percentile_ms(&times_ms, 0.50),
            p95_ms: percentile_ms(&times_ms, 0.95),
            p999_ms: Some(percentile_ms(&times_ms, 0.999)),
            rows_per_sec: if rates.is_empty() {
                None
            } else {
                Some(percentile_ms(&rates, 0.50))
            },
            counters: counters.unwrap_or_default(),
            profile,
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Manual probe for the large-instance scaling claim: wall time of the
    /// dense exact pipeline (full SVD of the densified `A`) against the
    /// sketched pipeline on the same instance. Ignored by default — run
    /// with `cargo test -p pathrep-bench --release -- --ignored
    /// dense_baseline` to reproduce the numbers quoted in DESIGN.md.
    #[test]
    #[ignore = "manual probe: dense-vs-sketch wall time on the large instance"]
    fn dense_baseline_on_large_instance() {
        use std::time::Instant;
        let pb = prepare_sparse(&large_spec(), &large_config()).unwrap();
        let dm = &pb.delay_model;
        let t0 = Instant::now();
        let sk = sketch_exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA, &SketchConfig::default())
            .unwrap();
        let sketch_s = t0.elapsed().as_secs_f64();
        let dense_a = dm.a().to_dense();
        let t1 = Instant::now();
        let dn = exact_select(&dense_a, dm.mu_paths(), DEFAULT_KAPPA).unwrap();
        let dense_s = t1.elapsed().as_secs_f64();
        eprintln!(
            "large instance ({} paths × {} vars, nnz {}): sketch {:.2}s (r={}) \
             vs dense {:.2}s (r={}) — {:.1}× speedup",
            dm.a().nrows(),
            dm.a().ncols(),
            dm.a().nnz(),
            sketch_s,
            sk.rank,
            dense_s,
            dn.rank,
            dense_s / sketch_s
        );
        assert!(
            dense_s >= 10.0 * sketch_s,
            "dense ({dense_s:.2}s) is not ≥10× slower than sketched ({sketch_s:.2}s)"
        );
    }

    #[test]
    fn measure_records_times_and_deterministic_counters() {
        let workloads = vec![Workload {
            name: "noop_counter",
            run: Box::new(|| {
                pathrep_obs::counter_add("linalg.svd.qr_sweeps", 3);
                pathrep_obs::counter_add("custom.thing", 1);
            }),
        }];
        let results = measure(&workloads, 3);
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.name, "noop_counter");
        assert!(r.p50_ms >= 0.0 && r.p95_ms >= r.p50_ms);
        // The alias maps the dotted obs name to the short key; unknown
        // counters keep their dotted name.
        assert_eq!(r.counters.get("svd_sweeps"), Some(&3));
        assert_eq!(r.counters.get("custom.thing"), Some(&1));
    }
}
