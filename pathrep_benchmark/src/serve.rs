//! `serve_open`: open-loop production-test traffic against an in-process
//! daemon, every reply checked bit for bit against the offline predictor.

use crate::loadgen::{self, Mix, Op, Outcome, Sample, Scheduled};
use crate::report::Report;
use crate::seeds::derive;
use crate::stats::{median, percentile};
use pathrep_core::approx::{approx_select_with, ApproxConfig};
use pathrep_core::exact::exact_select_with;
use pathrep_core::factors::ModelFactors;
use pathrep_core::predictor::DEFAULT_KAPPA;
use pathrep_eval::pipeline::{prepare, PipelineConfig};
use pathrep_eval::suite::{BenchmarkSpec, Suite};
use pathrep_serve::{
    Client, ModelArtifact, SelectionMeta, Server, ServerConfig, ServerHandle, WireProtocol,
};
use pathrep_variation::sampler::VariationSampler;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Chip payloads fabricated per model.
pub const CHIPS: usize = 64;
/// Re-labelled copies of the smallest artifact the writes cycle through.
pub const VARIANTS: usize = 4;
/// Generator threads, one connection each.
pub const THREADS: usize = 2;
/// Set-up repetitions whose median is `setup_s` (each builds four models).
const SETUP_REPEATS: usize = 3;
/// Generator lateness (p99) above which a fixed-rate window is invalid.
const LATE_LIMIT_S: f64 = 0.002;

/// One servable model with its fabricated chips and expected replies.
#[derive(Debug, Clone)]
pub struct Model {
    pub artifact: ModelArtifact,
    pub chips: Vec<Vec<f64>>,
    pub expected: Vec<Vec<f64>>,
}

/// The circuits behind the served models: the suite's fixed s1423- and
/// s9234-class instances (model size sets the per-request cost, so it
/// does not follow the seed).
pub fn circuits() -> Vec<BenchmarkSpec> {
    ["s1423", "s9234"]
        .iter()
        .map(|n| Suite::by_name(n).expect("class is in the suite"))
        .collect()
}

/// Builds the models, in traffic-share order: approximate selections of
/// every circuit, then exact ones. Chip `k` of a circuit is a draw of its
/// variation vector seeded from `seed`; its expected reply is the offline
/// predictor's.
pub fn build_models(specs: &[BenchmarkSpec], seed: u64) -> Result<Vec<Model>, String> {
    let mut approx = Vec::new();
    let mut exact = Vec::new();
    for (c, spec) in specs.iter().enumerate() {
        let config = PipelineConfig {
            max_paths: 800,
            ..PipelineConfig::default()
        };
        let pb = prepare(spec, &config).map_err(|e| e.to_string())?;
        let dm = &pb.delay_model;
        let factors = ModelFactors::compute(dm.a()).map_err(|e| e.to_string())?;
        let a_cfg = ApproxConfig::new(0.05, pb.t_cons);
        let sel = approx_select_with(dm.a(), dm.mu_paths(), &a_cfg, &factors)
            .map_err(|e| e.to_string())?;
        let ex = exact_select_with(dm.a(), dm.mu_paths(), DEFAULT_KAPPA, &factors)
            .map_err(|e| e.to_string())?;
        let mut sampler = VariationSampler::new(dm.variable_count(), derive(seed, 10, c as u64));
        let delays: Vec<Vec<f64>> = (0..CHIPS)
            .map(|_| dm.path_delays(&sampler.draw()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let meta = |selected: &[usize], remaining: &[usize], rank, eff, eps_r| SelectionMeta {
            epsilon: a_cfg.epsilon,
            epsilon_r: eps_r,
            eta: a_cfg.eta,
            rank,
            effective_rank: eff,
            t_cons: pb.t_cons,
            selected: selected.to_vec(),
            remaining: remaining.to_vec(),
        };
        let a_meta = meta(
            &sel.selected,
            &sel.remaining,
            sel.rank,
            sel.effective_rank,
            sel.epsilon_r,
        );
        let e_meta = meta(&ex.selected, &ex.remaining, ex.rank, ex.rank, 0.0);
        approx.push(model(
            format!("{}-approx", spec.name),
            a_meta,
            sel.predictor,
            &delays,
        )?);
        exact.push(model(
            format!("{}-exact", spec.name),
            e_meta,
            ex.predictor,
            &delays,
        )?);
    }
    approx.extend(exact);
    Ok(approx)
}

fn model(
    label: String,
    selection: SelectionMeta,
    predictor: pathrep_core::MeasurementPredictor,
    delays: &[Vec<f64>],
) -> Result<Model, String> {
    let chips: Vec<Vec<f64>> = delays
        .iter()
        .map(|d| selection.selected.iter().map(|&i| d[i]).collect())
        .collect();
    let expected = chips
        .iter()
        .map(|m| predictor.predict(m).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let artifact = ModelArtifact {
        label,
        guard_band_phi: selection.epsilon_r * selection.t_cons,
        selection,
        predictor,
    };
    Ok(Model {
        artifact,
        chips,
        expected,
    })
}

/// Whether a reply is bit-identical to the offline one.
pub fn same_bits(expected: &[f64], got: &[f64]) -> bool {
    expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A running daemon with the models loaded, and one client per generator
/// thread.
pub struct Daemon {
    handle: ServerHandle,
    loader: Client,
    pub clients: Vec<Client>,
    /// Server model id of each model.
    pub ids: Vec<String>,
    /// Artifact paths and expected model ids of the re-labelled copies.
    pub variants: Vec<(String, String)>,
}

impl Daemon {
    /// Writes the artifacts under `dir`, starts a default-configured
    /// daemon on an ephemeral port and loads every model.
    pub fn start(models: &[Model], dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let save = |a: &ModelArtifact, name: String| -> Result<(String, String), String> {
            let path = path_str(&dir.join(name));
            a.save(&path).map_err(|e| e.to_string())?;
            Ok((path, a.model_id()))
        };
        let mut paths = Vec::new();
        for (i, m) in models.iter().enumerate() {
            paths.push(save(&m.artifact, format!("model{i}.artifact"))?);
        }
        let mut variants = Vec::new();
        for v in 0..VARIANTS {
            let mut a = models[0].artifact.clone();
            a.label = format!("{}-relabel{v}", a.label);
            variants.push(save(&a, format!("variant{v}.artifact"))?);
        }
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        };
        let handle = Server::bind(config)
            .and_then(Server::spawn)
            .map_err(|e| e.to_string())?;
        let connect = || -> Result<Client, String> {
            let mut c = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
            c.set_protocol(WireProtocol::Binary);
            Ok(c)
        };
        let mut loader = connect()?;
        let mut ids = Vec::new();
        for (path, id) in &paths {
            let loaded = loader.load_model(path).map_err(|e| e.to_string())?;
            if &loaded.model != id {
                return Err(format!(
                    "daemon loaded {} as {}, expected {id}",
                    path, loaded.model
                ));
            }
            ids.push(loaded.model);
        }
        let clients = (0..THREADS).map(|_| connect()).collect::<Result<_, _>>()?;
        Ok(Daemon {
            handle,
            loader,
            clients,
            ids,
            variants,
        })
    }

    /// The daemon's lifetime statistics.
    pub fn stats(&mut self) -> Result<pathrep_serve::ServerStats, String> {
        self.loader.stats().map_err(|e| e.to_string())
    }

    /// Drains and stops the daemon; returns its final error count.
    pub fn stop(mut self) -> u64 {
        drop(self.clients);
        let _ = self.loader.shutdown();
        self.handle.join().errors
    }
}

fn path_str(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Sends one request and checks the reply against the offline one.
fn send(
    client: &mut Client,
    models: &[Model],
    daemon_ids: &[String],
    variants: &[(String, String)],
    op: &Op,
) -> Outcome {
    let check = |ok: bool| if ok { Outcome::Ok } else { Outcome::Mismatch };
    match op {
        Op::Binary { model, chip } | Op::Json { model, chip } => {
            let json = matches!(op, Op::Json { .. });
            if json {
                client.set_protocol(WireProtocol::Json);
            }
            let m = &models[*model];
            let reply = client.predict(&daemon_ids[*model], &m.chips[*chip]);
            if json {
                client.set_protocol(WireProtocol::Binary);
            }
            match reply {
                Ok(got) => check(same_bits(&m.expected[*chip], &got)),
                Err(_) => Outcome::Error,
            }
        }
        Op::Batch { model, chips } => {
            let m = &models[*model];
            let rows: Vec<Vec<f64>> = chips.iter().map(|&c| m.chips[c].clone()).collect();
            match client.predict_batch(&daemon_ids[*model], &rows) {
                Ok(got) => check(
                    got.len() == chips.len()
                        && chips
                            .iter()
                            .zip(&got)
                            .all(|(&c, g)| same_bits(&m.expected[c], g)),
                ),
                Err(_) => Outcome::Error,
            }
        }
        Op::Load { variant } => {
            let (path, id) = &variants[*variant];
            match client.load_model(path) {
                Ok(loaded) => check(&loaded.model == id),
                Err(_) => Outcome::Error,
            }
        }
    }
}

/// Runs one phase's schedule on the daemon's connections, one generator
/// thread per connection; returns every request with its sample.
pub fn run_phase(daemon: &mut Daemon, models: &[Model], ops: &[Scheduled]) -> Vec<(Op, Sample)> {
    let start = Instant::now();
    let ids = &daemon.ids;
    let variants = &daemon.variants;
    std::thread::scope(|scope| {
        let workers: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                let mine: Vec<&Scheduled> = ops.iter().filter(|s| s.thread == t).collect();
                scope.spawn(move || {
                    let samples = loadgen::run(mine.iter().copied(), start, |op| {
                        let _s = pathrep_obs::span!("loadgen.request");
                        send(client, models, ids, variants, op)
                    });
                    mine.into_iter()
                        .map(|s| s.op.clone())
                        .zip(samples)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread"))
            .collect()
    })
}

/// The traffic mix over `models`.
pub fn mix(models: &[Model]) -> Mix {
    Mix {
        models: models.len(),
        chips: CHIPS,
        variants: VARIANTS,
        threads: THREADS,
        load_every_s: 0.5,
    }
}

/// Set-up, timed: build the models from real selections, fabricate the
/// chips and their offline replies, start the daemon and load the models.
fn timed_setup(seed: u64, dir: &Path) -> Result<(f64, Vec<Model>, Daemon), String> {
    let t0 = Instant::now();
    let models = build_models(&circuits(), seed)?;
    let daemon = Daemon::start(&models, dir)?;
    Ok((t0.elapsed().as_secs_f64(), models, daemon))
}

/// Latencies (seconds, from the due time) of the prediction requests.
fn predict_latencies(samples: &[(Op, Sample)]) -> Vec<f64> {
    samples
        .iter()
        .filter(|(op, _)| !matches!(op, Op::Load { .. }))
        .map(|(_, s)| s.latency_s())
        .collect()
}

/// Tallies every request: a wrong reply, an error reply or a broken
/// connection fails.
fn tally(report: &mut Report, samples: &[(Op, Sample)]) {
    for (op, s) in samples {
        report.tally(match s.outcome {
            Outcome::Ok => Vec::new(),
            other => vec![format!("{op:?}: {other:?}")],
        });
    }
}

/// Warns when the generator itself fell behind at a fixed rate, which
/// makes those latencies a measurement of the generator.
fn check_lateness(phase: &str, samples: &[(Op, Sample)]) {
    let late: Vec<f64> = samples.iter().map(|(_, s)| s.late_s).collect();
    if let Some(p99) = percentile(&late, 0.99) {
        if p99 > LATE_LIMIT_S {
            eprintln!(
                "serve_open: phase {phase} is INVALID: the generator sent its p99 request {:.2} ms late",
                p99 * 1e3
            );
        }
    }
}

/// Runs `serve_open`. Untraced: set-up, the measured rounds, then two
/// more set-ups for the median. Traced: set-up at the default worker count
/// and at 1 worker, then the 1 000 req/s windows untraced and traced.
pub fn run_workload(seed: u64, seconds: f64, trace: bool) -> Report {
    let dir = work_dir();
    let mut report = Report::default();
    let result = if trace {
        traced(&mut report, seed, seconds, &dir)
    } else {
        untraced(&mut report, seed, seconds, &dir)
    };
    if let Err(e) = result {
        report.tally(vec![format!("serve_open failed: {e}")]);
    }
    remove_work_dir(&dir);
    report
}

/// Rounds of the measured part. Each round runs a 1 000 req/s window, a
/// 4 000 req/s window and a saturation burst, so every measure is spread
/// over the whole run and a stall or a slow spell of the host spoils one
/// window, not a measure. The metrics read the 1 000 req/s windows and
/// the bursts; the 4 000 req/s windows carry queueing noise, but without
/// them between the light windows the idle host's CPUs park and the light
/// windows' median flips between two modes (0.10 and 0.18 ms) run to run.
const ROUNDS: u64 = 12;

/// Requests per saturation burst, sent back to back on both connections.
const BURST: usize = 2000;

/// Seconds per fixed-rate window.
fn window_seconds(seconds: f64) -> f64 {
    (seconds / 40.0).max(0.25)
}

/// The measured rounds: samples of every request of the 1 000 req/s
/// windows and of the 4 000 req/s windows, and of each burst. Without
/// `full`, only the 1 000 req/s windows run.
fn rounds(
    daemon: &mut Daemon,
    models: &[Model],
    seed: u64,
    window: f64,
    full: bool,
) -> [Vec<Vec<(Op, Sample)>>; 3] {
    let mix = mix(models);
    let mut out: [Vec<Vec<(Op, Sample)>>; 3] = Default::default();
    for round in 0..ROUNDS {
        let ops = loadgen::schedule(derive(seed, 20, round), 1000.0, window, &mix);
        out[0].push(run_phase(daemon, models, &ops));
        if full {
            let ops = loadgen::schedule(derive(seed, 21, round), 4000.0, window, &mix);
            out[1].push(run_phase(daemon, models, &ops));
            // Due times within a microsecond: each connection sends its
            // next request as soon as the previous reply arrives.
            let ops = loadgen::schedule(derive(seed, 22, round), 1e9, BURST as f64 / 1e9, &mix);
            out[2].push(run_phase(daemon, models, &ops));
        }
    }
    out
}

fn untraced(report: &mut Report, seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    let (first_setup, models, mut daemon) = timed_setup(seed, dir)?;
    let [light, heavy, bursts] = rounds(&mut daemon, &models, seed, window_seconds(seconds), true);
    let errors = daemon.stop();
    if errors > 0 {
        report.tally(vec![format!("daemon counted {errors} errors")]);
    }
    // Read before the repeated set-ups, which only time set-up.
    report.set("peak_rss_mb", crate::peak_rss_mb());
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPEATS {
        let (t, _, daemon) = timed_setup(seed, dir)?;
        setups.push(t);
        Daemon::stop(daemon);
    }

    for w in light.iter().chain(&heavy).chain(&bursts) {
        tally(report, w);
    }
    let fixed = light.concat();
    check_lateness("1000 req/s", &fixed);
    check_lateness("4000 req/s", &heavy.concat());
    let burst_rate: Vec<f64> = bursts
        .iter()
        .map(|b| b.len() as f64 / b.iter().map(|(_, s)| s.done_s).fold(0.0, f64::max))
        .collect();
    let meas: Vec<f64> = fixed
        .iter()
        .flat_map(|(op, _)| match op {
            Op::Binary { model, .. } | Op::Json { model, .. } => vec![*model],
            Op::Batch { model, chips } => vec![*model; chips.len()],
            Op::Load { .. } => Vec::new(),
        })
        .map(|m| models[m].artifact.predictor.measurement_count() as f64)
        .collect();
    let latencies = predict_latencies(&fixed);
    report.set("setup_s", median(&setups).unwrap_or(0.0));
    report.set("p50_ms", median(&latencies).unwrap_or(f64::NAN) * 1e3);
    report.set(
        "tail_ms",
        percentile(&latencies, 0.9).unwrap_or(f64::NAN) * 1e3,
    );
    report.set("throughput", median(&burst_rate).unwrap_or(f64::NAN));
    report.set(
        "meas_per_die",
        meas.iter().sum::<f64>() / meas.len().max(1) as f64,
    );
    Ok(())
}

fn traced(report: &mut Report, seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    crate::layers::zero_all(report);
    let (default_s, _, daemon) = timed_setup(seed, dir)?;
    Daemon::stop(daemon);
    pathrep_par::set_threads(1);
    let one = timed_setup(seed, dir);
    pathrep_par::set_threads(0);
    let (one_worker_s, models, mut daemon) = one?;
    report.set("par.speedup", one_worker_s / default_s);

    let window = window_seconds(seconds);
    let untraced = rounds(&mut daemon, &models, seed, window, false)[0].concat();
    pathrep_obs::set_enabled(true);
    pathrep_obs::reset();
    let traced = rounds(&mut daemon, &models, seed, window, false)[0].concat();
    pathrep_obs::work::flush();
    let snap = pathrep_obs::registry().snapshot();
    pathrep_obs::set_enabled(false);
    let stats = daemon.stats()?;
    let errors = daemon.stop();
    tally(report, &untraced);
    tally(report, &traced);
    if errors > 0 {
        report.tally(vec![format!("daemon counted {errors} errors")]);
    }

    crate::layers::from_snapshot(report, &snap);
    let p50 = |s: &[(Op, Sample)]| median(&predict_latencies(s)).unwrap_or(f64::NAN);
    report.set(
        "obs.overhead_pct",
        100.0 * (p50(&traced) / p50(&untraced) - 1.0),
    );
    let rtt = |kind: fn(&Op) -> bool| {
        let v: Vec<f64> = traced
            .iter()
            .filter(|(op, _)| kind(op))
            .map(|(_, s)| s.rtt_s())
            .collect();
        median(&v).unwrap_or(f64::NAN)
    };
    let bin1 = rtt(|o| matches!(o, Op::Binary { .. }));
    report.set(
        "serve.json_rtt_ratio",
        rtt(|o| matches!(o, Op::Json { .. })) / bin1,
    );
    report.set(
        "serve.bin8_rtt_ratio",
        rtt(|o| matches!(o, Op::Batch { .. })) / bin1,
    );
    report.set(
        "serve.batch_rows_mean",
        stats.predictions as f64 / stats.batches.max(1) as f64,
    );
    let lookups = (stats.cache_hits + stats.cache_misses).max(1);
    report.set(
        "serve.cache_hit_frac",
        stats.cache_hits as f64 / lookups as f64,
    );
    report.set("serve.model_loads", stats.model_loads as f64);
    report.set("serve.errors", stats.errors as f64);
    let all: Vec<&Sample> = untraced.iter().chain(&traced).map(|(_, s)| s).collect();
    let late = all.iter().filter(|s| s.late_s > 0.001).count();
    report.set(
        "loadgen.late_pct",
        100.0 * late as f64 / all.len().max(1) as f64,
    );
    Ok(())
}

/// Removes `dir` (from [`work_dir`]) and, once empty, its parent.
fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Where the daemon reads artifacts from: a per-process directory inside
/// the benchmark's own tree, removed when the workload ends.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(std::process::id().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<BenchmarkSpec> {
        vec![crate::offline::warmup_flow(crate::offline::Regime::Table1).spec]
    }

    #[test]
    fn a_flipped_bit_is_a_mismatch() {
        let expected = vec![101.25, 99.5];
        let mut got = expected.clone();
        assert!(same_bits(&expected, &got));
        got[1] = f64::from_bits(got[1].to_bits() ^ 1);
        assert!(!same_bits(&expected, &got));
        assert!(!same_bits(&expected, &expected[..1]));
    }

    #[test]
    fn daemon_replies_match_and_a_corrupted_expectation_fails_the_run() {
        let mut models = build_models(&tiny(), 3).expect("tiny models build");
        // Corrupt one expected reply by a single bit.
        let e = &mut models[0].expected[5][0];
        *e = f64::from_bits(e.to_bits() ^ 1);
        let dir = work_dir();
        let mut daemon = Daemon::start(&models, &dir).expect("daemon starts");
        let ops: Vec<Scheduled> = (0..CHIPS)
            .map(|chip| Scheduled {
                due_s: 0.0,
                thread: chip % THREADS,
                op: Op::Binary { model: 0, chip },
            })
            .chain([Scheduled {
                due_s: 0.0,
                thread: 0,
                op: Op::Load { variant: 1 },
            }])
            .collect();
        let samples = run_phase(&mut daemon, &models, &ops);
        let bad: Vec<_> = samples
            .iter()
            .filter(|(_, s)| s.outcome != Outcome::Ok)
            .collect();
        assert_eq!(bad.len(), 1, "exactly the corrupted chip mismatches");
        assert_eq!(bad[0].0, Op::Binary { model: 0, chip: 5 });
        assert_eq!(bad[0].1.outcome, Outcome::Mismatch);
        let mut report = crate::report::Report::default();
        for (_, s) in &samples {
            report.tally(if s.outcome == Outcome::Ok {
                vec![]
            } else {
                vec!["mismatch".into()]
            });
        }
        assert!(!report.correct());
        assert_eq!(daemon.stop(), 0);
        remove_work_dir(&dir);
    }
}
