//! Quickstart: the paper's Figure-1 motivating example, end to end.
//!
//! Four paths merge at gate G5; because they share segments, any one of
//! them is an exact linear combination of the other three
//! (`d_p1 = d_p2 − d_p3 + d_p4`). Exact selection discovers this: it keeps
//! `rank(A) = 3` representative paths and predicts the fourth with zero
//! error. The example then runs the approximate (Algorithm 1), hybrid
//! (Algorithm 3, via the ADMM segment program) and Monte-Carlo evaluation
//! stages on the same model, so a `PATHREP_OBS_LEDGER=out.jsonl` run
//! produces numerical-health records for every pipeline stage.
//!
//! Run with: `cargo run --release --example quickstart`

use pathrep::circuit::cell::{CellKind, CellLibrary};
use pathrep::circuit::generator::PlacedCircuit;
use pathrep::circuit::netlist::{Netlist, Signal};
use pathrep::circuit::paths::{decompose_into_segments, Path};
use pathrep::circuit::placement::Placement;
use pathrep::core::approx::{approx_select, ApproxConfig};
use pathrep::core::exact::exact_select;
use pathrep::core::hybrid::{hybrid_select, HybridConfig, HybridInputs};
use pathrep::core::predictor::DEFAULT_KAPPA;
use pathrep::eval::metrics::{evaluate, McConfig, MeasurementPlan};
use pathrep::variation::model::VariationModel;
use pathrep::variation::sampler::VariationSampler;
use pathrep::variation::sensitivity::DelayModel;
use std::error::Error;

const SEED: u64 = 2024;

fn main() -> Result<(), Box<dyn Error>> {
    pathrep::obs::ledger::set_run_context("quickstart", SEED);

    // --- Build the Figure-1 subcircuit: G1..G9, paths merging at G5 ---
    let mut nl = Netlist::new(2);
    let g1 = nl.add_gate(CellKind::Buf, vec![Signal::Input(0)])?;
    let g2 = nl.add_gate(CellKind::Buf, vec![Signal::Input(1)])?;
    let g3 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g1)])?;
    let g4 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g2)])?;
    let g5 = nl.add_gate(CellKind::Nand2, vec![Signal::Gate(g3), Signal::Gate(g4)])?;
    let g6 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g5)])?;
    let g7 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g5)])?;
    let g8 = nl.add_gate(CellKind::Buf, vec![Signal::Gate(g6)])?;
    let g9 = nl.add_gate(CellKind::Buf, vec![Signal::Gate(g7)])?;
    nl.mark_output(g8)?;
    nl.mark_output(g9)?;
    let circuit = PlacedCircuit::from_parts(
        nl,
        Placement::new(vec![(0.5, 0.5); 9]),
        CellLibrary::synthetic_90nm(),
    );

    // --- The four target paths of the figure ---
    let paths = vec![
        Path::new(vec![g1, g3, g5, g7, g9])?, // p1
        Path::new(vec![g1, g3, g5, g6, g8])?, // p2
        Path::new(vec![g2, g4, g5, g6, g8])?, // p3
        Path::new(vec![g2, g4, g5, g7, g9])?, // p4
    ];
    let dec = decompose_into_segments(&paths)?;
    println!(
        "{} target paths decompose into {} segments",
        paths.len(),
        dec.segment_count()
    );

    // --- Linear delay model d = µ + A·x under the 3-level variation model ---
    let model = VariationModel::three_level();
    let dm = DelayModel::build(&circuit, &paths, &dec, &model)?.to_dense();
    println!(
        "variation dimension |x| = {} (2 params × regions + per-gate randoms)",
        dm.variable_count()
    );

    // --- Exact selection: rank(A) = 3 representative paths suffice ---
    let sel = exact_select(dm.a(), dm.mu_paths(), DEFAULT_KAPPA)?;
    println!(
        "rank(A) = {} ⇒ representative paths: {:?}, predicted: {:?}",
        sel.rank, sel.selected, sel.remaining
    );

    // --- "Fabricate" a chip and validate the prediction ---
    let mut sampler = VariationSampler::new(dm.variable_count(), SEED);
    let x = sampler.draw();
    let d_all = dm.path_delays(&x)?;
    let measured: Vec<f64> = sel.selected.iter().map(|&i| d_all[i]).collect();
    let predicted = sel.predictor.predict(&measured)?;
    for (k, &p) in sel.remaining.iter().enumerate() {
        println!(
            "path {}: true {:.3} ps, predicted {:.3} ps (error {:.2e} ps)",
            p,
            d_all[p],
            predicted[k],
            (predicted[k] - d_all[p]).abs()
        );
    }
    // The motivating identity itself:
    let lhs = d_all[0];
    let rhs = d_all[1] - d_all[2] + d_all[3];
    println!("identity d_p1 = d_p2 − d_p3 + d_p4: {lhs:.3} = {rhs:.3}");

    // --- Approximate selection (Algorithm 1): trade error for fewer
    //     measurements under ε = 5 % of T_cons ---
    let t_cons = dm.mu_paths().iter().cloned().fold(0.0_f64, f64::max) * 1.05;
    let approx = approx_select(dm.a(), dm.mu_paths(), &ApproxConfig::new(0.05, t_cons))?;
    println!(
        "approximate selection: |P_r| = {} (effective rank {} of {}), ε_r = {:.2e}",
        approx.selected.len(),
        approx.effective_rank,
        approx.rank,
        approx.epsilon_r
    );

    // --- Hybrid selection (Algorithm 3): the ADMM segment program on the
    //     same model, ε′ = 3 % < ε = 5 % ---
    let inputs = HybridInputs {
        g: dm.g(),
        sigma: dm.sigma(),
        a: dm.a(),
        mu_segments: dm.mu_segments(),
        mu_paths: dm.mu_paths(),
    };
    let hybrid = hybrid_select(&inputs, &HybridConfig::new(0.05, 0.03, t_cons))?;
    println!(
        "hybrid plan: {} segments + {} paths predict {} paths (ADMM {} iterations, converged: {})",
        hybrid.segments.len(),
        hybrid.paths.len(),
        hybrid.remaining.len(),
        hybrid.admm_stats.iterations,
        hybrid.admm_stats.converged
    );

    // --- Monte-Carlo evaluation of the approximate plan ---
    let plan = MeasurementPlan::Paths {
        selected: &approx.selected,
        predictor: &approx.predictor,
    };
    let mc = McConfig {
        n_samples: 2000,
        seed: SEED,
        // Global pathrep-par pool (PATHREP_THREADS); the chunked sample
        // split makes the metrics bit-identical at every worker count, and
        // the accuracy gate verifies exactly that.
        threads: 0,
    };
    let metrics = evaluate(&dm, &plan, &approx.remaining, &mc)?;
    println!(
        "monte-carlo over {} chips: e1 = {:.3} %, e2 = {:.3} %",
        mc.n_samples,
        100.0 * metrics.e1,
        100.0 * metrics.e2
    );
    pathrep::obs::report("quickstart");
    Ok(())
}
