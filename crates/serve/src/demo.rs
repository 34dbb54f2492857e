//! The quickstart (paper Figure 1) model as a servable artifact, plus a
//! deterministic chip-measurement generator — shared by the golden
//! byte-stability test, the end-to-end serving tests, the `serving`
//! example, and the `pathrep-client` load generator, so every consumer
//! exercises *the same* model the README quickstart builds.

use crate::artifact::{ModelArtifact, SelectionMeta};
use pathrep_circuit::cell::{CellKind, CellLibrary};
use pathrep_circuit::generator::PlacedCircuit;
use pathrep_circuit::netlist::{Netlist, Signal};
use pathrep_circuit::paths::{decompose_into_segments, Path};
use pathrep_circuit::placement::Placement;
use pathrep_core::approx::{approx_select, ApproxConfig};
use pathrep_variation::model::VariationModel;
use pathrep_variation::sampler::VariationSampler;
use pathrep_variation::sensitivity::DelayModel;
use std::error::Error;

/// Seed shared with `examples/quickstart.rs` — the demo artifact *is* the
/// quickstart model.
pub const DEMO_SEED: u64 = 2024;

/// The quickstart model with enough context to fabricate virtual chips.
pub struct DemoModel {
    /// The servable artifact (selection + predictor + guard band).
    pub artifact: ModelArtifact,
    /// The linear delay model, for generating chip measurements.
    pub delay_model: DelayModel,
}

/// Builds the Figure-1 model exactly as `examples/quickstart.rs` does:
/// nine gates, four paths merging at G5, three-level variation model,
/// approximate selection at ε = 5 % of `T_cons`.
///
/// # Errors
///
/// Propagates any pipeline failure (cannot happen for this fixed circuit
/// unless the underlying algorithms regress).
pub fn build_quickstart_model() -> Result<DemoModel, Box<dyn Error>> {
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
    let paths = vec![
        Path::new(vec![g1, g3, g5, g7, g9])?,
        Path::new(vec![g1, g3, g5, g6, g8])?,
        Path::new(vec![g2, g4, g5, g6, g8])?,
        Path::new(vec![g2, g4, g5, g7, g9])?,
    ];
    let dec = decompose_into_segments(&paths)?;
    let model = VariationModel::three_level();
    let delay_model = DelayModel::build(&circuit, &paths, &dec, &model)?.to_dense();

    let t_cons = delay_model
        .mu_paths()
        .iter()
        .cloned()
        .fold(0.0_f64, f64::max)
        * 1.05;
    let config = ApproxConfig::new(0.05, t_cons);
    let sel = approx_select(delay_model.a(), delay_model.mu_paths(), &config)?;

    let artifact = ModelArtifact {
        label: "quickstart".into(),
        selection: SelectionMeta {
            epsilon: config.epsilon,
            epsilon_r: sel.epsilon_r,
            eta: config.eta,
            rank: sel.rank,
            effective_rank: sel.effective_rank,
            t_cons,
            selected: sel.selected,
            remaining: sel.remaining,
        },
        guard_band_phi: sel.epsilon_r * t_cons,
        predictor: sel.predictor,
    };
    Ok(DemoModel {
        artifact,
        delay_model,
    })
}

impl DemoModel {
    /// "Fabricates" `n` virtual chips from `seed` and returns, per chip,
    /// the measured delays of the representative paths (the predict
    /// request payload) — deterministic for a given `(n, seed)`.
    ///
    /// # Errors
    ///
    /// Propagates delay-evaluation failures (fixed circuit: none in
    /// practice).
    pub fn measure_chips(&self, n: usize, seed: u64) -> Result<Vec<Vec<f64>>, Box<dyn Error>> {
        let mut sampler = VariationSampler::new(self.delay_model.variable_count(), seed);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let x = sampler.draw();
            let d_all = self.delay_model.path_delays(&x)?;
            out.push(
                self.artifact
                    .selection
                    .selected
                    .iter()
                    .map(|&i| d_all[i])
                    .collect(),
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_model_builds_and_measures() {
        let demo = build_quickstart_model().unwrap();
        let p = &demo.artifact.predictor;
        assert_eq!(
            p.measurement_count(),
            demo.artifact.selection.selected.len()
        );
        assert_eq!(p.target_count(), demo.artifact.selection.remaining.len());
        assert!(demo.artifact.guard_band_phi >= 0.0);
        let chips = demo.measure_chips(3, DEMO_SEED).unwrap();
        assert_eq!(chips.len(), 3);
        assert!(chips.iter().all(|c| c.len() == p.measurement_count()));
        // Determinism: the same seed fabricates the same chips.
        let again = demo.measure_chips(3, DEMO_SEED).unwrap();
        assert_eq!(chips, again);
    }
}
