//! Construction of the linear delay model `d_Ptar = µ + A·x`, factored
//! through segments as `A = G·Σ` (paper Eqn 1–2).

use crate::model::{Parameter, Variable, VariationModel};
use pathrep_circuit::generator::PlacedCircuit;
use pathrep_circuit::netlist::GateId;
use pathrep_circuit::paths::{Path, SegmentDecomposition};
use pathrep_linalg::sparse::SparseMatrix;
use pathrep_linalg::{LinalgError, Matrix};
use std::collections::HashMap;
use std::fmt;

/// Error from delay-model construction.
#[derive(Debug, Clone, PartialEq)]
pub enum VariationError {
    /// The path set and decomposition disagree.
    Inconsistent {
        /// What was inconsistent.
        what: &'static str,
    },
    /// An underlying matrix operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for VariationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariationError::Inconsistent { what } => {
                write!(f, "inconsistent delay-model inputs: {what}")
            }
            VariationError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for VariationError {}

impl From<LinalgError> for VariationError {
    fn from(e: LinalgError) -> Self {
        VariationError::Linalg(e)
    }
}

/// Per-gate first-order contribution terms: which model [`Variable`]s a
/// gate's delay depends on and with what ps-per-σ coefficient.
///
/// Shared by [`DelayModel::build`] and the SSTA substrate so both use one
/// definition of the variance budget.
pub fn gate_contribution_terms(
    circuit: &PlacedCircuit,
    model: &VariationModel,
    gate: GateId,
) -> Vec<(Variable, f64)> {
    let timing = circuit.gate_timing(gate);
    let (x, y) = circuit.placement().location(gate);
    let hierarchy = model.hierarchy();
    let sens = [timing.leff_sens_ps, timing.vt_sens_ps];
    let spatial_scale = model.spatial_scale();
    let mut terms = Vec::with_capacity(2 * model.level_weights().len() + 1);
    for (param, s_raw) in Parameter::ALL.into_iter().zip(sens) {
        let s = s_raw * spatial_scale;
        for (level, &w) in model.level_weights().iter().enumerate() {
            let region = hierarchy.region_at(level, x, y);
            terms.push((
                Variable::Region {
                    param,
                    region_flat: hierarchy.flat_index(region),
                },
                s * w,
            ));
        }
    }
    let r = model.random_sigma(&sens);
    if r > 0.0 {
        terms.push((Variable::GateRandom { gate: gate.index() }, r));
    }
    terms
}

/// Standard deviation of a single gate's delay under `model`.
///
/// At the calibrated budget (`random_scale = 1`) this equals
/// `sqrt(s_Leff² + s_Vt²)`; a larger random scale grows it accordingly.
pub fn gate_delay_sigma(circuit: &PlacedCircuit, model: &VariationModel, gate: GateId) -> f64 {
    let t = circuit.gate_timing(gate);
    let total = t.leff_sens_ps * t.leff_sens_ps + t.vt_sens_ps * t.vt_sens_ps;
    let spatial = total * model.spatial_scale().powi(2);
    let random = model.random_sigma(&[t.leff_sens_ps, t.vt_sens_ps]).powi(2);
    (spatial + random).sqrt()
}

/// The assembled linear delay model for one target-path set.
///
/// [`DelayModel::build`] assembles `G`, `Σ` and `A = G·Σ` once, in CSR
/// form: a path touches only its own segments and a segment's gates sit
/// in only a few variation regions, so all three are block-sparse.
/// [`DelayModel::to_dense`] expands the same model into the dense view
/// that the dense factorizations read; `DelayModel` without a type
/// argument names that view.
///
/// All quantities are in ps; the variation vector `x` is standard normal.
#[derive(Debug, Clone)]
pub struct DelayModel<M = Matrix> {
    variables: Vec<Variable>,
    /// Path/segment incidence (`n` × `n_S`, 0/1).
    g: M,
    /// Segment sensitivities (`n_S` × `|x|`).
    sigma: M,
    /// `A = G·Σ` (`n` × `|x|`).
    a: M,
    mu_segments: Vec<f64>,
    mu_paths: Vec<f64>,
    covered_regions: usize,
}

impl DelayModel<SparseMatrix> {
    /// Builds the delay model for `paths` (already decomposed into `dec`)
    /// on `circuit` under `model`.
    ///
    /// # Errors
    ///
    /// * [`VariationError::Inconsistent`] when `paths` and `dec` disagree.
    /// * [`VariationError::Linalg`] on (impossible in practice) shape errors.
    pub fn build(
        circuit: &PlacedCircuit,
        paths: &[Path],
        dec: &SegmentDecomposition,
        model: &VariationModel,
    ) -> Result<Self, VariationError> {
        if paths.len() != dec.path_count() {
            return Err(VariationError::Inconsistent {
                what: "path count differs between paths and decomposition",
            });
        }
        let _span = pathrep_obs::span!("delay_model_build");

        // --- Variable catalog over the covered subcircuit ---
        // Region variables (per parameter) then gate randoms, in
        // covered-gate order, for a stable catalog.
        let hierarchy = model.hierarchy();
        let mut var_index: HashMap<Variable, usize> = HashMap::new();
        let mut variables: Vec<Variable> = Vec::new();
        let mut intern = |v: Variable| {
            var_index.entry(v).or_insert_with(|| {
                variables.push(v);
                variables.len() - 1
            });
        };
        for &g in dec.covered_gates() {
            let (x, y) = circuit.placement().location(g);
            for region in hierarchy.regions_containing(x, y) {
                let region_flat = hierarchy.flat_index(region);
                for param in Parameter::ALL {
                    intern(Variable::Region { param, region_flat });
                }
            }
        }
        for &g in dec.covered_gates() {
            intern(Variable::GateRandom { gate: g.index() });
        }
        // Each covered region contributes one variable per parameter.
        let covered_regions = variables
            .iter()
            .filter(|v| matches!(v, Variable::Region { .. }))
            .count()
            / Parameter::ALL.len();

        // --- Per-gate sensitivity terms, accumulated into segment rows ---
        // `from_triplets` sums duplicates in input order: gate order
        // within the segment, term order within the gate.
        let n_vars = variables.len();
        let n_seg = dec.segment_count();
        let mut mu_segments = vec![0.0; n_seg];
        let mut sigma_terms: Vec<(usize, usize, f64)> = Vec::new();
        for (si, seg) in dec.segments().iter().enumerate() {
            for &g in seg.gates() {
                mu_segments[si] += circuit.nominal_delay(g);
                for (var, coeff) in gate_contribution_terms(circuit, model, g) {
                    sigma_terms.push((si, var_index[&var], coeff));
                }
            }
        }
        let sigma = SparseMatrix::from_triplets(n_seg, n_vars, &sigma_terms)?;

        // --- Incidence and products ---
        let incidence: Vec<(usize, usize, f64)> = (0..paths.len())
            .flat_map(|p| dec.path_segments(p).iter().map(move |&s| (p, s, 1.0)))
            .collect();
        let g = SparseMatrix::from_triplets(paths.len(), n_seg, &incidence)?;
        {
            // Assembly work: one accumulation per (gate, contribution
            // term) while building Σ; the byte model counts the stored
            // entries (16 bytes each: index + value). The G·Σ product and
            // G·µ records come from the spmm/spmv kernels themselves.
            let stored = (sigma.nnz() + g.nnz()) as u64;
            let terms = sigma_terms.len() as u64;
            pathrep_obs::work::record("delay_model_build", 7 * terms, 16 * stored, stored);
            pathrep_obs::counter_add("variation.model.variables", n_vars as u64);
            pathrep_obs::counter_add("variation.model.segments", n_seg as u64);
        }
        let a = g.matmul_sparse(&sigma)?;
        let mu_paths = g.matvec(&mu_segments)?;
        Ok(DelayModel {
            variables,
            g,
            sigma,
            a,
            mu_segments,
            mu_paths,
            covered_regions,
        })
    }

    /// The dense view of this model: `G`, `Σ` and `A` expanded (absent
    /// entries become `+0.0`), catalog and nominal delays unchanged.
    pub fn to_dense(&self) -> DelayModel {
        DelayModel {
            variables: self.variables.clone(),
            g: self.g.to_dense(),
            sigma: self.sigma.to_dense(),
            a: self.a.to_dense(),
            mu_segments: self.mu_segments.clone(),
            mu_paths: self.mu_paths.clone(),
            covered_regions: self.covered_regions,
        }
    }
}

impl<M> DelayModel<M> {
    /// The variable catalog (columns of `Σ` and `A`).
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Dimension of the variation vector `x`.
    pub fn variable_count(&self) -> usize {
        self.variables.len()
    }

    /// Path/segment incidence matrix `G`.
    pub fn g(&self) -> &M {
        &self.g
    }

    /// Segment sensitivity matrix `Σ`.
    pub fn sigma(&self) -> &M {
        &self.sigma
    }

    /// Path sensitivity matrix `A = G·Σ`.
    pub fn a(&self) -> &M {
        &self.a
    }

    /// Nominal segment delays `µ_S`.
    pub fn mu_segments(&self) -> &[f64] {
        &self.mu_segments
    }

    /// Nominal path delays `µ_Ptar = G·µ_S`.
    pub fn mu_paths(&self) -> &[f64] {
        &self.mu_paths
    }

    /// Number of distinct covered regions (the tables' `|R_C|`).
    pub fn covered_region_count(&self) -> usize {
        self.covered_regions
    }
}

impl DelayModel {
    /// Path delays for a realization `x`: `µ + A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::Linalg`] when `x` has the wrong length.
    pub fn path_delays(&self, x: &[f64]) -> Result<Vec<f64>, VariationError> {
        affine(&self.a, &self.mu_paths, x)
    }

    /// Segment delays for a realization `x`: `µ_S + Σ·x`.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::Linalg`] when `x` has the wrong length.
    pub fn segment_delays(&self, x: &[f64]) -> Result<Vec<f64>, VariationError> {
        affine(&self.sigma, &self.mu_segments, x)
    }
}

/// `µ + M·x`.
fn affine(m: &Matrix, mu: &[f64], x: &[f64]) -> Result<Vec<f64>, VariationError> {
    let mut d = m.matvec(x)?;
    for (di, mu) in d.iter_mut().zip(mu) {
        *di += mu;
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathrep_circuit::cell::{CellKind, CellLibrary};
    use pathrep_circuit::netlist::{Netlist, Signal};
    use pathrep_circuit::paths::decompose_into_segments;
    use pathrep_circuit::placement::Placement;

    /// The Figure-1 circuit with all gates placed at one point (so spatial
    /// variables collapse to shared regions).
    fn figure1_model() -> (PlacedCircuit, Vec<Path>, SegmentDecomposition) {
        let mut nl = Netlist::new(2);
        let g1 = nl.add_gate(CellKind::Buf, vec![Signal::Input(0)]).unwrap();
        let g2 = nl.add_gate(CellKind::Buf, vec![Signal::Input(1)]).unwrap();
        let g3 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g1)]).unwrap();
        let g4 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g2)]).unwrap();
        let g5 = nl
            .add_gate(CellKind::Nand2, vec![Signal::Gate(g3), Signal::Gate(g4)])
            .unwrap();
        let g6 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g5)]).unwrap();
        let g7 = nl.add_gate(CellKind::Inv, vec![Signal::Gate(g5)]).unwrap();
        let g8 = nl.add_gate(CellKind::Buf, vec![Signal::Gate(g6)]).unwrap();
        let g9 = nl.add_gate(CellKind::Buf, vec![Signal::Gate(g7)]).unwrap();
        nl.mark_output(g8).unwrap();
        nl.mark_output(g9).unwrap();
        let placement = Placement::new(vec![(0.5, 0.5); 9]);
        let circuit =
            PlacedCircuit::from_parts(nl, placement, CellLibrary::synthetic_90nm());
        let paths = vec![
            Path::new(vec![g1, g3, g5, g7, g9]).unwrap(),
            Path::new(vec![g1, g3, g5, g6, g8]).unwrap(),
            Path::new(vec![g2, g4, g5, g6, g8]).unwrap(),
            Path::new(vec![g2, g4, g5, g7, g9]).unwrap(),
        ];
        let dec = decompose_into_segments(&paths).unwrap();
        (circuit, paths, dec)
    }

    /// The dense view of the Figure-1 model.
    fn figure1_dense() -> (PlacedCircuit, Vec<Path>, SegmentDecomposition, DelayModel) {
        let (c, paths, dec) = figure1_model();
        let dm = DelayModel::build(&c, &paths, &dec, &VariationModel::three_level())
            .unwrap()
            .to_dense();
        (c, paths, dec, dm)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_equals_g_sigma() {
        // The CSR product and G·µ_S reproduce the dense kernels on the
        // dense view bit-for-bit, zero signs included (the proptests
        // check the same on generated circuits).
        let (.., dm) = figure1_dense();
        let gs = dm.g().matmul(dm.sigma()).unwrap();
        assert_eq!(bits(gs.as_slice()), bits(dm.a().as_slice()));
        let mu = dm.g().matvec(dm.mu_segments()).unwrap();
        assert_eq!(bits(&mu), bits(dm.mu_paths()));
    }

    #[test]
    fn variable_accounting_matches_paper_formula() {
        // |x| = 2·(covered regions) + (covered gates).
        let (.., dm) = figure1_dense();
        // All gates at one point ⇒ one region per level ⇒ 3 covered regions.
        assert_eq!(dm.covered_region_count(), 3);
        assert_eq!(dm.variable_count(), 2 * 3 + 9);
    }

    #[test]
    fn nominal_paths_are_gate_delay_sums() {
        let (c, paths, _, dm) = figure1_dense();
        for (p, path) in paths.iter().enumerate() {
            let direct: f64 = path.gates().iter().map(|&g| c.nominal_delay(g)).sum();
            assert!((dm.mu_paths()[p] - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn motivating_identity_holds_for_realizations() {
        // d_p1 = d_p2 − d_p3 + d_p4 for every realization (paper Section 2).
        let (.., dm) = figure1_dense();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let x: Vec<f64> = (0..dm.variable_count())
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect();
            let d = dm.path_delays(&x).unwrap();
            assert!(
                (d[0] - (d[1] - d[2] + d[3])).abs() < 1e-9,
                "identity violated"
            );
        }
    }

    #[test]
    fn path_delay_equals_sum_of_its_segment_delays() {
        let (_, paths, dec, dm) = figure1_dense();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let x: Vec<f64> = (0..dm.variable_count())
            .map(|_| rng.gen_range(-2.0..2.0))
            .collect();
        let dp = dm.path_delays(&x).unwrap();
        let ds = dm.segment_delays(&x).unwrap();
        for (p, &d) in dp.iter().enumerate().take(paths.len()) {
            let via: f64 = dec.path_segments(p).iter().map(|&s| ds[s]).sum();
            assert!((d - via).abs() < 1e-9);
        }
    }

    #[test]
    fn gate_variance_budget_preserved() {
        // A single-gate path: total delay variance must equal Σ sens².
        let mut nl = Netlist::new(1);
        let g = nl.add_gate(CellKind::Nand2, vec![Signal::Input(0), Signal::Input(0)]);
        // Nand2 needs 2 fanins; reuse input 0 twice.
        let g = g.unwrap();
        nl.mark_output(g).unwrap();
        let circuit = PlacedCircuit::from_parts(
            nl,
            Placement::new(vec![(0.25, 0.75)]),
            CellLibrary::synthetic_90nm(),
        );
        let paths = vec![Path::new(vec![g]).unwrap()];
        let dec = decompose_into_segments(&paths).unwrap();
        let model = VariationModel::three_level();
        let dm = DelayModel::build(&circuit, &paths, &dec, &model).unwrap().to_dense();
        // Row of A for the single path: variance = Σ a_j².
        let var: f64 = dm.a().row(0).iter().map(|a| a * a).sum();
        let t = circuit.library().timing(CellKind::Nand2);
        let expected = t.leff_sens_ps.powi(2) + t.vt_sens_ps.powi(2);
        assert!(
            (var - expected).abs() < 1e-9 * expected,
            "variance {var} != {expected}"
        );
    }

    #[test]
    fn inconsistent_inputs_rejected() {
        let (c, paths, dec) = figure1_model();
        let err = DelayModel::build(&c, &paths[..2], &dec, &VariationModel::three_level());
        assert!(matches!(err, Err(VariationError::Inconsistent { .. })));
    }

    #[test]
    fn wrong_x_length_rejected() {
        let (.., dm) = figure1_dense();
        assert!(dm.path_delays(&[0.0; 3]).is_err());
    }
}
