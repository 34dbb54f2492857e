//! Algorithm 3: hybrid path/segment selection.
//!
//! 1. Select representative paths `P_r1` exactly (zero error).
//! 2. Select representative segments `S_r1` that model `d_Pr1` within a
//!    tighter tolerance `ε′ < ε` — the convex `ℓ1/ℓ∞` program (Eqn 10)
//!    solved by `pathrep-convopt`.
//! 3. Model the whole target set from `d_Sr1`; collect, all at once, the
//!    paths `P_r2` whose worst-case prediction error exceeds `ε`.
//! 4. Measure `S_r1 ∪ P_r2` jointly and predict the rest; while some
//!    path's error still exceeds `ε`, add the worst-predicted one to `P_r2`.
//!
//! Steps 3–4 run the conditioning kernel of [`crate::predictor`], and the
//! joint Theorem-2 predictor is built from that same kernel, at the end.
//! No recorded run adds a path in Steps 3–4: `|P_r| = 0` on all 10 full
//! Table 2 rows, the 3 `--fast` rows and the 6 random-scale rows
//! (`results/`).
//!
//! Since the design-stage selection can be parallelized, the paper sweeps
//! `ε′` and keeps the candidate minimizing `|P_r| + |S_r|`;
//! [`hybrid_select_sweep`] does the same.

use crate::exact::exact_select_with;
use crate::factors::ModelFactors;
use crate::predictor::{Columns, Conditioning, MeasurementPredictor};
use crate::select::Selection;
use crate::CoreError;
use pathrep_convopt::{solve_linearized_admm, AdmmConfig, GroupSelectProblem, GroupSelectSolution};
use pathrep_linalg::Matrix;

/// Convergence statistics of the Step-2 ADMM segment-selection solve,
/// surfaced so callers can audit a selection whose convex program stopped
/// on the iteration budget rather than the residual test.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmStats {
    /// Iterations performed by the solver.
    pub iterations: usize,
    /// Whether the stopping criterion was met within the budget.
    pub converged: bool,
    /// Final primal residual (Frobenius, normalized).
    pub primal_residual: f64,
    /// Final dual residual (Frobenius, normalized).
    pub dual_residual: f64,
    /// Final `ℓ1/ℓ∞` objective value.
    pub objective: f64,
    /// Achieved `max_i ‖(g_i − b_i)Σ‖` against the ε′ radius.
    pub worst_row_std: f64,
}

impl From<&GroupSelectSolution> for AdmmStats {
    fn from(sol: &GroupSelectSolution) -> Self {
        AdmmStats {
            iterations: sol.iterations,
            converged: sol.converged,
            primal_residual: sol.primal_residual,
            dual_residual: sol.dual_residual,
            objective: sol.objective,
            worst_row_std: sol.worst_row_std,
        }
    }
}

/// Configuration for Algorithm 3.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Overall error tolerance ε (fraction of `T_cons`).
    pub epsilon: f64,
    /// Segment-model tolerance ε′ (must be < ε).
    pub epsilon_prime: f64,
    /// Timing constraint `T_cons` (ps).
    pub t_cons: f64,
    /// Worst-case multiplier κ.
    pub kappa: f64,
    /// Convex-solver configuration.
    pub admm: AdmmConfig,
}

impl HybridConfig {
    /// Paper-style defaults (κ = 3).
    pub fn new(epsilon: f64, epsilon_prime: f64, t_cons: f64) -> Self {
        HybridConfig {
            epsilon,
            epsilon_prime,
            t_cons,
            kappa: crate::predictor::DEFAULT_KAPPA,
            admm: AdmmConfig::default(),
        }
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(self.epsilon > 0.0 && self.epsilon_prime > 0.0) {
            return Err(CoreError::InvalidArgument {
                what: "epsilon and epsilon_prime must be positive".into(),
            });
        }
        if self.epsilon_prime >= self.epsilon {
            return Err(CoreError::InvalidArgument {
                what: "epsilon_prime must be strictly below epsilon".into(),
            });
        }
        if !(self.t_cons > 0.0 && self.kappa > 0.0) {
            return Err(CoreError::InvalidArgument {
                what: "t_cons and kappa must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Result of hybrid selection. Post-silicon, the measurement vector is the
/// selected segment delays followed by the selected path delays, in the
/// stored index order.
#[derive(Debug, Clone)]
pub struct HybridSelection {
    /// Selected segment indices (`S_r`).
    pub segments: Vec<usize>,
    /// Selected (directly measured) path indices (`P_r`).
    pub paths: Vec<usize>,
    /// The remaining target-path indices, predicted by [`predictor`].
    ///
    /// [`predictor`]: HybridSelection::predictor
    pub remaining: Vec<usize>,
    /// Joint predictor: input `[d_Sr ; d_Pr]`, output `d` of `remaining`.
    pub predictor: MeasurementPredictor,
    /// Achieved worst-case error ε_r.
    pub epsilon_r: f64,
    /// Size of the exact path selection of Step 1 (`|P_r1| = rank(A)`).
    pub exact_size: usize,
    /// The ε′ used (useful when returned from a sweep).
    pub epsilon_prime: f64,
    /// Convergence statistics of the Step-2 segment-selection ADMM solve.
    pub admm_stats: AdmmStats,
}

impl HybridSelection {
    /// Total number of post-silicon measurements `|P_r| + |S_r|`.
    pub fn measurement_count(&self) -> usize {
        self.segments.len() + self.paths.len()
    }
}

/// The delay-model pieces Algorithm 3 consumes (all from
/// `pathrep_variation::DelayModel`, passed explicitly so this crate stays
/// decoupled from circuit construction).
#[derive(Debug, Clone)]
pub struct HybridInputs<'a> {
    /// Path/segment incidence `G` (n × n_S).
    pub g: &'a Matrix,
    /// Segment sensitivities `Σ` (n_S × |x|).
    pub sigma: &'a Matrix,
    /// Path sensitivities `A = G·Σ` (n × |x|).
    pub a: &'a Matrix,
    /// Nominal segment delays.
    pub mu_segments: &'a [f64],
    /// Nominal path delays.
    pub mu_paths: &'a [f64],
}

/// Runs Algorithm 3 for one ε′.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for inconsistent inputs or config.
/// * [`CoreError::Convopt`] if the segment-selection program fails.
/// * [`CoreError::Linalg`] on factorization failure.
pub fn hybrid_select(
    inputs: &HybridInputs<'_>,
    config: &HybridConfig,
) -> Result<HybridSelection, CoreError> {
    let factors = ModelFactors::compute(inputs.a)?;
    hybrid_select_with(inputs, config, &factors)
}

/// [`hybrid_select`] with precomputed factorizations of `A`.
///
/// # Errors
///
/// Same as [`hybrid_select`].
pub fn hybrid_select_with(
    inputs: &HybridInputs<'_>,
    config: &HybridConfig,
    factors: &ModelFactors,
) -> Result<HybridSelection, CoreError> {
    let exact = select_exact_paths(inputs, config, factors)?;
    select_from_exact(inputs, config, &exact)
}

/// Step 1: exact path selection `P_r1` (zero error), after checking the
/// config and the input shapes. `P_r1` does not depend on ε′.
fn select_exact_paths(
    inputs: &HybridInputs<'_>,
    config: &HybridConfig,
    factors: &ModelFactors,
) -> Result<Selection, CoreError> {
    config.validate()?;
    let n = inputs.a.nrows();
    if inputs.g.nrows() != n
        || inputs.mu_paths.len() != n
        || inputs.g.ncols() != inputs.sigma.nrows()
        || inputs.mu_segments.len() != inputs.sigma.nrows()
    {
        return Err(CoreError::InvalidArgument {
            what: "inconsistent hybrid input dimensions".into(),
        });
    }
    exact_select_with(inputs.a, inputs.mu_paths, config.kappa, factors)
}

/// Steps 2–4 of Algorithm 3 for one ε′, given Step 1's `exact`.
fn select_from_exact(
    inputs: &HybridInputs<'_>,
    config: &HybridConfig,
    exact: &Selection,
) -> Result<HybridSelection, CoreError> {
    let _span = pathrep_obs::span!("hybrid_select");

    // --- Step 2: segment selection for the representative paths ---
    let problem = GroupSelectProblem {
        g_target: inputs.g.select_rows(&exact.selected),
        sigma: inputs.sigma.clone(),
        radius: config.epsilon_prime * config.t_cons / config.kappa,
    };
    let solution = solve_linearized_admm(&problem, &config.admm)?;
    let admm_stats = AdmmStats::from(&solution);
    if !admm_stats.converged {
        pathrep_obs::warn("core.hybrid.admm_unconverged", || {
            format!(
                "segment-selection ADMM stopped on the {}-iteration budget \
                 (primal {:.3e}, dual {:.3e}, worst {:.3e} vs radius {:.3e}); \
                 downstream error checks still apply",
                admm_stats.iterations,
                admm_stats.primal_residual,
                admm_stats.dual_residual,
                admm_stats.worst_row_std,
                problem.radius
            )
        });
    }
    let segments = solution.selected;

    // --- Steps 3–4: condition every target path on the segments ---
    let n = inputs.a.nrows();
    let seg_sens = inputs.sigma.select_rows(&segments);
    let budget = (config.epsilon * config.t_cons / config.kappa).powi(2);
    let columns = Columns::Rows {
        targets: inputs.a,
        extra: &seg_sens,
    };
    let mut kernel = Conditioning::new(columns, 0.0)?;
    // Step 3: measure every path the segments leave over budget, at once.
    let mut paths = kernel.over_budget(budget);
    kernel.condition(&paths)?;
    // Step 4: measure the worst-predicted path until none is over budget.
    let repair = kernel.greedy(budget)?;
    let repair_iterations = repair.len();
    paths.extend(repair);
    paths.sort_unstable();

    // The joint predictor reads `[d_Sr ; d_Pr]`; row n + s of the kernel's
    // `M` is segment `segments[s]`.
    let measured: Vec<usize> = (n..n + segments.len()).chain(paths.iter().copied()).collect();
    let mu: Vec<f64> = (inputs.mu_paths.iter().copied())
        .chain(segments.iter().map(|&s| inputs.mu_segments[s]))
        .collect();
    let (predictor, remaining) = kernel.predictor(&measured, &mu, config.kappa);
    let epsilon_r = predictor.epsilon(config.t_cons);

    pathrep_obs::counter_add("core.hybrid.selections", 1);
    pathrep_obs::counter_add("core.hybrid.segments_selected", segments.len() as u64);
    pathrep_obs::counter_add("core.hybrid.paths_selected", paths.len() as u64);
    pathrep_obs::counter_add("core.hybrid.repair_iterations", repair_iterations as u64);
    pathrep_obs::gauge_set("core.hybrid.epsilon_r", epsilon_r);
    pathrep_obs::ledger::record("core", "hybrid_select", |f| {
        f.int("segments", segments.len() as u64)
            .int("paths", paths.len() as u64)
            .int("remaining", remaining.len() as u64)
            .int("exact_size", exact.rank as u64)
            .int("repair_iterations", repair_iterations as u64)
            .num("epsilon_r", epsilon_r)
            .num("epsilon", config.epsilon)
            .num("epsilon_prime", config.epsilon_prime)
            .flag("admm_converged", admm_stats.converged);
    });
    Ok(HybridSelection {
        segments,
        paths,
        remaining,
        predictor,
        epsilon_r,
        exact_size: exact.rank,
        epsilon_prime: config.epsilon_prime,
        admm_stats,
    })
}

/// Sweeps ε′ candidates (all strictly below ε) and returns the selection
/// with the fewest total measurements; ties break toward the smaller
/// achieved error. Step 1 does not depend on ε′ and runs once.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] when no candidate is valid.
/// * First solver error if every candidate fails.
pub fn hybrid_select_sweep(
    inputs: &HybridInputs<'_>,
    base: &HybridConfig,
    eps_prime_candidates: &[f64],
) -> Result<HybridSelection, CoreError> {
    let factors = ModelFactors::compute(inputs.a)?;
    hybrid_select_sweep_with(inputs, base, eps_prime_candidates, &factors)
}

/// [`hybrid_select_sweep`] with precomputed factorizations of `A`.
///
/// # Errors
///
/// Same as [`hybrid_select_sweep`].
pub fn hybrid_select_sweep_with(
    inputs: &HybridInputs<'_>,
    base: &HybridConfig,
    eps_prime_candidates: &[f64],
    factors: &ModelFactors,
) -> Result<HybridSelection, CoreError> {
    let _span = pathrep_obs::span!("hybrid_sweep");
    let mut configs = eps_prime_candidates
        .iter()
        .filter(|&&ep| ep > 0.0 && ep < base.epsilon)
        .map(|&ep| HybridConfig {
            epsilon_prime: ep,
            ..base.clone()
        });
    let Some(first) = configs.next() else {
        return Err(CoreError::InvalidArgument {
            what: "no valid epsilon_prime candidate (need 0 < eps' < eps)".into(),
        });
    };
    let exact = select_exact_paths(inputs, &first, factors)?;
    let mut best: Option<HybridSelection> = None;
    let mut first_err: Option<CoreError> = None;
    for config in std::iter::once(first).chain(configs) {
        match select_from_exact(inputs, &config, &exact) {
            Ok(sol) => {
                let key = |s: &HybridSelection| (s.measurement_count(), s.epsilon_r);
                if best.as_ref().is_none_or(|b| key(&sol) < key(b)) {
                    best = Some(sol);
                }
            }
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    best.ok_or_else(|| first_err.expect("every candidate either succeeds or fails"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Figure-1-like model: 4 paths over 4 segments, 9 gate variables.
    pub(crate) struct Toy {
        g: Matrix,
        sigma: Matrix,
        a: Matrix,
        mu_seg: Vec<f64>,
        mu_paths: Vec<f64>,
    }

    impl Toy {
        pub(crate) fn new() -> Self {
            let g = Matrix::from_rows(&[
                &[1.0, 0.0, 1.0, 0.0],
                &[1.0, 0.0, 0.0, 1.0],
                &[0.0, 1.0, 0.0, 1.0],
                &[0.0, 1.0, 1.0, 0.0],
            ])
            .unwrap();
            // Segments: A=[g0,g2], B=[g1,g3], C=[g4,g6,g8], D=[g4,g5,g7].
            let seg = |gates: &[usize], w: f64| {
                let mut row = vec![0.0; 9];
                for &gt in gates {
                    row[gt] = w;
                }
                row
            };
            let srows = [
                seg(&[0, 2], 3.0),
                seg(&[1, 3], 3.0),
                seg(&[4, 6, 8], 2.0),
                seg(&[4, 5, 7], 2.0),
            ];
            let sigma = Matrix::from_rows(&[&srows[0], &srows[1], &srows[2], &srows[3]]).unwrap();
            let a = g.matmul(&sigma).unwrap();
            let mu_seg = vec![50.0, 52.0, 70.0, 71.0];
            let mu_paths = g.matvec(&mu_seg).unwrap();
            Toy {
                g,
                sigma,
                a,
                mu_seg,
                mu_paths,
            }
        }

        pub(crate) fn inputs(&self) -> HybridInputs<'_> {
            HybridInputs {
                g: &self.g,
                sigma: &self.sigma,
                a: &self.a,
                mu_segments: &self.mu_seg,
                mu_paths: &self.mu_paths,
            }
        }
    }

    #[test]
    fn hybrid_meets_tolerance() {
        let toy = Toy::new();
        let inputs = toy.inputs();
        let cfg = HybridConfig::new(0.08, 0.04, 130.0);
        let sol = hybrid_select(&inputs, &cfg).unwrap();
        assert!(sol.epsilon_r <= 0.08 + 1e-9);
        assert!(sol.measurement_count() >= 1);
        assert_eq!(
            sol.remaining.len() + sol.paths.len(),
            4,
            "every path is measured or predicted"
        );
    }

    #[test]
    fn zero_like_tolerance_measures_enough_for_exactness() {
        let toy = Toy::new();
        let inputs = toy.inputs();
        // Tiny ε: the repair loop must end with ε_r ≤ ε by measuring paths
        // directly (or everything).
        let cfg = HybridConfig::new(1e-6, 5e-7, 130.0);
        let sol = hybrid_select(&inputs, &cfg).unwrap();
        assert!(sol.epsilon_r <= 1e-6 + 1e-12 || sol.remaining.is_empty());
    }

    #[test]
    fn joint_predictor_uses_segments_then_paths() {
        let toy = Toy::new();
        let inputs = toy.inputs();
        let cfg = HybridConfig::new(0.08, 0.02, 130.0);
        let sol = hybrid_select(&inputs, &cfg).unwrap();
        assert_eq!(sol.predictor.measurement_count(), sol.measurement_count());
    }

    #[test]
    fn sweep_picks_cheapest() {
        let toy = Toy::new();
        let inputs = toy.inputs();
        let base = HybridConfig::new(0.08, 0.04, 130.0);
        let sweep = hybrid_select_sweep(&inputs, &base, &[0.01, 0.02, 0.04, 0.06]).unwrap();
        for &ep in &[0.01, 0.02, 0.04, 0.06] {
            let cfg = HybridConfig::new(0.08, ep, 130.0);
            let sol = hybrid_select(&inputs, &cfg).unwrap();
            assert!(sweep.measurement_count() <= sol.measurement_count());
        }
    }

    #[test]
    fn sweep_rejects_empty_candidates() {
        let toy = Toy::new();
        let inputs = toy.inputs();
        let base = HybridConfig::new(0.08, 0.04, 130.0);
        assert!(hybrid_select_sweep(&inputs, &base, &[0.5]).is_err());
    }

    #[test]
    fn config_validation() {
        let toy = Toy::new();
        let inputs = toy.inputs();
        // ε′ ≥ ε rejected.
        let bad = HybridConfig::new(0.05, 0.05, 130.0);
        assert!(hybrid_select(&inputs, &bad).is_err());
    }
}
