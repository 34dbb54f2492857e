//! ADMM solvers for the `ℓ1/ℓ∞` simultaneous segment-selection program.

use crate::operator::SpanOperator;
use crate::project::{project_rows_into_ball, EllipsoidProjector};
use crate::prox::{group_linf_norm, prox_group_linf};
use crate::ConvoptError;
use pathrep_linalg::cholesky::Cholesky;
use pathrep_linalg::{vecops, Matrix};

/// The program instance.
///
/// Selects columns of `B` (segments) so that `B·d_S` predicts
/// `G_target·d_S` with per-row standard deviation at most `radius`:
/// rows of `(G_target − B)·Σ` must have Euclidean norm ≤ `radius`.
#[derive(Debug, Clone)]
pub struct GroupSelectProblem {
    /// Target incidence rows (`r1` × `n_S`) — the representative paths'
    /// segment memberships `G_r1`.
    pub g_target: Matrix,
    /// Segment sensitivity matrix `Σ_S` (`n_S` × `|x|`).
    pub sigma: Matrix,
    /// Per-row standard-deviation budget (`ε′·T_cons / κ`).
    pub radius: f64,
}

impl GroupSelectProblem {
    /// Validates dimensions and values.
    ///
    /// # Errors
    ///
    /// Returns [`ConvoptError::Shape`] for inconsistent dimensions and
    /// [`ConvoptError::InvalidArgument`] for a non-finite or non-positive
    /// radius or a non-finite entry of `g_target` or `sigma`.
    pub fn validate(&self) -> Result<(), ConvoptError> {
        if self.g_target.ncols() != self.sigma.nrows() {
            return Err(ConvoptError::Shape {
                what: format!(
                    "G_target is {}x{} but Sigma is {}x{}",
                    self.g_target.nrows(),
                    self.g_target.ncols(),
                    self.sigma.nrows(),
                    self.sigma.ncols()
                ),
            });
        }
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(ConvoptError::InvalidArgument {
                what: "radius must be finite and positive",
            });
        }
        if !self.g_target.as_slice().iter().all(|v| v.is_finite()) {
            return Err(ConvoptError::InvalidArgument {
                what: "G_target entries must be finite",
            });
        }
        if !self.sigma.as_slice().iter().all(|v| v.is_finite()) {
            return Err(ConvoptError::InvalidArgument {
                what: "Sigma entries must be finite",
            });
        }
        Ok(())
    }

    /// Worst (largest) row standard deviation achieved by a candidate `B`:
    /// `max_i ‖(g_i − b_i)·Σ‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`ConvoptError::Shape`] when `b` has the wrong shape.
    pub fn worst_row_std(&self, b: &Matrix) -> Result<f64, ConvoptError> {
        if b.shape() != self.g_target.shape() {
            return Err(ConvoptError::Shape {
                what: "B must match G_target's shape".into(),
            });
        }
        let diff = self.g_target.sub(b)?;
        let e = diff.matmul(&self.sigma)?;
        let mut worst = 0.0_f64;
        for i in 0..e.nrows() {
            worst = worst.max(vecops::norm2(e.row(i)));
        }
        Ok(worst)
    }
}

/// Solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmmConfig {
    /// Penalty parameter ρ.
    pub rho: f64,
    /// Iteration budget.
    pub max_iters: usize,
    /// Absolute residual tolerance.
    pub tol_abs: f64,
    /// Relative residual tolerance.
    pub tol_rel: f64,
    /// A column is *selected* when its `ℓ∞` norm exceeds this fraction of
    /// the largest column norm.
    pub selection_threshold: f64,
}

impl AdmmConfig {
    fn validate(&self) -> Result<(), ConvoptError> {
        if !(self.rho.is_finite() && self.rho > 0.0) {
            return Err(ConvoptError::InvalidArgument {
                what: "rho must be finite and positive",
            });
        }
        if !(0.0..1.0).contains(&self.selection_threshold) {
            return Err(ConvoptError::InvalidArgument {
                what: "selection_threshold must lie in [0, 1)",
            });
        }
        Ok(())
    }
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig {
            rho: 1.0,
            max_iters: 200,
            tol_abs: 1e-6,
            tol_rel: 1e-3,
            selection_threshold: 1e-2,
        }
    }
}

/// Solver output.
///
/// The solvers always return their final iterate; `worst_row_std` reports
/// the achieved constraint level so callers can decide whether a
/// not-fully-converged iterate is acceptable (the hybrid selection's
/// step 3/4 re-checks errors downstream either way).
#[derive(Debug, Clone)]
pub struct GroupSelectSolution {
    /// The predictor matrix `B`.
    pub b: Matrix,
    /// Indices of selected (non-zero) columns — the segments to measure.
    pub selected: Vec<usize>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final primal residual (Frobenius).
    pub primal_residual: f64,
    /// Final dual residual (Frobenius).
    pub dual_residual: f64,
    /// Final `ℓ1/ℓ∞` objective value.
    pub objective: f64,
    /// Achieved `max_i ‖(g_i − b_i)Σ‖` (compare against the radius).
    pub worst_row_std: f64,
    /// Whether the stopping criterion was met within the budget.
    pub converged: bool,
    /// Primal residual after each iteration (`len == iterations`).
    pub primal_curve: Vec<f64>,
    /// Dual residual after each iteration (`len == iterations`).
    pub dual_curve: Vec<f64>,
}

/// Appends a `convopt` ledger record with the solver outcome and the full
/// per-iteration residual curves (the histograms only keep final values).
fn record_solution(name: &str, sol: &GroupSelectSolution, radius: f64) {
    if !pathrep_obs::ledger::collecting() {
        return;
    }
    pathrep_obs::ledger::record("convopt", name, |f| {
        f.int("iterations", sol.iterations as u64)
            .flag("converged", sol.converged)
            .num("primal_residual", sol.primal_residual)
            .num("dual_residual", sol.dual_residual)
            .num("objective", sol.objective)
            .num("worst_row_std", sol.worst_row_std)
            .num("radius", radius)
            .int("selected", sol.selected.len() as u64)
            .nums("primal_curve", &sol.primal_curve)
            .nums("dual_curve", &sol.dual_curve);
    });
}

fn select_columns(b: &Matrix, threshold_rel: f64) -> Vec<usize> {
    let mut norms = vec![0.0_f64; b.ncols()];
    for i in 0..b.nrows() {
        for (j, &v) in b.row(i).iter().enumerate() {
            norms[j] = norms[j].max(v.abs());
        }
    }
    let max = norms.iter().fold(0.0_f64, |m, &x| m.max(x));
    if max == 0.0 {
        return Vec::new();
    }
    norms
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > threshold_rel * max)
        .map(|(j, _)| j)
        .collect()
}

/// Largest squared singular value of `Σ` by power iteration (with a safety
/// factor so the linearized step is a strict majorizer).
fn operator_norm_sq(sigma: &Matrix) -> f64 {
    let n = sigma.nrows();
    if n == 0 || sigma.ncols() == 0 {
        return 1.0;
    }
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let mut lam = 1.0;
    for _ in 0..60 {
        let w = sigma.matvec_t(&v).expect("shape");
        let mut nv = sigma.matvec(&w).expect("shape");
        let norm = vecops::norm2(&nv);
        if norm == 0.0 {
            return 1.0;
        }
        vecops::scale(&mut nv, 1.0 / norm);
        lam = norm;
        v = nv;
    }
    lam * 1.02
}

/// Linearized (preconditioned) ADMM: scales to the paper's problem sizes.
///
/// Splitting: `min f(B) + I_ball(E)` subject to `B·Σ + E = C` with
/// `C = G_target·Σ`; the `B`-step linearizes the quadratic coupling, so it
/// reduces to one group-prox per iteration.
///
/// # Errors
///
/// * Validation errors from [`GroupSelectProblem::validate`], and
///   [`ConvoptError::InvalidArgument`] for a `rho` that is not finite and
///   positive or a `selection_threshold` outside `[0, 1)`.
/// * [`ConvoptError::Linalg`] if the Cholesky factor of `ΣΣᵀ` fails.
///
/// Running out of iterations is not an error: the final iterate comes back
/// with `converged: false`.
pub fn solve_linearized_admm(
    problem: &GroupSelectProblem,
    config: &AdmmConfig,
) -> Result<GroupSelectSolution, ConvoptError> {
    let _span = pathrep_obs::span!("admm_linearized");
    problem.validate()?;
    config.validate()?;
    let g = &problem.g_target;
    // The constraint only sees Σ through Q = ΣΣᵀ, so when the variable
    // space is wider than the segment count, replace Σ by a Cholesky
    // factor of Q (n_S × n_S) — identical problem, much cheaper iterations.
    let mut f = if problem.sigma.ncols() > problem.sigma.nrows() {
        let q = problem.sigma.matmul(&problem.sigma.transpose())?;
        let ns = q.nrows();
        let mean_diag = (0..ns).map(|i| q[(i, i)].abs()).sum::<f64>() / ns.max(1) as f64;
        let ch = Cholesky::compute_with_jitter(&q, 1e-12 * mean_diag.max(1e-30), 8)
            .map_err(ConvoptError::Linalg)?;
        ch.l().clone()
    } else {
        problem.sigma.clone()
    };
    // Normalize the operator to unit spectral norm so the linearized prox
    // step is O(1/ρ) regardless of the physical units of Σ (ps). The
    // constraint is invariant: ‖(g−b)Σ‖ ≤ r  ⟺  ‖(g−b)(Σ/s)‖ ≤ r/s.
    let raw_norm = operator_norm_sq(&f).sqrt();
    let scale = if raw_norm > 0.0 { raw_norm } else { 1.0 };
    let inv_scale = 1.0 / scale;
    f.as_mut_slice().iter_mut().for_each(|v| *v *= inv_scale);
    let (r1, ns) = g.shape();
    let nx = f.ncols();
    // Every product below is against this one operator or its transpose,
    // restricted to each row's non-zero span (see `SpanOperator`).
    let sigma = SpanOperator::new(f);
    let radius = problem.radius / scale;
    let c = sigma.apply(g);
    let rho = config.rho;
    let lcap = 1.05; // spectral norm of the normalized operator

    let mut b = Matrix::zeros(r1, ns);
    // B·Σ of the current iterate (B = 0), carried over from each dual update.
    let mut bs = Matrix::zeros(r1, nx);
    let mut e = project_rows_into_ball(&c, None, radius);
    let mut u = Matrix::zeros(r1, nx);
    let mut primal = f64::INFINITY;
    let mut dual = f64::INFINITY;
    let scale_primal = (r1 * nx) as f64;
    let scale_dual = (r1 * ns) as f64;

    // Support-stabilization early stop: once the selected-column set has
    // not changed for `STALL_LIMIT` iterations and the iterate is feasible
    // in the original problem, further iterations only polish coefficients
    // that the downstream refit recomputes anyway.
    const STALL_LIMIT: usize = 25;
    const FEAS_CHECK_EVERY: usize = 10;
    let mut last_support_size = usize::MAX;
    let mut stall = 0usize;
    let mut primal_curve: Vec<f64> = Vec::new();
    let mut dual_curve: Vec<f64> = Vec::new();

    let mut iterations = 0;
    for k in 0..config.max_iters {
        iterations = k + 1;
        // E-step: project rows of (C − BΣ − U) onto the ball.
        let target = c.sub(&bs)?.sub(&u)?;
        let e_new = project_rows_into_ball(&target, None, radius);
        // B-step: linearized prox step.
        let resid = bs.add(&e_new)?.sub(&c)?.add(&u)?;
        let grad = sigma.apply_t(&resid);
        let b_cand = b.sub(&grad.scale(1.0 / lcap))?;
        let b_new = prox_group_linf(&b_cand, 1.0 / (rho * lcap));
        // Dual update.
        let bs_new = sigma.apply(&b_new);
        let r = bs_new.add(&e_new)?.sub(&c)?;
        u = u.add(&r)?;
        // Residuals.
        primal = r.norm_fro() / scale_primal.sqrt();
        dual = rho * sigma.apply_t(&e_new.sub(&e)?).norm_fro() / scale_dual.sqrt();
        pathrep_obs::counter_add("convopt.admm.iterations", 1);
        pathrep_obs::histogram_record("convopt.admm.primal_residual", primal);
        pathrep_obs::histogram_record("convopt.admm.dual_residual", dual);
        primal_curve.push(primal);
        dual_curve.push(dual);
        b = b_new;
        bs = bs_new;
        e = e_new;
        let support_size = select_columns(&b, config.selection_threshold).len();
        if support_size == last_support_size {
            stall += 1;
        } else {
            stall = 0;
            last_support_size = support_size;
        }
        if stall >= STALL_LIMIT && k % FEAS_CHECK_EVERY == 0 {
            let worst = problem.worst_row_std(&b)?;
            if worst <= problem.radius * 1.05 {
                pathrep_obs::info("convopt.admm.support_stall", || {
                    format!(
                        "support stable for {STALL_LIMIT} iterations and feasible \
                         (worst {worst:.3e} <= radius {:.3e}); stopping at iteration {iterations}",
                        problem.radius
                    )
                });
                let objective = group_linf_norm(&b);
                let sol = GroupSelectSolution {
                    selected: select_columns(&b, config.selection_threshold),
                    b,
                    iterations,
                    primal_residual: primal,
                    dual_residual: dual,
                    objective,
                    worst_row_std: worst,
                    converged: true,
                    primal_curve,
                    dual_curve,
                };
                record_solution("admm_linearized", &sol, problem.radius);
                return Ok(sol);
            }
        }
        let eps_primal = config.tol_abs
            + config.tol_rel * (bs.norm_fro().max(c.norm_fro())) / scale_primal.sqrt();
        let eps_dual = config.tol_abs + config.tol_rel * u.norm_fro() * rho / scale_dual.sqrt();
        if primal < eps_primal && dual < eps_dual {
            let worst = problem.worst_row_std(&b)?;
            let objective = group_linf_norm(&b);
            let sol = GroupSelectSolution {
                selected: select_columns(&b, config.selection_threshold),
                b,
                iterations,
                primal_residual: primal,
                dual_residual: dual,
                objective,
                worst_row_std: worst,
                converged: true,
                primal_curve,
                dual_curve,
            };
            record_solution("admm_linearized", &sol, problem.radius);
            return Ok(sol);
        }
    }
    let worst = problem.worst_row_std(&b)?;
    let objective = group_linf_norm(&b);
    pathrep_obs::warn("convopt.admm.unconverged", || {
        format!(
            "linearized ADMM exhausted {iterations} iterations \
             (primal {primal:.3e}, dual {dual:.3e}, worst {worst:.3e}, radius {:.3e})",
            problem.radius
        )
    });
    let sol = GroupSelectSolution {
        selected: select_columns(&b, config.selection_threshold),
        b,
        iterations,
        primal_residual: primal,
        dual_residual: dual,
        objective,
        worst_row_std: worst,
        converged: false,
        primal_curve,
        dual_curve,
    };
    record_solution("admm_linearized", &sol, problem.radius);
    Ok(sol)
}

/// Classic two-block ADMM with exact per-row ellipsoid projections.
///
/// Splitting: `min f(B) + Σ_i I_{C_i}(z_i)` subject to `B = Z`, where
/// `C_i = { z : ‖(g_i − z)·Σ‖ ≤ radius }` is an ellipsoid centered at the
/// row `g_i`. The projection uses one eigendecomposition of `Σ·Σᵀ`
/// (`n_S × n_S`) shared by every row and iteration — exact but cubic in
/// `n_S`, so best for small and mid-size problems and as a reference for
/// the linearized solver.
///
/// # Errors
///
/// * Validation errors from [`GroupSelectProblem::validate`], and
///   [`ConvoptError::InvalidArgument`] for a `rho` that is not finite and
///   positive or a `selection_threshold` outside `[0, 1)`.
/// * [`ConvoptError::Linalg`] if the eigendecomposition of `ΣΣᵀ` fails.
///
/// Running out of iterations is not an error: the final iterate comes back
/// with `converged: false`.
pub fn solve_ellipsoid_admm(
    problem: &GroupSelectProblem,
    config: &AdmmConfig,
) -> Result<GroupSelectSolution, ConvoptError> {
    let _span = pathrep_obs::span!("admm_ellipsoid");
    problem.validate()?;
    config.validate()?;
    let g = &problem.g_target;
    let sigma = &problem.sigma;
    let (r1, ns) = g.shape();
    let q = sigma.matmul(&sigma.transpose())?;
    let projector = EllipsoidProjector::new(&q, problem.radius)?;

    let mut b;
    let mut z = g.clone(); // feasible start: B = G ⇒ zero error
    let mut u = Matrix::zeros(r1, ns);
    let mut primal;
    let mut dual;
    let scale = (r1 * ns) as f64;
    let mut primal_curve: Vec<f64> = Vec::new();
    let mut dual_curve: Vec<f64> = Vec::new();

    let mut iterations = 0;
    loop {
        iterations += 1;
        // B-step: group prox of (Z − U).
        let b_new = prox_group_linf(&z.sub(&u)?, 1.0 / config.rho);
        // Z-step: row-wise ellipsoid projection of (B + U) about g_i. Rows
        // are independent, so blocks fan out over the `pathrep-par` pool
        // with bit-identical results at any thread count. A row's work is
        // dominated by the two `ns`-square eigenbasis products.
        let t = b_new.add(&u)?;
        let mut z_new = Matrix::zeros(r1, ns);
        pathrep_par::for_each_unit_chunk_mut(z_new.as_mut_slice(), ns, 4 * ns * ns, |first, block| {
            for (di, zrow) in block.chunks_exact_mut(ns).enumerate() {
                let i = first + di;
                zrow.copy_from_slice(&projector.project(t.row(i), g.row(i)));
            }
        });
        // Dual update and residuals.
        let r = b_new.sub(&z_new)?;
        u = u.add(&r)?;
        primal = r.norm_fro() / scale.sqrt();
        dual = config.rho * z_new.sub(&z)?.norm_fro() / scale.sqrt();
        pathrep_obs::counter_add("convopt.admm.iterations", 1);
        pathrep_obs::histogram_record("convopt.admm.primal_residual", primal);
        pathrep_obs::histogram_record("convopt.admm.dual_residual", dual);
        primal_curve.push(primal);
        dual_curve.push(dual);
        b = b_new;
        z = z_new;
        let eps_primal = config.tol_abs + config.tol_rel * b.norm_fro().max(z.norm_fro()) / scale.sqrt();
        let eps_dual = config.tol_abs + config.tol_rel * config.rho * u.norm_fro() / scale.sqrt();
        if (primal < eps_primal && dual < eps_dual) || iterations >= config.max_iters.max(1) {
            break;
        }
    }
    // Z is feasible by construction; report it as the solution.
    let worst = problem.worst_row_std(&z)?;
    let converged = iterations < config.max_iters.max(1);
    if !converged {
        pathrep_obs::warn("convopt.admm.unconverged", || {
            format!(
                "ellipsoid ADMM exhausted {iterations} iterations \
                 (primal {primal:.3e}, dual {dual:.3e}, worst {worst:.3e})"
            )
        });
    }
    let objective = group_linf_norm(&z);
    let sol = GroupSelectSolution {
        selected: select_columns(&z, config.selection_threshold),
        b: z,
        iterations,
        primal_residual: primal,
        dual_residual: dual,
        objective,
        worst_row_std: worst,
        converged,
        primal_curve,
        dual_curve,
    };
    record_solution("admm_ellipsoid", &sol, problem.radius);
    Ok(sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A toy instance: 3 paths over 4 segments where segment 3 is unused by
    /// the targets, and generous radius allows dropping weak segments.
    fn toy_problem(radius: f64) -> GroupSelectProblem {
        // Paths: p0 = s0+s1, p1 = s0+s2, p2 = s1+s2.
        let g = Matrix::from_rows(&[
            &[1.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 1.0, 0.0],
        ])
        .unwrap();
        // Segment sensitivities: s0, s1 strong; s2 weak; s3 depends only on
        // a variable no target path touches, so selecting it can only add
        // variance — truly irrelevant.
        let sigma = Matrix::from_rows(&[
            &[4.0, 0.0, 0.0, 0.0],
            &[0.0, 4.0, 0.0, 0.0],
            &[0.0, 0.0, 0.5, 0.0],
            &[0.0, 0.0, 0.0, 2.0],
        ])
        .unwrap();
        GroupSelectProblem {
            g_target: g,
            sigma,
            radius,
        }
    }

    #[test]
    fn validate_catches_shape_and_radius() {
        let mut p = toy_problem(1.0);
        assert!(p.validate().is_ok());
        p.radius = 0.0;
        assert!(p.validate().is_err());
        let bad = GroupSelectProblem {
            g_target: Matrix::zeros(2, 3),
            sigma: Matrix::zeros(4, 2),
            radius: 1.0,
        };
        assert!(bad.validate().is_err());
    }

    /// Both solvers must refuse `p` under `config` with `InvalidArgument`.
    fn assert_both_reject(p: &GroupSelectProblem, config: &AdmmConfig) {
        for result in [
            solve_linearized_admm(p, config),
            solve_ellipsoid_admm(p, config),
        ] {
            assert!(
                matches!(result, Err(ConvoptError::InvalidArgument { .. })),
                "accepted {config:?} with radius {}",
                p.radius
            );
        }
    }

    #[test]
    fn solvers_reject_non_finite_or_non_positive_radius() {
        for radius in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            assert_both_reject(&toy_problem(radius), &AdmmConfig::default());
        }
    }

    #[test]
    fn solvers_reject_non_finite_problem_entries() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut p = toy_problem(1.0);
            p.g_target[(1, 2)] = bad;
            assert_both_reject(&p, &AdmmConfig::default());
            let mut p = toy_problem(1.0);
            p.sigma[(2, 2)] = bad;
            assert_both_reject(&p, &AdmmConfig::default());
        }
    }

    #[test]
    fn solvers_reject_non_finite_or_non_positive_rho() {
        for rho in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let config = AdmmConfig {
                rho,
                ..AdmmConfig::default()
            };
            assert_both_reject(&toy_problem(1.0), &config);
        }
    }

    #[test]
    fn solvers_reject_selection_threshold_outside_unit_interval() {
        for selection_threshold in [-0.1, 1.0, 2.0, f64::NAN] {
            let config = AdmmConfig {
                selection_threshold,
                ..AdmmConfig::default()
            };
            assert_both_reject(&toy_problem(1.0), &config);
        }
    }

    #[test]
    fn tight_radius_recovers_strong_segments() {
        // radius below the weak segment's σ (0.5): s2 may be dropped but
        // s0, s1 must be kept.
        let p = toy_problem(0.6);
        let sol = solve_linearized_admm(&p, &AdmmConfig::default()).unwrap();
        assert!(p.worst_row_std(&sol.b).unwrap() <= 0.6 * 1.05);
        assert!(sol.selected.contains(&0), "strong segment 0 dropped");
        assert!(sol.selected.contains(&1), "strong segment 1 dropped");
        assert!(!sol.selected.contains(&3), "irrelevant segment selected");
        // The weak segment should not be needed.
        assert!(!sol.selected.contains(&2), "weak segment kept unnecessarily");
    }

    #[test]
    fn huge_radius_selects_nothing() {
        let p = toy_problem(100.0);
        let sol = solve_linearized_admm(&p, &AdmmConfig::default()).unwrap();
        assert!(sol.selected.is_empty(), "selected {:?}", sol.selected);
        assert!(sol.objective < 1e-6);
    }

    #[test]
    fn objective_no_worse_than_trivial_feasible_point() {
        // B = G_target is always feasible; the optimum must cost no more.
        let p = toy_problem(0.6);
        let trivial = group_linf_norm(&p.g_target);
        let sol = solve_linearized_admm(&p, &AdmmConfig::default()).unwrap();
        assert!(
            sol.objective <= trivial + 1e-6,
            "objective {} worse than trivial {}",
            sol.objective,
            trivial
        );
    }

    #[test]
    fn ellipsoid_solution_is_feasible_and_consistent() {
        let p = toy_problem(0.6);
        let sol = solve_ellipsoid_admm(&p, &AdmmConfig::default()).unwrap();
        assert!(p.worst_row_std(&sol.b).unwrap() <= 0.6 * (1.0 + 1e-6));
        assert!(sol.selected.contains(&0));
        assert!(sol.selected.contains(&1));
    }

    #[test]
    fn solvers_agree_on_objective() {
        let p = toy_problem(0.8);
        let a = solve_linearized_admm(&p, &AdmmConfig::default()).unwrap();
        let b = solve_ellipsoid_admm(
            &p,
            &AdmmConfig {
                max_iters: 2000,
                ..AdmmConfig::default()
            },
        )
        .unwrap();
        assert!(
            (a.objective - b.objective).abs() < 0.1 * a.objective.max(0.1),
            "linearized {} vs ellipsoid {}",
            a.objective,
            b.objective
        );
    }

    #[test]
    fn random_problem_feasible_solution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let g = Matrix::from_fn(6, 10, |_, _| if rng.gen_bool(0.3) { 1.0 } else { 0.0 });
        let sigma = Matrix::from_fn(10, 8, |_, _| rng.gen_range(0.0..2.0));
        let trivially_feasible_radius = 2.0;
        let p = GroupSelectProblem {
            g_target: g,
            sigma,
            radius: trivially_feasible_radius,
        };
        let sol = solve_linearized_admm(&p, &AdmmConfig::default()).unwrap();
        assert!(p.worst_row_std(&sol.b).unwrap() <= p.radius * 1.05);
        // Selecting fewer columns than segments exist.
        assert!(sol.selected.len() <= 10);
    }

    #[test]
    fn residual_curves_are_finite_and_monotone_ish() {
        let p = toy_problem(0.6);
        let sols = [
            solve_linearized_admm(&p, &AdmmConfig::default()).unwrap(),
            solve_ellipsoid_admm(&p, &AdmmConfig::default()).unwrap(),
        ];
        for sol in &sols {
            assert_eq!(sol.primal_curve.len(), sol.iterations);
            assert_eq!(sol.dual_curve.len(), sol.iterations);
            assert!(
                sol.primal_curve
                    .iter()
                    .chain(&sol.dual_curve)
                    .all(|v| v.is_finite()),
                "NaN/Inf in residual curves"
            );
            assert_eq!(sol.primal_curve.last().copied(), Some(sol.primal_residual));
            assert_eq!(sol.dual_curve.last().copied(), Some(sol.dual_residual));
            // Monotone-ish: ADMM residuals oscillate locally, but over the
            // run the tail must sit well below the head.
            if sol.iterations >= 8 {
                let q = sol.iterations / 4;
                let head: f64 = sol.primal_curve[..q].iter().sum::<f64>() / q as f64;
                let tail: f64 =
                    sol.primal_curve[sol.iterations - q..].iter().sum::<f64>() / q as f64;
                assert!(
                    tail <= head,
                    "primal residual grew: head avg {head:.3e}, tail avg {tail:.3e}"
                );
            }
        }
    }

    #[test]
    fn shrinking_radius_grows_selection() {
        let sizes: Vec<usize> = [5.0, 1.0, 0.3]
            .iter()
            .map(|&r| {
                let p = toy_problem(r);
                solve_linearized_admm(&p, &AdmmConfig::default())
                    .unwrap()
                    .selected
                    .len()
            })
            .collect();
        assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2], "{sizes:?}");
    }
}
