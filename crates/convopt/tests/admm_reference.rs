//! Bit-identity of `solve_linearized_admm` against a reference copy of its
//! plain loop: one full `matmul` for `B·Σ` and a fresh `Σᵀ` for each
//! transposed product, every iteration. The solver's span-restricted
//! operator, reused `B·Σ` and hoisted `Σᵀ` must reproduce every output bit
//! for bit, on every exit path and at any worker count.

use pathrep_convopt::project::project_rows_into_ball;
use pathrep_convopt::prox::{group_linf_norm, prox_group_linf};
use pathrep_convopt::{solve_linearized_admm, AdmmConfig, GroupSelectProblem, GroupSelectSolution};
use pathrep_linalg::cholesky::Cholesky;
use pathrep_linalg::{vecops, Matrix};
use std::sync::Mutex;

/// The worker count is process-global; serialize.
static LOCK: Mutex<()> = Mutex::new(());

#[derive(Debug, Clone, Copy, PartialEq)]
enum Exit {
    SupportStall,
    ResidualTolerance,
    IterationCap,
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

/// The linearized ADMM with plain per-iteration products, and which exit
/// it took.
fn reference(problem: &GroupSelectProblem, config: &AdmmConfig) -> (GroupSelectSolution, Exit) {
    let g = &problem.g_target;
    let compressed;
    let sigma_eff: &Matrix = if problem.sigma.ncols() > problem.sigma.nrows() {
        let q = problem.sigma.matmul(&problem.sigma.transpose()).unwrap();
        let ns = q.nrows();
        let mean_diag = (0..ns).map(|i| q[(i, i)].abs()).sum::<f64>() / ns.max(1) as f64;
        let ch = Cholesky::compute_with_jitter(&q, 1e-12 * mean_diag.max(1e-30), 8).unwrap();
        compressed = ch.l().clone();
        &compressed
    } else {
        &problem.sigma
    };
    let raw_norm = operator_norm_sq(sigma_eff).sqrt();
    let scale = if raw_norm > 0.0 { raw_norm } else { 1.0 };
    let sigma = &sigma_eff.scale(1.0 / scale);
    let radius = problem.radius / scale;
    let c = g.matmul(sigma).unwrap();
    let (r1, ns) = g.shape();
    let nx = sigma.ncols();
    let rho = config.rho;
    let lcap = 1.05;

    let mut b = Matrix::zeros(r1, ns);
    let mut e = project_rows_into_ball(&c, None, radius);
    let mut u = Matrix::zeros(r1, nx);
    let mut primal = f64::INFINITY;
    let mut dual = f64::INFINITY;
    let scale_primal = (r1 * nx) as f64;
    let scale_dual = (r1 * ns) as f64;

    const STALL_LIMIT: usize = 25;
    const FEAS_CHECK_EVERY: usize = 10;
    let mut last_support_size = usize::MAX;
    let mut stall = 0usize;
    let mut primal_curve: Vec<f64> = Vec::new();
    let mut dual_curve: Vec<f64> = Vec::new();

    let mut iterations = 0;
    let mut exit = Exit::IterationCap;
    for k in 0..config.max_iters {
        iterations = k + 1;
        let bs = b.matmul(sigma).unwrap();
        let target = c.sub(&bs).unwrap().sub(&u).unwrap();
        let e_new = project_rows_into_ball(&target, None, radius);
        let resid = bs.add(&e_new).unwrap().sub(&c).unwrap().add(&u).unwrap();
        let grad = resid.matmul(&sigma.transpose()).unwrap();
        let b_cand = b.sub(&grad.scale(1.0 / lcap)).unwrap();
        let b_new = prox_group_linf(&b_cand, 1.0 / (rho * lcap));
        let bs_new = b_new.matmul(sigma).unwrap();
        let r = bs_new.add(&e_new).unwrap().sub(&c).unwrap();
        u = u.add(&r).unwrap();
        primal = r.norm_fro() / scale_primal.sqrt();
        dual = rho
            * e_new
                .sub(&e)
                .unwrap()
                .matmul(&sigma.transpose())
                .unwrap()
                .norm_fro()
            / scale_dual.sqrt();
        primal_curve.push(primal);
        dual_curve.push(dual);
        b = b_new;
        e = e_new;
        let support_size = select_columns(&b, config.selection_threshold).len();
        if support_size == last_support_size {
            stall += 1;
        } else {
            stall = 0;
            last_support_size = support_size;
        }
        if stall >= STALL_LIMIT
            && k % FEAS_CHECK_EVERY == 0
            && problem.worst_row_std(&b).unwrap() <= problem.radius * 1.05
        {
            exit = Exit::SupportStall;
            break;
        }
        let eps_primal = config.tol_abs
            + config.tol_rel * (bs_new.norm_fro().max(c.norm_fro())) / scale_primal.sqrt();
        let eps_dual = config.tol_abs + config.tol_rel * u.norm_fro() * rho / scale_dual.sqrt();
        if primal < eps_primal && dual < eps_dual {
            exit = Exit::ResidualTolerance;
            break;
        }
    }
    let sol = GroupSelectSolution {
        selected: select_columns(&b, config.selection_threshold),
        worst_row_std: problem.worst_row_std(&b).unwrap(),
        objective: group_linf_norm(&b),
        b,
        iterations,
        primal_residual: primal,
        dual_residual: dual,
        converged: exit != Exit::IterationCap,
        primal_curve,
        dual_curve,
    };
    (sol, exit)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solves at 1 and 3 workers and requires both to match the reference
/// bit for bit, after checking the reference took `expected` exit.
fn assert_matches_reference(problem: &GroupSelectProblem, config: &AdmmConfig, expected: Exit) {
    let _guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pathrep_par::set_threads(1);
    let (want, exit) = reference(problem, config);
    assert_eq!(
        exit, expected,
        "instance does not exercise the intended exit"
    );
    for threads in [1, 3] {
        pathrep_par::set_threads(threads);
        let got = solve_linearized_admm(problem, config).expect("solve");
        let at = format!("at {threads} workers");
        assert_eq!(
            bits(got.b.as_slice()),
            bits(want.b.as_slice()),
            "b differs {at}"
        );
        assert_eq!(got.selected, want.selected, "selected differs {at}");
        assert_eq!(got.iterations, want.iterations, "iterations differ {at}");
        assert_eq!(got.converged, want.converged, "converged differs {at}");
        assert_eq!(
            bits(&got.primal_curve),
            bits(&want.primal_curve),
            "primal_curve differs {at}"
        );
        assert_eq!(
            bits(&got.dual_curve),
            bits(&want.dual_curve),
            "dual_curve differs {at}"
        );
        assert_eq!(
            got.objective.to_bits(),
            want.objective.to_bits(),
            "objective differs {at}"
        );
        assert_eq!(
            got.worst_row_std.to_bits(),
            want.worst_row_std.to_bits(),
            "worst_row_std differs {at}"
        );
    }
    pathrep_par::set_threads(0);
}

/// Deterministic pseudo-random value in `[0, 1)`.
fn hash01(i: usize, j: usize, salt: u64) -> f64 {
    let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ salt;
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 29;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Incidence rows: each target path covers about a third of the segments.
fn incidence(r1: usize, ns: usize) -> Matrix {
    Matrix::from_fn(r1, ns, |i, j| if hash01(i, j, 1) < 0.3 { 1.0 } else { 0.0 })
}

/// Compressed instance (`|x| > n_S`): the solver iterates on the lower
/// triangular Cholesky factor of `ΣΣᵀ`. Sized so the products fan out.
fn compressed(radius: f64) -> GroupSelectProblem {
    let (r1, ns, nx) = (100, 160, 190);
    let sigma = Matrix::from_fn(ns, nx, |i, j| {
        let global = if j < 6 { 0.8 } else { 0.0 };
        let local = if j >= 6 && (j - 6) % 23 == i % 23 {
            1.5
        } else {
            0.0
        };
        let weak = if i % 4 == 0 { 0.05 } else { 1.0 };
        weak * (global * hash01(i, j, 2) + local * (0.5 + hash01(i, j, 3)))
    });
    GroupSelectProblem {
        g_target: incidence(r1, ns),
        sigma,
        radius,
    }
}

/// Uncompressed instance (`|x| ≤ n_S`): banded `Σ` whose rows have leading
/// and trailing zeros, with every seventh row all zero. Sized so the
/// products fan out.
fn uncompressed(radius: f64) -> GroupSelectProblem {
    let (r1, ns, nx) = (400, 140, 120);
    let sigma = Matrix::from_fn(ns, nx, |i, j| {
        let centre = i * nx / ns;
        if i % 7 == 3 || j + 12 < centre || j > centre + 12 {
            0.0
        } else {
            let weak = if i % 4 == 0 { 0.05 } else { 1.0 };
            weak * (0.2 + hash01(i, j, 4))
        }
    });
    GroupSelectProblem {
        g_target: incidence(r1, ns),
        sigma,
        radius,
    }
}

#[test]
fn compressed_iteration_cap() {
    let config = AdmmConfig {
        max_iters: 40,
        ..AdmmConfig::default()
    };
    assert_matches_reference(&compressed(1.0), &config, Exit::IterationCap);
}

#[test]
fn compressed_support_stall() {
    assert_matches_reference(
        &compressed(16.0),
        &AdmmConfig::default(),
        Exit::SupportStall,
    );
}

#[test]
fn compressed_residual_tolerance() {
    let config = AdmmConfig {
        tol_abs: 1e-3,
        ..AdmmConfig::default()
    };
    assert_matches_reference(&compressed(8.0), &config, Exit::ResidualTolerance);
}

#[test]
fn uncompressed_iteration_cap() {
    let config = AdmmConfig {
        max_iters: 40,
        ..AdmmConfig::default()
    };
    assert_matches_reference(&uncompressed(1.0), &config, Exit::IterationCap);
}

#[test]
fn uncompressed_support_stall() {
    assert_matches_reference(
        &uncompressed(16.0),
        &AdmmConfig::default(),
        Exit::SupportStall,
    );
}

#[test]
fn uncompressed_residual_tolerance() {
    let config = AdmmConfig {
        tol_abs: 1e-3,
        ..AdmmConfig::default()
    };
    assert_matches_reference(&uncompressed(8.0), &config, Exit::ResidualTolerance);
}
