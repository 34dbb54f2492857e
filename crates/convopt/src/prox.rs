//! Proximal operators for the `ℓ1/ℓ∞` group norm.

use pathrep_linalg::Matrix;

/// Euclidean projection of `v` onto the `ℓ1` ball of radius `tau`
/// (Duchi, Shalev-Shwartz, Singer, Chandra 2008).
///
/// Returns `v` unchanged when it is already inside the ball.
pub fn project_l1_ball(v: &[f64], tau: f64) -> Vec<f64> {
    if tau <= 0.0 {
        return vec![0.0; v.len()];
    }
    let l1: f64 = v.iter().map(|x| x.abs()).sum();
    if l1 <= tau {
        return v.to_vec();
    }
    // Find the soft-threshold level θ: sort |v| descending, take the
    // largest k with |v|_(k) − (Σ_{j≤k}|v|_(j) − tau)/k > 0.
    let mut mags: Vec<f64> = v.iter().map(|x| x.abs()).collect();
    // NaN-total descending order (NaNs last): a poisoned magnitude cannot
    // scramble the threshold search.
    mags.sort_by(|a, b| pathrep_linalg::vecops::cmp_nan_smallest(*b, *a));
    let mut cumsum = 0.0;
    let mut theta = 0.0;
    for (k, &m) in mags.iter().enumerate() {
        cumsum += m;
        let cand = (cumsum - tau) / (k as f64 + 1.0);
        if m - cand > 0.0 {
            theta = cand;
        } else {
            break;
        }
    }
    v.iter()
        .map(|&x| x.signum() * (x.abs() - theta).max(0.0))
        .collect()
}

/// Proximal operator of `t·‖·‖_∞` via Moreau decomposition:
/// `prox_{t‖·‖_∞}(v) = v − Π_{t·B_1}(v)` (the `ℓ1` ball of radius `t` is the
/// dual-norm ball of `ℓ∞`).
pub fn prox_linf(v: &[f64], t: f64) -> Vec<f64> {
    let proj = project_l1_ball(v, t);
    v.iter().zip(proj.iter()).map(|(&a, &p)| a - p).collect()
}

/// Column-wise prox of the `ℓ1/ℓ∞` group norm `t·Σ_j ‖col_j‖_∞` applied to a
/// matrix: each column gets `prox_{t‖·‖_∞}` independently, fanned out over
/// the `pathrep-par` pool (columns are independent, so the result is
/// bit-identical at any thread count).
pub fn prox_group_linf(m: &Matrix, t: f64) -> Matrix {
    let mut out = m.clone();
    // Per column: the ℓ1 norm, the sort and the threshold scan, ≈ 10 flops
    // an entry.
    let col_flops = 10 * m.nrows();
    let cols = pathrep_par::map_indexed(m.ncols(), col_flops, |j| prox_linf(&m.col(j), t));
    for (j, p) in cols.iter().enumerate() {
        out.set_col(j, p);
    }
    out
}

/// The `ℓ1/ℓ∞` group norm itself: `Σ_j ‖col_j‖_∞`.
pub fn group_linf_norm(m: &Matrix) -> f64 {
    (0..m.ncols())
        .map(|j| {
            (0..m.nrows())
                .map(|i| m[(i, j)].abs())
                .fold(0.0_f64, f64::max)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inside_ball_is_identity() {
        let v = [0.1, -0.2, 0.3];
        assert_eq!(project_l1_ball(&v, 1.0), v.to_vec());
    }

    #[test]
    fn projection_lands_on_sphere() {
        let v = [3.0, -4.0, 1.0];
        let p = project_l1_ball(&v, 2.0);
        let l1: f64 = p.iter().map(|x| x.abs()).sum();
        assert!((l1 - 2.0).abs() < 1e-12);
        // Signs preserved, magnitudes shrunk.
        for (a, b) in v.iter().zip(p.iter()) {
            assert!(a * b >= 0.0);
            assert!(b.abs() <= a.abs());
        }
    }

    #[test]
    fn projection_is_idempotent() {
        let v = [1.0, 2.0, -3.0, 0.5];
        let p1 = project_l1_ball(&v, 1.5);
        let p2 = project_l1_ball(&p1, 1.5);
        for (a, b) in p1.iter().zip(p2.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_is_closest_point_vs_brute_force() {
        // Check optimality via the variational inequality:
        // (v − p)ᵀ(q − p) ≤ 0 for any feasible q.
        let v = [2.0, -1.0, 0.5];
        let tau = 1.0;
        let p = project_l1_ball(&v, tau);
        let candidates = [
            [1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.5, -0.25, 0.25],
            [0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0],
        ];
        for q in candidates {
            let ip: f64 = (0..3).map(|k| (v[k] - p[k]) * (q[k] - p[k])).sum();
            assert!(ip <= 1e-10, "variational inequality violated: {ip}");
        }
    }

    #[test]
    fn zero_radius_projects_to_origin() {
        assert_eq!(project_l1_ball(&[1.0, 2.0], 0.0), vec![0.0, 0.0]);
    }

    #[test]
    fn prox_linf_shrinks_the_top() {
        // prox of t‖·‖_∞ reduces the largest entries toward the next ones.
        let v = [5.0, 1.0, -1.0];
        let p = prox_linf(&v, 2.0);
        // Only the max coordinate pays: 5 − 2 = 3.
        assert!((p[0] - 3.0).abs() < 1e-12);
        assert!((p[1] - 1.0).abs() < 1e-12);
        assert!((p[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn prox_linf_kills_small_vectors() {
        // If t ≥ ‖v‖₁ the prox is zero.
        let v = [0.5, -0.25];
        let p = prox_linf(&v, 1.0);
        assert!(p.iter().all(|x| x.abs() < 1e-12));
    }

    #[test]
    fn prox_satisfies_optimality() {
        // prox_tf(v) minimizes t‖x‖_∞ + ½‖x − v‖². Compare against a grid of
        // perturbations.
        let v = [2.0, -1.5, 0.7, 0.0];
        let t = 0.8;
        let p = prox_linf(&v, t);
        let obj = |x: &[f64]| {
            let inf = x.iter().fold(0.0_f64, |m, &e| m.max(e.abs()));
            let q: f64 = x.iter().zip(v.iter()).map(|(&a, &b)| (a - b) * (a - b)).sum();
            t * inf + 0.5 * q
        };
        let base = obj(&p);
        for d in 0..4 {
            for step in [-0.01, 0.01] {
                let mut q = p.clone();
                q[d] += step;
                assert!(obj(&q) >= base - 1e-10, "prox not optimal at coord {d}");
            }
        }
    }

    #[test]
    fn nan_input_cannot_scramble_the_threshold_search() {
        // Regression: the descending sort used `partial_cmp(..).unwrap_or`
        // semantics, so a NaN magnitude made the comparator lie about order
        // and could leave the sort arbitrarily shuffled. The total order
        // puts NaNs last; the finite coordinates still project correctly.
        let v = [3.0, f64::NAN, -4.0, 1.0];
        let p = project_l1_ball(&v, 2.0);
        assert_eq!(p.len(), 4);
        // The NaN coordinate stays poisoned (soft-threshold of NaN), but
        // the finite ones keep sign and shrink as usual.
        assert!(p[0] >= 0.0 && p[0] <= 3.0);
        assert!(p[2] <= 0.0 && p[2] >= -4.0);
        assert!(p[3] >= 0.0 && p[3] <= 1.0);
        let _ = prox_linf(&v, 2.0); // must not panic either
    }

    #[test]
    fn group_norm_and_prox_on_matrix() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[-1.0, 2.0]]).unwrap();
        assert_eq!(group_linf_norm(&m), 5.0);
        let p = prox_group_linf(&m, 10.0);
        // Every column ℓ1 mass is below 10 ⇒ all zero.
        assert!(p.norm_max() < 1e-12);
    }
}
