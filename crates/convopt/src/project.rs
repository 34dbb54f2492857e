//! Projections onto the solver's constraint sets.

use crate::ConvoptError;
use pathrep_linalg::eig::SymmetricEig;
use pathrep_linalg::{Matrix, vecops};

/// Projects each row of `m` onto the Euclidean ball of radius `r` centered
/// at the corresponding row of `centers` (pass `None` for the origin).
///
/// # Panics
///
/// Panics when `centers` has a different shape than `m`.
pub fn project_rows_into_ball(m: &Matrix, centers: Option<&Matrix>, r: f64) -> Matrix {
    if let Some(c) = centers {
        assert_eq!(c.shape(), m.shape());
    }
    let ncols = m.ncols();
    let mut out = m.clone();
    // Rows project independently, so blocks of rows fan out over the
    // `pathrep-par` pool with bit-identical results at any thread count.
    // Per row: the difference, its norm and the rescale, ≈ 5 flops a column.
    pathrep_par::for_each_unit_chunk_mut(out.as_mut_slice(), ncols, 5 * ncols, |first, block| {
        for (di, orow) in block.chunks_exact_mut(ncols).enumerate() {
            let i = first + di;
            let row = m.row(i);
            let center: Vec<f64> = match centers {
                Some(c) => c.row(i).to_vec(),
                None => vec![0.0; ncols],
            };
            let diff = vecops::sub(row, &center);
            let n = vecops::norm2(&diff);
            if n > r {
                let scale = r / n;
                for (o, (&c, &d)) in orow.iter_mut().zip(center.iter().zip(diff.iter())) {
                    *o = c + scale * d;
                }
            }
        }
    });
    out
}

/// Exact Euclidean projection onto the (possibly degenerate) ellipsoid
/// `{ z : (z − c)ᵀ Q (z − c) ≤ r² }` with `Q ⪰ 0` given by its
/// eigendecomposition. Directions in the null space of `Q` are
/// unconstrained and pass through unchanged.
#[derive(Debug, Clone)]
pub struct EllipsoidProjector {
    eig: SymmetricEig,
    radius_sq: f64,
}

impl EllipsoidProjector {
    /// Builds a projector for `Q` (symmetric PSD) and radius `r`.
    ///
    /// # Errors
    ///
    /// * [`ConvoptError::InvalidArgument`] for a non-positive radius.
    /// * [`ConvoptError::Linalg`] if the eigendecomposition fails.
    pub fn new(q: &Matrix, r: f64) -> Result<Self, ConvoptError> {
        if r <= 0.0 {
            return Err(ConvoptError::InvalidArgument {
                what: "ellipsoid radius must be positive",
            });
        }
        let eig = SymmetricEig::compute(q)?;
        Ok(EllipsoidProjector {
            eig,
            radius_sq: r * r,
        })
    }

    /// Projects `p` onto the ellipsoid centered at `c`.
    ///
    /// Solves the secular equation `Σ λ_k y_k²/(1 + ν λ_k)² = r²` for the
    /// Lagrange multiplier `ν ≥ 0` by safeguarded Newton.
    ///
    /// # Panics
    ///
    /// Panics if `p` and `c` lengths differ from the ellipsoid dimension.
    pub fn project(&self, p: &[f64], c: &[f64]) -> Vec<f64> {
        let n = self.eig.values().len();
        assert_eq!(p.len(), n);
        assert_eq!(c.len(), n);
        let diff = vecops::sub(p, c);
        // y = Vᵀ (p − c)
        let v = self.eig.vectors();
        let y = v.matvec_t(&diff).expect("dimension checked");
        let lam = self.eig.values();
        let eval = |nu: f64| -> (f64, f64) {
            // value = Σ λ y²/(1+νλ)², derivative wrt ν
            let mut val = 0.0;
            let mut der = 0.0;
            for k in 0..n {
                let l = lam[k].max(0.0);
                if l == 0.0 {
                    continue;
                }
                let d = 1.0 + nu * l;
                let t = l * y[k] * y[k] / (d * d);
                val += t;
                der += -2.0 * l * t / d;
            }
            (val, der)
        };
        let (v0, _) = eval(0.0);
        if v0 <= self.radius_sq {
            return p.to_vec(); // already feasible
        }
        // Safeguarded Newton on ν ∈ (0, ∞): value is decreasing in ν.
        let mut lo = 0.0_f64;
        let mut hi = 1.0_f64;
        while eval(hi).0 > self.radius_sq {
            lo = hi;
            hi *= 4.0;
            if hi > 1e30 {
                break;
            }
        }
        let mut nu = 0.5 * (lo + hi);
        for _ in 0..100 {
            let (val, der) = eval(nu);
            if val > self.radius_sq {
                lo = nu;
            } else {
                hi = nu;
            }
            let step = (val - self.radius_sq) / der;
            let newton = nu - step;
            nu = if newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (hi - lo) < 1e-14 * hi.max(1.0) {
                break;
            }
        }
        // z' = y / (1 + νλ), back to original coordinates.
        let zp: Vec<f64> = (0..n)
            .map(|k| y[k] / (1.0 + nu * lam[k].max(0.0)))
            .collect();
        let z = v.matvec(&zp).expect("dimension checked");
        vecops::add(&z, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_projection_scales_rows() {
        let m = Matrix::from_rows(&[&[3.0, 4.0], &[0.1, 0.0]]).unwrap();
        let p = project_rows_into_ball(&m, None, 1.0);
        assert!((vecops::norm2(p.row(0)) - 1.0).abs() < 1e-12);
        assert_eq!(p.row(1), &[0.1, 0.0]); // already inside
    }

    #[test]
    fn ball_projection_respects_centers() {
        let m = Matrix::from_rows(&[&[5.0, 0.0]]).unwrap();
        let c = Matrix::from_rows(&[&[3.0, 0.0]]).unwrap();
        let p = project_rows_into_ball(&m, Some(&c), 1.0);
        assert!((p[(0, 0)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sphere_case_matches_ball() {
        // Q = I: the ellipsoid is a sphere, so the projection must agree
        // with simple radial scaling.
        let q = Matrix::identity(3);
        let pr = EllipsoidProjector::new(&q, 2.0).unwrap();
        let p = [3.0, 0.0, 4.0];
        let z = pr.project(&p, &[0.0; 3]);
        let n = vecops::norm2(&z);
        assert!((n - 2.0).abs() < 1e-9);
        // Same direction.
        assert!((z[0] / p[0] - z[2] / p[2]).abs() < 1e-9);
    }

    #[test]
    fn feasible_point_is_fixed() {
        let q = Matrix::from_diag(&[4.0, 1.0]);
        let pr = EllipsoidProjector::new(&q, 1.0).unwrap();
        let p = [0.1, 0.2];
        assert_eq!(pr.project(&p, &[0.0, 0.0]), p.to_vec());
    }

    #[test]
    fn projection_lands_on_boundary() {
        let q = Matrix::from_diag(&[4.0, 1.0, 0.25]);
        let pr = EllipsoidProjector::new(&q, 1.5).unwrap();
        let p = [2.0, -3.0, 5.0];
        let z = pr.project(&p, &[0.0; 3]);
        let quad: f64 = 4.0 * z[0] * z[0] + z[1] * z[1] + 0.25 * z[2] * z[2];
        assert!((quad - 2.25).abs() < 1e-8, "boundary violated: {quad}");
    }

    #[test]
    fn null_space_directions_unconstrained() {
        // Q has a zero eigenvalue in the last coordinate: moving along it
        // costs nothing, so the projection keeps that coordinate.
        let q = Matrix::from_diag(&[1.0, 0.0]);
        let pr = EllipsoidProjector::new(&q, 1.0).unwrap();
        let z = pr.project(&[5.0, 7.0], &[0.0, 0.0]);
        assert!((z[1] - 7.0).abs() < 1e-9, "null-space coordinate moved");
        assert!((z[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn optimality_via_variational_inequality() {
        let q = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
        let pr = EllipsoidProjector::new(&q, 1.0).unwrap();
        let p = [3.0, -2.0];
        let z = pr.project(&p, &[0.0, 0.0]);
        // Test points inside the ellipsoid.
        for cand in [[0.0, 0.0], [0.3, 0.3], [-0.5, 0.0], [0.0, -0.7]] {
            let quad = 2.0 * cand[0] * cand[0]
                + cand[0] * cand[1]
                + cand[1] * cand[1];
            if quad > 1.0 {
                continue;
            }
            let ip: f64 = (0..2).map(|k| (p[k] - z[k]) * (cand[k] - z[k])).sum();
            assert!(ip <= 1e-8, "closer feasible point exists");
        }
    }

    #[test]
    fn center_offset_projection() {
        let q = Matrix::identity(2);
        let pr = EllipsoidProjector::new(&q, 1.0).unwrap();
        let z = pr.project(&[10.0, 5.0], &[10.0, 2.0]);
        // Distance from center must be 1 along +y.
        assert!((z[0] - 10.0).abs() < 1e-9);
        assert!((z[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn non_positive_radius_rejected() {
        assert!(EllipsoidProjector::new(&Matrix::identity(2), 0.0).is_err());
    }
}
