//! Dense numerical linear algebra for the `pathrep` workspace.
//!
//! This crate implements, from scratch, every matrix computation the
//! representative-path-selection method of Xie & Davoodi (DAC 2010) relies on:
//!
//! * a dense row-major [`Matrix`] type with the usual arithmetic,
//! * Cholesky ([`cholesky`]) for the convex solver's normal equations,
//! * Householder QR and **rank-revealing QR with column pivoting**
//!   ([`qr`]) — the subset-selection workhorse of the paper's Algorithm 2,
//! * the **Golub–Reinsch SVD** ([`svd`]) used for rank and *effective rank*,
//! * symmetric eigendecomposition ([`eig`]) used by the convex solver's
//!   ellipsoid projections,
//! * CSR sparse matrices ([`sparse`]) and the seeded sketched SVD
//!   ([`sketch`]) of the large-circuit pipeline,
//! * Gaussian sampling and tail statistics ([`gauss`]).
//!
//! # Example
//!
//! ```
//! use pathrep_linalg::{Matrix, svd::Svd};
//!
//! # fn main() -> Result<(), pathrep_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]])?;
//! let svd = Svd::compute(&a)?;
//! assert!((svd.singular_values()[0] - 3.0).abs() < 1e-12);
//! assert_eq!(svd.rank(1e-9), 2);
//! # Ok(())
//! # }
//! ```

// Indexed loops are the clearest form for the triangular-solve and
// factorization kernels in this crate; iterator adapters obscure the
// in-place update patterns.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod eig;
pub mod error;
pub mod gauss;
pub mod matrix;
pub mod qr;
pub mod sketch;
pub mod sparse;
pub mod svd;
pub mod vecops;

pub use error::LinalgError;
pub use matrix::Matrix;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
