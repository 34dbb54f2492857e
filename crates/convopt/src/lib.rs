//! Convex optimization substrate: the simultaneous-variable-selection
//! program of the paper's hybrid path/segment step (Eqn 10).
//!
//! The program selects a minimum set of *segments* whose delays predict the
//! representative-path delays within a worst-case tolerance:
//!
//! ```text
//! min_B   sum_j  max_i |b_ij|                   (l1/l-inf group norm)
//! s.t.    || (g_i - b_i) Sigma_S ||_2 <= radius   for every row i
//! ```
//!
//! The group norm drives whole *columns* of `B` to zero; a surviving column
//! means the corresponding segment is measured post-silicon. The constraint
//! bounds each representative path's prediction standard deviation (the
//! worst-case error is `kappa` times it once the predictor carries the
//! bias-removing intercept — see DESIGN.md).
//!
//! Two solvers are provided:
//!
//! * [`admm::solve_linearized_admm`] — linearized (preconditioned) ADMM,
//!   scales to the paper's problem sizes; only needs the operator norm of
//!   `Sigma_S`.
//! * [`admm::solve_ellipsoid_admm`] — classic two-block ADMM with *exact*
//!   per-row ellipsoid projections (eigendecomposition + secular-equation
//!   Newton); the reference the `admm` unit tests check the linearized
//!   solver's objective against.

pub mod admm;
pub mod error;
mod operator;
pub mod project;
pub mod prox;

pub use admm::{solve_ellipsoid_admm, solve_linearized_admm, AdmmConfig, GroupSelectProblem, GroupSelectSolution};
pub use error::ConvoptError;
