//! Representative path and segment selection for post-silicon timing
//! prediction — the core contribution of Xie & Davoodi (DAC 2010).
//!
//! Given the linear delay model `d_Ptar = mu + A*x` built by
//! `pathrep-variation`, this crate selects a small set of *representative*
//! paths (and optionally segments) whose measured post-silicon delays
//! predict every remaining target path within a worst-case tolerance:
//!
//! * [`subset`] — Algorithm 2: SVD + QR-with-column-pivoting subset
//!   selection of `r` maximally independent rows of `A`, from the left
//!   singular factor alone;
//! * [`predictor`] — Theorem 2: the optimal (conditional-mean) linear
//!   predictor from measured delays to unmeasured ones, with the analytic
//!   worst-case prediction error of Eqns 6-7, from the crate's one
//!   conditioning kernel (a partial pivoted Cholesky);
//! * [`exact`] — Theorem 1: exact selection with `r = rank(A)`;
//! * [`approx`] — Algorithm 1: approximate selection under an error
//!   tolerance `epsilon`, driven by the effective rank of `A`;
//! * [`sketch`] — the same two selections on a sparse `A`, over a seeded
//!   sketched SVD and the Gram columns `A·A_selᵀ`;
//! * [`hybrid`] — Algorithm 3: hybrid path/segment selection using the
//!   convex group-selection program of `pathrep-convopt`;
//! * [`guardband`] — Section 6.3: guard-band analysis for post-silicon
//!   failure detection.
//!
//! The exact, approximate and sketched front ends run one private search
//! and return one [`Selection`]; they differ only in where the left
//! singular subspace and the Gram columns `G[·, selected]` come from (a
//! dense SVD plus the precomputed Gram, or a sketch plus sparse products).

pub mod approx;
pub mod cluster;
pub mod greedy;
pub mod error;
pub mod factors;
pub mod exact;
pub mod guardband;
pub mod hybrid;
pub mod predictor;
mod select;
pub mod sketch;
pub mod subset;

pub use approx::{approx_select, Schedule};
pub use cluster::{clustered_select, ClusterConfig, ClusteredSelection};
pub use error::CoreError;
pub use greedy::{greedy_select, GreedySelection};
pub use factors::ModelFactors;
pub use exact::exact_select;
pub use hybrid::{hybrid_select, hybrid_select_sweep, AdmmStats, HybridConfig, HybridSelection};
pub use predictor::MeasurementPredictor;
pub use select::Selection;
pub use sketch::{sketch_approx_select, sketch_exact_select, SketchApproxConfig};
