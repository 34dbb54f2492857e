//! Statistical static timing analysis substrate.
//!
//! Provides everything the paper's evaluation needs upstream of path
//! selection:
//!
//! * [`sparse`] — sparse coefficient vectors over the variation space;
//! * [`canonical`] — first-order canonical delay forms `µ + Σ aᵢ xᵢ` with
//!   Clark's max approximation for block-based propagation;
//! * [`block`] — block-based SSTA over the timing graph (arrival-time
//!   canonical forms, circuit-delay distribution);
//! * [`yield_est`] — nominal circuit delay, Monte-Carlo circuit timing
//!   yield, and Gaussian path yield;
//! * [`extract`] — **statistically-critical path extraction**: best-first
//!   branch-and-bound enumeration of all paths whose timing yield-loss
//!   exceeds a threshold (the paper's ref. 11), the producer of `P_tar`.
//!
//! The delay model `A = G·Σ` over the extracted paths is assembled by
//! `pathrep_variation::sensitivity::DelayModel::build`.

pub mod block;
pub mod canonical;
pub mod extract;
pub mod sparse;
pub mod yield_est;

pub use extract::{CriticalPathExtractor, ExtractConfig, ExtractedPath};
