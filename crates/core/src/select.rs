//! Algorithms 1 and 2, once for every front end.
//!
//! [`crate::exact`], [`crate::approx`] and [`crate::sketch`] differ only
//! in where the left singular subspace and the Gram blocks come from
//! ([`Source`]) and in what decides the selection size ([`Goal`]). Each
//! candidate `r` is evaluated the same way: Algorithm 2 pivots on the
//! leading `r` columns of `U` ([`select_rows_from_left`]), the
//! conditioning kernel of [`crate::predictor`] conditions every path on
//! that subset with the Gram columns `G[·, selected]`, and `ε_r` is read
//! off the kernel's diagonal. Only the chosen candidate builds its
//! Theorem-2 coefficients.

use crate::approx::Schedule;
use crate::exact::RANK_TOL;
use crate::factors::ModelFactors;
use crate::predictor::{Columns, Conditioning, MeasurementPredictor};
use crate::subset::select_rows_from_left;
use crate::CoreError;
use pathrep_linalg::sketch::SketchedSvd;
use pathrep_linalg::sparse::SparseMatrix;
use pathrep_linalg::svd::Svd;
use pathrep_linalg::Matrix;

/// Effective-rank energy threshold η used wherever the caller sets none.
pub(crate) const DEFAULT_ETA: f64 = 0.05;

/// Result of representative-path selection, from every front end.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Indices of the representative paths, in pivot order.
    pub selected: Vec<usize>,
    /// Indices of the remaining (predicted) paths.
    pub remaining: Vec<usize>,
    /// Theorem-2 predictor from the representative to the remaining paths.
    pub predictor: MeasurementPredictor,
    /// Achieved worst-case error `ε_r` (≤ the tolerance whenever it is
    /// reachable; zero for exact selection, where no tolerance is in play).
    pub epsilon_r: f64,
    /// Numerical rank of the left factor (the exact-selection size).
    pub rank: usize,
    /// Effective rank at the configured η (5 % unless set).
    pub effective_rank: usize,
    /// Fraction of `‖A‖_F²` captured by the left factor: `1.0` for the
    /// dense SVD, the sketch's energy capture for the sketched one.
    pub energy_capture: f64,
    /// `(r, ε_r)` pairs evaluated during the search, in evaluation order.
    pub trace: Vec<(usize, f64)>,
}

/// What decides the selection size `r`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Goal {
    /// Theorem 1: `r` is the numerical rank.
    Exact,
    /// Algorithm 1: the smallest `r` whose `ε_r` stays within `epsilon`.
    Tolerance {
        epsilon: f64,
        t_cons: f64,
        schedule: Schedule,
        eta: f64,
    },
}

impl Goal {
    fn validate(&self, kappa: f64) -> Result<(), CoreError> {
        let positive = |value: f64, name: &str| {
            if value <= 0.0 {
                Err(CoreError::InvalidArgument {
                    what: format!("{name} must be positive"),
                })
            } else {
                Ok(())
            }
        };
        if let Goal::Tolerance { epsilon, t_cons, .. } = *self {
            positive(epsilon, "epsilon")?;
            positive(t_cons, "t_cons")?;
        }
        positive(kappa, "kappa")
    }
}

/// Where the left subspace and the Gram blocks come from.
pub(crate) enum Source<'a> {
    /// Full SVD and precomputed Gram `G = A·Aᵀ` of a dense `A`:
    /// `G[·, selected]` is a column slice of `G`.
    Dense {
        a: &'a Matrix,
        factors: &'a ModelFactors,
    },
    /// Sketched left SVD of a sparse `A`: `G[·, selected] = A·A_selᵀ` is
    /// formed per candidate, so the `n × n` Gram never exists.
    Sketched {
        a: &'a SparseMatrix,
        sketch: &'a SketchedSvd,
    },
}

impl Source<'_> {
    fn rows(&self) -> usize {
        match self {
            Source::Dense { a, .. } => a.nrows(),
            Source::Sketched { a, .. } => a.nrows(),
        }
    }

    fn svd(&self) -> &Svd {
        match self {
            Source::Dense { factors, .. } => factors.svd(),
            Source::Sketched { sketch, .. } => sketch.svd(),
        }
    }

    fn columns(&self) -> Columns<'_> {
        match self {
            Source::Dense { factors, .. } => Columns::Gram(factors.gram()),
            Source::Sketched { a, .. } => Columns::Sparse(a),
        }
    }

    fn energy_capture(&self) -> f64 {
        match self {
            Source::Dense { .. } => 1.0,
            Source::Sketched { sketch, .. } => sketch.energy_capture(),
        }
    }
}

/// One evaluated candidate size `r`: its subset and the kernel conditioned
/// on it.
struct Candidate<'a> {
    selected: Vec<usize>,
    kernel: Conditioning<'a>,
    epsilon_r: f64,
}

/// Runs Algorithm 2 (and, for [`Goal::Tolerance`], Algorithm 1's search
/// over `r`) on `source`.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for a non-positive ε, `T_cons` or κ,
///   or a `mu` that does not match the row count of `A`.
/// * [`CoreError::Linalg`] on factorization failure.
pub(crate) fn search(
    source: &Source<'_>,
    mu: &[f64],
    kappa: f64,
    goal: Goal,
) -> Result<Selection, CoreError> {
    goal.validate(kappa)?;
    if mu.len() != source.rows() {
        return Err(CoreError::InvalidArgument {
            what: "mean vector must match the row count of A".into(),
        });
    }
    let svd = source.svd();
    let rank = svd.rank(RANK_TOL).max(1);
    let eta = match goal {
        Goal::Tolerance { eta, .. } => eta,
        Goal::Exact => DEFAULT_ETA,
    };
    let effective_rank = svd.effective_rank(eta)?;
    let mut trace: Vec<(usize, f64)> = Vec::new();

    let mut evaluate = |r: usize| -> Result<Candidate<'_>, CoreError> {
        let selected = select_rows_from_left(svd, r)?;
        let mut kernel = Conditioning::new(source.columns(), 0.0)?;
        kernel.condition(&selected)?;
        let epsilon_r = match goal {
            Goal::Tolerance { t_cons, .. } => kernel.epsilon(kappa, t_cons),
            Goal::Exact => 0.0,
        };
        trace.push((r, epsilon_r));
        Ok(Candidate {
            selected,
            kernel,
            epsilon_r,
        })
    };

    let best = match goal {
        Goal::Exact => evaluate(rank)?,
        Goal::Tolerance {
            epsilon, schedule, ..
        } => {
            let mut evaluate = |r: usize| -> Result<Candidate<'_>, CoreError> {
                let _span = pathrep_obs::span!("evaluate_candidate");
                let cand = evaluate(r)?;
                let eps = cand.epsilon_r;
                pathrep_obs::counter_add("core.approx.evaluations", 1);
                pathrep_obs::histogram_record("core.approx.epsilon_r", eps);
                pathrep_obs::info("core.approx.trace", || format!("r={r} epsilon_r={eps:.6e}"));
                Ok(cand)
            };
            let mut best = evaluate(rank)?;
            if best.epsilon_r > epsilon {
                // Even the exact-size selection misses the tolerance (rank
                // rounding, or a sketch too narrow for ε); accept it as the
                // most conservative answer.
                pathrep_obs::warn("core.approx.tolerance_unmet", || {
                    format!(
                        "exact-size selection (r={rank}) already exceeds tolerance: \
                         epsilon_r={:.6e} > epsilon={epsilon:.6e}",
                        best.epsilon_r
                    )
                });
            } else {
                match schedule {
                    Schedule::DecrementByOne => {
                        while best.selected.len() > 1 {
                            let cand = evaluate(best.selected.len() - 1)?;
                            if cand.epsilon_r > epsilon {
                                break;
                            }
                            best = cand;
                        }
                    }
                    Schedule::Bisection => {
                        let mut lo = 1usize;
                        let mut hi = rank;
                        while lo < hi {
                            let mid = lo + (hi - lo) / 2;
                            let cand = evaluate(mid)?;
                            if cand.epsilon_r <= epsilon {
                                best = cand;
                                hi = mid;
                            } else {
                                lo = mid + 1;
                            }
                        }
                    }
                }
            }
            best
        }
    };

    let (predictor, remaining) = best.kernel.predictor(&best.selected, mu, kappa);
    let selection = Selection {
        selected: best.selected,
        remaining,
        predictor,
        epsilon_r: best.epsilon_r,
        rank,
        effective_rank,
        energy_capture: source.energy_capture(),
        trace,
    };
    record_outcome(source, goal, &selection);
    Ok(selection)
}

/// Final telemetry of one selection. The ledger record is named after the
/// front end (`exact_select`, `approx_select`, `sketch_exact_select`,
/// `sketch_approx_select`); tolerance runs say whether ε was `accepted`.
fn record_outcome(source: &Source<'_>, goal: Goal, sel: &Selection) {
    match goal {
        Goal::Exact => {
            pathrep_obs::counter_add("core.exact.selections", 1);
            pathrep_obs::gauge_set("core.exact.rank", sel.rank as f64);
        }
        Goal::Tolerance { .. } => {
            pathrep_obs::counter_add("core.approx.selections", 1);
            pathrep_obs::gauge_set("core.approx.rank", sel.rank as f64);
            pathrep_obs::gauge_set("core.approx.effective_rank", sel.effective_rank as f64);
            pathrep_obs::gauge_set("core.approx.selected", sel.selected.len() as f64);
            pathrep_obs::gauge_set("core.approx.epsilon_r", sel.epsilon_r);
        }
    }
    let sketch = match source {
        Source::Sketched { sketch, .. } => Some(*sketch),
        Source::Dense { .. } => None,
    };
    if let Some(sk) = sketch {
        pathrep_obs::gauge_set("core.sketch.energy_capture", sk.energy_capture());
    }
    if !pathrep_obs::ledger::collecting() {
        return;
    }
    if let (None, Goal::Exact) = (sketch, goal) {
        // The dense exact record keeps its own shape: the golden ledger of
        // the accuracy gate pins it byte for byte.
        pathrep_obs::ledger::record("core", "exact_select", |f| {
            f.int("paths", source.rows() as u64)
                .int("rank", sel.rank as u64)
                .int("selected", sel.selected.len() as u64)
                .int("remaining", sel.remaining.len() as u64);
        });
        return;
    }
    let name = match (sketch, goal) {
        (None, _) => "approx_select",
        (Some(_), Goal::Exact) => "sketch_exact_select",
        (Some(_), Goal::Tolerance { .. }) => "sketch_approx_select",
    };
    let r_trace: Vec<f64> = sel.trace.iter().map(|&(r, _)| r as f64).collect();
    let eps_trace: Vec<f64> = sel.trace.iter().map(|&(_, e)| e).collect();
    pathrep_obs::ledger::record("core", name, |f| {
        f.int("rank", sel.rank as u64);
        if let Goal::Tolerance { .. } = goal {
            f.int("effective_rank", sel.effective_rank as u64);
        }
        f.int("selected", sel.selected.len() as u64);
        if let Some(sk) = sketch {
            f.int("sketch_cols", sk.sketch_cols() as u64)
                .int("power_iters", sk.power_iters() as u64)
                .num("energy_capture", sk.energy_capture());
        }
        f.num("epsilon_r", sel.epsilon_r);
        if let Goal::Tolerance { epsilon, .. } = goal {
            f.num("epsilon", epsilon)
                .flag("accepted", sel.epsilon_r <= epsilon);
        }
        f.nums("r_trace", &r_trace).nums("epsilon_r_trace", &eps_trace);
    });
}
