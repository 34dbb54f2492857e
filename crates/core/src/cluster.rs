//! Section 4.4's scalability device: "if the number of target paths is very
//! large, we can apply a clustering procedure to form clusters of paths of
//! smaller size for speedup".
//!
//! Paths are clustered by segment overlap (paths sharing logic belong
//! together), Algorithm 1 runs independently inside each cluster — cubing
//! the cost of SVD/Gram work down from `n³` to `Σ nᵢ³` — and the union of
//! per-cluster representatives feeds one joint Theorem-2 predictor over the
//! full target set. A final greedy repair on the conditioning kernel of
//! [`crate::predictor`] enforces the global tolerance if the union alone
//! misses it (cross-cluster correlation the per-cluster runs could not
//! see), and the joint predictor is built from that same kernel.

use crate::approx::{approx_select, ApproxConfig};
use crate::predictor::{Columns, Conditioning, MeasurementPredictor};
use crate::CoreError;
use pathrep_linalg::Matrix;

/// Configuration for [`clustered_select`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Algorithm-1 configuration applied inside each cluster.
    pub approx: ApproxConfig,
    /// Upper bound on paths per cluster.
    pub max_cluster_size: usize,
}

impl ClusterConfig {
    /// Creates a config with the given per-cluster Algorithm-1 settings.
    pub fn new(approx: ApproxConfig, max_cluster_size: usize) -> Self {
        ClusterConfig {
            approx,
            max_cluster_size,
        }
    }
}

/// Result of clustered selection.
#[derive(Debug, Clone)]
pub struct ClusteredSelection {
    /// Path clusters (indices into the target set).
    pub clusters: Vec<Vec<usize>>,
    /// The union of per-cluster representative paths (global indices).
    pub selected: Vec<usize>,
    /// Remaining (predicted) target paths.
    pub remaining: Vec<usize>,
    /// Joint predictor from the union to the remaining paths.
    pub predictor: MeasurementPredictor,
    /// Achieved global worst-case error.
    pub epsilon_r: f64,
}

impl ClusteredSelection {
    /// Number of clusters formed.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }
}

/// Greedy segment-overlap clustering: paths are assigned, in order, to the
/// non-full cluster whose accumulated segment set they overlap most.
fn cluster_paths(g: &Matrix, max_size: usize) -> Vec<Vec<usize>> {
    let n = g.nrows();
    let ns = g.ncols();
    let k = n.div_ceil(max_size);
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut segment_sets: Vec<Vec<bool>> = vec![vec![false; ns]; k];
    for p in 0..n {
        let row = g.row(p);
        // `None` until the first non-full candidate: a sentinel score would
        // lose to zero-overlap clusters and silently overfill `clusters[0]`.
        let mut best: Option<usize> = None;
        let mut best_score = i64::MIN;
        for (c, cluster) in clusters.iter().enumerate() {
            if cluster.len() >= max_size {
                continue;
            }
            let overlap: i64 = row
                .iter()
                .enumerate()
                .filter(|&(s, &v)| v != 0.0 && segment_sets[c][s])
                .map(|_| 1)
                .sum();
            // Ties break toward the emptiest cluster for balance.
            let score = overlap * (max_size as i64 + 1) - cluster.len() as i64;
            if best.is_none() || score > best_score {
                best_score = score;
                best = Some(c);
            }
        }
        let best = best.expect("k*max_size >= n guarantees a non-full cluster");
        clusters[best].push(p);
        for (s, &v) in row.iter().enumerate() {
            if v != 0.0 {
                segment_sets[best][s] = true;
            }
        }
    }
    clusters.retain(|c| !c.is_empty());
    clusters
}

/// Runs clustered approximate selection (Section 4.4).
///
/// `g` is the path/segment incidence used for the overlap clustering; `a`
/// and `mu` are the full delay model.
///
/// # Errors
///
/// * [`CoreError::InvalidArgument`] for inconsistent inputs.
/// * Any error from the per-cluster Algorithm-1 runs.
pub fn clustered_select(
    a: &Matrix,
    mu: &[f64],
    g: &Matrix,
    config: &ClusterConfig,
) -> Result<ClusteredSelection, CoreError> {
    let _span = pathrep_obs::span!("clustered_select");
    let n = a.nrows();
    if mu.len() != n || g.nrows() != n {
        return Err(CoreError::InvalidArgument {
            what: "A, mu and G must agree on the path count".into(),
        });
    }
    if config.max_cluster_size == 0 {
        return Err(CoreError::InvalidArgument {
            what: "max_cluster_size must be positive".into(),
        });
    }
    let clusters = cluster_paths(g, config.max_cluster_size);

    // Algorithm 1 inside each cluster.
    let mut selected: Vec<usize> = Vec::new();
    for cluster in &clusters {
        let sub_a = a.select_rows(cluster);
        let sub_mu: Vec<f64> = cluster.iter().map(|&i| mu[i]).collect();
        let sel = approx_select(&sub_a, &sub_mu, &config.approx)?;
        selected.extend(sel.selected.iter().map(|&local| cluster[local]));
    }
    selected.sort_unstable();
    selected.dedup();

    // Global repair over the union, then one joint predictor.
    let budget = (config.approx.epsilon * config.approx.t_cons / config.approx.kappa).powi(2);
    let none = Matrix::zeros(0, a.ncols());
    let columns = Columns::Rows {
        targets: a,
        extra: &none,
    };
    let mut kernel = Conditioning::new(columns, 0.0)?;
    kernel.condition(&selected)?;
    selected.extend(kernel.greedy(budget)?);
    selected.sort_unstable();
    let (predictor, remaining) = kernel.predictor(&selected, mu, config.approx.kappa);
    Ok(ClusteredSelection {
        clusters,
        selected,
        remaining,
        epsilon_r: predictor.epsilon(config.approx.t_cons),
        predictor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Two independent path "blocks" over disjoint segments + variables,
    /// the natural clustering structure.
    fn two_block_model(block: usize) -> (Matrix, Vec<f64>, Matrix) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let n = 2 * block;
        let ns = 8;
        let nx = 12;
        let g = Matrix::from_fn(n, ns, |i, s| {
            let base = if i < block { 0 } else { 4 };
            let in_block = s >= base && s < base + 4;
            // Anchor one guaranteed segment per path so no path is left
            // segmentless (a degenerate, blockless row) by the random draw.
            let anchor = s == base + i % 4;
            if in_block && (anchor || rng.gen_bool(0.6)) {
                1.0
            } else {
                0.0
            }
        });
        let sigma = Matrix::from_fn(ns, nx, |s, j| {
            let in_block = if s < 4 { j < 6 } else { j >= 6 };
            if in_block {
                rng.gen_range(0.5..2.0)
            } else {
                0.0
            }
        });
        let a = g.matmul(&sigma).unwrap();
        let mu = (0..n).map(|i| 500.0 + i as f64).collect();
        (a, mu, g)
    }

    #[test]
    fn clustering_respects_cap_and_covers_everything() {
        let (a, mu, g) = two_block_model(10);
        let cfg = ClusterConfig::new(ApproxConfig::new(0.05, 600.0), 10);
        let sel = clustered_select(&a, &mu, &g, &cfg).unwrap();
        assert!(sel.cluster_count() >= 2);
        let mut all: Vec<usize> = sel.clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
        for c in &sel.clusters {
            assert!(c.len() <= 10);
        }
    }

    #[test]
    fn overlap_clustering_separates_blocks() {
        let (a, mu, g) = two_block_model(10);
        let cfg = ClusterConfig::new(ApproxConfig::new(0.05, 600.0), 10);
        let sel = clustered_select(&a, &mu, &g, &cfg).unwrap();
        // Each cluster must be block-pure: all indices on one side.
        for c in &sel.clusters {
            let in_first = c.iter().filter(|&&i| i < 10).count();
            assert!(
                in_first == 0 || in_first == c.len(),
                "cluster mixes blocks: {c:?}"
            );
        }
    }

    #[test]
    fn global_tolerance_met() {
        let (a, mu, g) = two_block_model(12);
        let cfg = ClusterConfig::new(ApproxConfig::new(0.05, 600.0), 8);
        let sel = clustered_select(&a, &mu, &g, &cfg).unwrap();
        assert!(
            sel.epsilon_r <= 0.05 + 1e-9,
            "global epsilon {} exceeds tolerance",
            sel.epsilon_r
        );
        assert_eq!(sel.selected.len() + sel.remaining.len(), 24);
    }

    #[test]
    fn clustered_cost_close_to_global() {
        // The union must not be wildly larger than the single global run.
        let (a, mu, g) = two_block_model(12);
        let approx_cfg = ApproxConfig::new(0.05, 600.0);
        let global = approx_select(&a, &mu, &approx_cfg).unwrap();
        let cfg = ClusterConfig::new(approx_cfg, 12);
        let clustered = clustered_select(&a, &mu, &g, &cfg).unwrap();
        assert!(
            clustered.selected.len() <= 3 * global.selected.len().max(2),
            "clustered {} vs global {}",
            clustered.selected.len(),
            global.selected.len()
        );
    }

    #[test]
    fn input_validation() {
        let (a, mu, g) = two_block_model(4);
        let cfg = ClusterConfig::new(ApproxConfig::new(0.05, 600.0), 0);
        assert!(clustered_select(&a, &mu, &g, &cfg).is_err());
        let cfg = ClusterConfig::new(ApproxConfig::new(0.05, 600.0), 4);
        assert!(clustered_select(&a, &mu[..2], &g, &cfg).is_err());
    }
}
