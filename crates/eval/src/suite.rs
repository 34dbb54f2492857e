//! The ten ISCAS'89-class benchmark configurations.
//!
//! Real ISCAS'89 netlists (synthesized with a commercial library) are not
//! redistributable; these specs drive the synthetic generator to circuits
//! of matching scale. Gate counts for the four largest circuits are scaled
//! down (≈4×) to keep the dense SVD of `A` tractable on one machine — the
//! quantity that matters for the method is the *target-path* count and the
//! variation dimension, both of which match the paper's ranges (see
//! DESIGN.md, "Substitutions"). Region counts `|R|` match the paper's
//! tables exactly: 21 (3-level model) for the small circuits, 341 (5-level)
//! for the large ones.

use pathrep_circuit::generator::GeneratorConfig;
use pathrep_variation::model::VariationModel;

/// One benchmark configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// ISCAS'89-style name.
    pub name: &'static str,
    /// Gate count of the generated circuit.
    pub n_gates: usize,
    /// Primary inputs (≈ flip-flop count of the original).
    pub n_inputs: usize,
    /// Primary outputs.
    pub n_outputs: usize,
    /// Quad-tree levels of the spatial model (3 ⇒ 21 regions, 5 ⇒ 341).
    pub model_levels: usize,
    /// Generator seed (fixed per benchmark for reproducibility).
    pub seed: u64,
    /// Logic depth. The paper synthesizes for minimum area under a
    /// *stringent timing constraint*, which keeps logic depth low (10–20
    /// levels) regardless of size; `None` uses the generator's default.
    pub depth: Option<usize>,
}

impl BenchmarkSpec {
    /// Generator configuration for this spec.
    pub fn generator_config(&self) -> GeneratorConfig {
        let cfg =
            GeneratorConfig::new(self.n_gates, self.n_inputs, self.n_outputs).with_seed(self.seed);
        match self.depth {
            Some(d) => cfg.with_depth(d),
            None => cfg,
        }
    }

    /// Variation model for this spec (6 % per-gate random share, as in the
    /// paper).
    pub fn variation_model(&self) -> VariationModel {
        VariationModel::new(self.model_levels, 0.06)
    }

    /// Total region count `|R|` of the spatial model.
    pub fn region_count(&self) -> usize {
        self.variation_model().hierarchy().region_count()
    }
}

/// The benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Suite;

impl Suite {
    /// All ten paper benchmarks, smallest first.
    pub fn all() -> Vec<BenchmarkSpec> {
        vec![
            spec("s1196", 550, 32, 32, 3, 101, 10),
            spec("s1238", 530, 32, 32, 3, 102, 10),
            spec("s1423", 660, 91, 79, 3, 103, 12),
            spec("s5378", 1400, 199, 213, 3, 104, 12),
            spec("s9234", 2000, 228, 250, 5, 105, 14),
            spec("s13207", 2600, 669, 790, 5, 106, 14),
            spec("s15850", 3000, 611, 684, 5, 107, 16),
            spec("s35932", 4200, 1728, 2048, 5, 108, 12),
            spec("s38417", 5200, 1636, 1742, 5, 109, 16),
            spec("s38584", 4800, 1452, 1730, 5, 110, 16),
        ]
    }

    /// A benchmark by name.
    pub fn by_name(name: &str) -> Option<BenchmarkSpec> {
        Self::all().into_iter().find(|s| s.name == name)
    }

    /// A small, fast subset: the experiments' `--fast` configurations and tests.
    pub fn small() -> Vec<BenchmarkSpec> {
        Self::all().into_iter().take(3).collect()
    }

    /// The 100k-gate-class instance for the sparse/sketched pipeline.
    /// Unlike [`Suite::all`] (scaled down ≈4× to keep the dense SVD
    /// tractable), this spec is deliberately past the dense ceiling: the
    /// full `A` would not fit a dense SVD budget, which is exactly what
    /// the `*_large` workloads demonstrate.
    pub fn large() -> BenchmarkSpec {
        spec("xl120k", 120_000, 4096, 4096, 5, 120, 24)
    }
}

fn spec(
    name: &'static str,
    n_gates: usize,
    n_inputs: usize,
    n_outputs: usize,
    model_levels: usize,
    seed: u64,
    depth: usize,
) -> BenchmarkSpec {
    BenchmarkSpec {
        name,
        n_gates,
        n_inputs,
        n_outputs,
        model_levels,
        seed,
        depth: Some(depth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_benchmarks_with_paper_region_counts() {
        let all = Suite::all();
        assert_eq!(all.len(), 10);
        for s in &all {
            let r = s.region_count();
            assert!(r == 21 || r == 341, "{} has |R| = {r}", s.name);
        }
        assert_eq!(Suite::by_name("s1423").unwrap().region_count(), 21);
        assert_eq!(Suite::by_name("s38417").unwrap().region_count(), 341);
    }

    #[test]
    fn names_unique_and_lookup_works() {
        let all = Suite::all();
        let mut names: Vec<&str> = all.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
        assert!(Suite::by_name("nope").is_none());
    }

    #[test]
    fn generator_configs_are_valid() {
        for s in Suite::small() {
            let c = pathrep_circuit::generator::CircuitGenerator::new(s.generator_config())
                .generate()
                .unwrap();
            assert_eq!(c.netlist().gate_count(), s.n_gates);
        }
    }
}
