//! Property-based tests for the variation substrate.

use pathrep_circuit::generator::{CircuitGenerator, GeneratorConfig};
use pathrep_circuit::paths::{decompose_into_segments, Path};
use pathrep_variation::catalog::VariableSpace;
use pathrep_variation::model::VariationModel;
use pathrep_variation::regions::RegionHierarchy;
use pathrep_variation::sensitivity::{gate_contribution_terms, gate_delay_sigma, DelayModel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn regions_nest_properly(x in 0.0..1.0f64, y in 0.0..1.0f64, levels in 2usize..6) {
        // A gate's region at level l+1 must lie inside its level-l region:
        // the cell index halves consistently.
        let h = RegionHierarchy::new(levels);
        let regions = h.regions_containing(x, y);
        prop_assert_eq!(regions.len(), levels);
        for w in regions.windows(2) {
            let side = 1usize << w[1].level;
            let (cx, cy) = (w[1].cell % side, w[1].cell / side);
            let parent_side = 1usize << w[0].level;
            let (px, py) = (w[0].cell % parent_side, w[0].cell / parent_side);
            prop_assert_eq!(cx / 2, px);
            prop_assert_eq!(cy / 2, py);
        }
    }

    #[test]
    fn variable_space_round_trips(levels in 1usize..6, gates in 1usize..50) {
        let model = VariationModel::new(levels, 0.06);
        let vs = VariableSpace::new(&model, gates);
        for idx in 0..vs.len() {
            prop_assert_eq!(vs.index_of(vs.variable_at(idx)), idx);
        }
    }

    #[test]
    fn gate_variance_matches_contribution_terms(seed in 0u64..200, scale in 0.5..4.0f64) {
        // The sum of squared contribution coefficients must equal the
        // gate's σ² as reported by gate_delay_sigma, for any random scale.
        let c = CircuitGenerator::new(GeneratorConfig::new(80, 8, 6).with_seed(seed))
            .generate()
            .expect("generate");
        let model = VariationModel::three_level().with_random_scale(scale);
        for g in c.netlist().gate_ids().take(10) {
            let terms = gate_contribution_terms(&c, &model, g);
            let var: f64 = terms.iter().map(|&(_, v)| v * v).sum();
            let sigma = gate_delay_sigma(&c, &model, g);
            prop_assert!(
                (var.sqrt() - sigma).abs() < 1e-9 * sigma.max(1e-9),
                "terms give {} vs sigma {}",
                var.sqrt(),
                sigma
            );
        }
    }

    #[test]
    fn delay_model_is_consistent(seed in 0u64..100) {
        let c = CircuitGenerator::new(GeneratorConfig::new(100, 10, 8).with_seed(seed))
            .generate()
            .expect("generate");
        // A couple of first-fanout walks as target paths.
        let graph = c.graph();
        let mut paths = Vec::new();
        for (k, &s) in graph.sources().iter().take(3).enumerate() {
            let mut gate = s;
            let mut gates = vec![gate];
            loop {
                let fo = graph.fanouts(gate);
                if fo.is_empty() {
                    break;
                }
                gate = fo[k % fo.len()];
                gates.push(gate);
            }
            paths.push(Path::new(gates).expect("non-empty"));
        }
        paths.dedup();
        let dec = decompose_into_segments(&paths).expect("decompose");
        let model = VariationModel::three_level();
        let dm = DelayModel::build(&c, &paths, &dec, &model).expect("model").to_dense();
        // A = G·Σ exactly: the dense kernel on the dense view reproduces
        // the CSR product bit-for-bit, zero signs included.
        let gs = dm.g().matmul(dm.sigma()).expect("matmul");
        for (x, y) in gs.as_slice().iter().zip(dm.a().as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        // µ_P = G·µ_S exactly.
        let mu = dm.g().matvec(dm.mu_segments()).expect("matvec");
        prop_assert_eq!(mu.len(), dm.mu_paths().len());
        for (a, b) in mu.iter().zip(dm.mu_paths().iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Variable count bookkeeping: 2·covered regions + covered gates.
        prop_assert_eq!(
            dm.variable_count(),
            2 * dm.covered_region_count() + dec.covered_gates().len()
        );
    }
}
