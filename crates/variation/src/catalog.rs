//! Global variable indexing over a whole circuit.
//!
//! [`crate::sensitivity::DelayModel::build`], the one delay-model
//! assembly, interns a compact catalog over the covered subcircuit only
//! (as the paper's `A` does). The SSTA substrate instead
//! works over the *whole* circuit, so it needs a fixed, dense numbering of
//! every possible variable: all region components of both parameters first,
//! then one random variable per gate.

use crate::model::{Parameter, Variable, VariationModel};
use serde::{Deserialize, Serialize};

/// Dense index space over all variables of a circuit with `n_gates` gates
/// under a given region hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariableSpace {
    region_count: usize,
    n_gates: usize,
}

impl VariableSpace {
    /// Builds the space for `model` and a circuit of `n_gates` gates.
    pub fn new(model: &VariationModel, n_gates: usize) -> Self {
        VariableSpace {
            region_count: model.hierarchy().region_count(),
            n_gates,
        }
    }

    /// Total number of variables: `2·R + n_gates`.
    pub fn len(&self) -> usize {
        2 * self.region_count + self.n_gates
    }

    /// `true` when the space is empty (never for a real circuit).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dense index of `variable`.
    ///
    /// # Panics
    ///
    /// Panics if the variable is out of this space's range.
    pub fn index_of(&self, variable: Variable) -> usize {
        match variable {
            Variable::Region { param, region_flat } => {
                assert!(region_flat < self.region_count, "region out of range");
                let p = match param {
                    Parameter::Leff => 0,
                    Parameter::Vt => 1,
                };
                p * self.region_count + region_flat
            }
            Variable::GateRandom { gate } => {
                assert!(gate < self.n_gates, "gate out of range");
                2 * self.region_count + gate
            }
        }
    }

    /// The variable at dense index `idx` (inverse of [`index_of`]).
    ///
    /// [`index_of`]: VariableSpace::index_of
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn variable_at(&self, idx: usize) -> Variable {
        assert!(idx < self.len(), "variable index out of range");
        if idx < self.region_count {
            Variable::Region {
                param: Parameter::Leff,
                region_flat: idx,
            }
        } else if idx < 2 * self.region_count {
            Variable::Region {
                param: Parameter::Vt,
                region_flat: idx - self.region_count,
            }
        } else {
            Variable::GateRandom {
                gate: idx - 2 * self.region_count,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_indices() {
        let model = VariationModel::three_level();
        let vs = VariableSpace::new(&model, 17);
        assert_eq!(vs.len(), 2 * 21 + 17);
        for idx in 0..vs.len() {
            assert_eq!(vs.index_of(vs.variable_at(idx)), idx);
        }
    }

    #[test]
    fn params_do_not_collide() {
        let model = VariationModel::three_level();
        let vs = VariableSpace::new(&model, 4);
        let a = vs.index_of(Variable::Region {
            param: Parameter::Leff,
            region_flat: 5,
        });
        let b = vs.index_of(Variable::Region {
            param: Parameter::Vt,
            region_flat: 5,
        });
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "gate out of range")]
    fn gate_bound_checked() {
        let model = VariationModel::three_level();
        let vs = VariableSpace::new(&model, 4);
        let _ = vs.index_of(Variable::GateRandom { gate: 4 });
    }
}
