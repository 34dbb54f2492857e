//! Error type for the convex-optimization substrate.

use pathrep_linalg::LinalgError;
use std::fmt;

/// Error returned by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvoptError {
    /// Problem dimensions are inconsistent.
    Shape {
        /// Human-readable description.
        what: String,
    },
    /// A parameter is outside its valid domain.
    InvalidArgument {
        /// What was wrong.
        what: &'static str,
    },
    /// An underlying matrix routine failed.
    Linalg(LinalgError),
}

impl fmt::Display for ConvoptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvoptError::Shape { what } => write!(f, "inconsistent problem shape: {what}"),
            ConvoptError::InvalidArgument { what } => write!(f, "invalid argument: {what}"),
            ConvoptError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for ConvoptError {}

impl From<LinalgError> for ConvoptError {
    fn from(e: LinalgError) -> Self {
        ConvoptError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_linalg() {
        let e: ConvoptError = LinalgError::Singular.into();
        assert!(matches!(e, ConvoptError::Linalg(_)));
    }
}
