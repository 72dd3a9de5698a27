//! Error type shared by all statistics routines.

use std::fmt;

/// Errors produced by the numerical routines in this crate.
///
/// Every routine validates its inputs and returns a typed error instead of
/// panicking; the analysis layer above surfaces these as diagnostics on
/// malformed or degenerate profile data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatError {
    /// The input slice was empty where at least one element is required.
    Empty,
    /// Two parallel inputs had different lengths.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// The input had fewer elements than the operation requires.
    TooFewSamples {
        /// Number of samples provided.
        got: usize,
        /// Minimum number of samples required.
        need: usize,
    },
    /// A parameter was outside its valid domain (e.g. `k = 0` clusters).
    InvalidParameter(String),
    /// The computation is undefined for this input (e.g. correlation of a
    /// constant series, which has zero variance).
    Degenerate(String),
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm that failed to converge.
        algorithm: &'static str,
        /// Iterations performed before giving up.
        iterations: usize,
    },
}

impl fmt::Display for StatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatError::Empty => write!(f, "empty input"),
            StatError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            StatError::TooFewSamples { got, need } => {
                write!(f, "too few samples: got {got}, need at least {need}")
            }
            StatError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            StatError::Degenerate(msg) => write!(f, "degenerate input: {msg}"),
            StatError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for StatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(StatError::Empty.to_string(), "empty input");
        assert_eq!(
            StatError::LengthMismatch { left: 3, right: 5 }.to_string(),
            "length mismatch: 3 vs 5"
        );
        assert_eq!(
            StatError::TooFewSamples { got: 1, need: 2 }.to_string(),
            "too few samples: got 1, need at least 2"
        );
        let e = StatError::NoConvergence {
            algorithm: "jacobi",
            iterations: 100,
        };
        assert!(e.to_string().contains("jacobi"));
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<StatError>();
    }
}
