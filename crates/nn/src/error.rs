use std::fmt;

/// Errors produced by tensor algebra, network construction and training.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A tensor was built or used with an incompatible shape.
    ShapeMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// The shape actually supplied.
        got: Vec<usize>,
    },
    /// A dataset's data length does not factor into items of the given shape.
    InvalidDataset {
        /// Description of the inconsistency.
        reason: String,
    },
    /// An IDX (MNIST) file could not be parsed.
    ParseIdx {
        /// Description of the failure.
        reason: String,
    },
    /// An argument or a computed value is outside its domain: a zero batch
    /// size, a NaN logit.
    InvalidInput {
        /// Description of the offending value.
        reason: String,
    },
}

impl Error {
    pub(crate) fn shape(expected: impl Into<String>, got: &[usize]) -> Self {
        Error::ShapeMismatch { expected: expected.into(), got: got.to_vec() }
    }

    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        Error::InvalidInput { reason: reason.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got:?}")
            }
            Error::InvalidDataset { reason } => write!(f, "invalid dataset: {reason}"),
            Error::ParseIdx { reason } => write!(f, "failed to parse idx file: {reason}"),
            Error::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = Error::shape("[2, 3]", &[4]);
        assert!(e.to_string().contains("[4]"));
        assert!(Error::InvalidDataset { reason: "x".into() }.to_string().contains("x"));
        assert!(Error::ParseIdx { reason: "magic".into() }.to_string().contains("magic"));
        assert!(Error::invalid("NaN logit").to_string().contains("NaN logit"));
    }
}
