//! Typed errors for distribution construction.
//!
//! Library paths in this crate report failures as [`DistError`] values
//! instead of panicking, so the experiment pipeline can capture a bad
//! input (an empty availability log, a NaN duration) as data and keep
//! running every other cell.

/// Why a distribution could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A sample-based distribution was given no samples.
    EmptySample,
    /// A duration was non-finite or non-positive.
    InvalidDuration {
        /// Index of the offending value in the input.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// A named parameter was outside its domain.
    InvalidParameter {
        /// Parameter name.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptySample => write!(f, "empty sample set"),
            Self::InvalidDuration { index, value } => {
                write!(f, "duration #{index} is not positive and finite: {value}")
            }
            Self::InvalidParameter { what, value } => {
                write!(f, "parameter {what} out of domain: {value}")
            }
        }
    }
}

impl std::error::Error for DistError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DistError::InvalidDuration { index: 3, value: f64::NAN };
        let s = e.to_string();
        assert!(s.contains("#3") && s.contains("NaN"), "{s}");
        assert_eq!(DistError::EmptySample.to_string(), "empty sample set");
    }

    #[test]
    fn invalid_parameter_names_the_parameter() {
        let e = DistError::InvalidParameter { what: "shape", value: -0.5 };
        assert_eq!(e.to_string(), "parameter shape out of domain: -0.5");
    }
}
