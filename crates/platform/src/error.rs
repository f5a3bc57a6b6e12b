//! Typed errors for platform/trace construction.

/// Why a trace set or platform view could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// A trace set needs at least one failure unit.
    NoUnits,
    /// The sampling horizon must be positive and finite.
    BadHorizon {
        /// The offending horizon, seconds.
        horizon: f64,
    },
    /// The job start time must fall within `[0, horizon)`.
    StartOutsideHorizon {
        /// The offending start time, seconds.
        start: f64,
        /// The horizon, seconds.
        horizon: f64,
    },
    /// A prefix was requested beyond the generated unit count.
    BadPrefix {
        /// Requested unit count.
        want: usize,
        /// Available unit count.
        have: usize,
    },
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoUnits => write!(f, "need at least one failure unit"),
            Self::BadHorizon { horizon } => {
                write!(f, "horizon must be positive and finite, got {horizon}")
            }
            Self::StartOutsideHorizon { start, horizon } => {
                write!(f, "start time {start} outside horizon [0, {horizon})")
            }
            Self::BadPrefix { want, have } => {
                write!(f, "prefix of {want} units requested from a {have}-unit trace set")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = PlatformError::StartOutsideHorizon { start: 5.0, horizon: 2.0 };
        assert!(e.to_string().contains("outside horizon"));
        assert!(PlatformError::NoUnits.to_string().contains("at least one"));
    }

    #[test]
    fn prefix_and_horizon_messages_carry_their_values() {
        let prefix = PlatformError::BadPrefix { want: 9, have: 4 }.to_string();
        assert_eq!(prefix, "prefix of 9 units requested from a 4-unit trace set");
        let horizon = PlatformError::BadHorizon { horizon: -3.0 }.to_string();
        assert!(horizon.ends_with("got -3"), "{horizon}");
    }
}
