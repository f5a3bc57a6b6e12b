//! Typed errors for availability-log generation and pooling.

use ckpt_dist::DistError;

/// Why an availability log could not be generated or turned into an
/// empirical distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// No synthetic model exists for the requested LANL cluster id.
    UnknownCluster {
        /// The requested cluster id (18 and 19 are modelled).
        id: u32,
    },
    /// The log holds no availability durations to pool.
    EmptyLog,
    /// Building the pooled empirical distribution failed.
    Dist(DistError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownCluster { id } => {
                write!(f, "no synthetic model for LANL cluster {id}")
            }
            Self::EmptyLog => write!(f, "availability log is empty"),
            Self::Dist(e) => write!(f, "empirical distribution: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Dist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DistError> for TraceError {
    fn from(e: DistError) -> Self {
        Self::Dist(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn dist_errors_convert_and_chain() {
        let e: TraceError = DistError::EmptySample.into();
        assert!(e.to_string().contains("empirical distribution"));
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn only_dist_errors_have_a_source() {
        use std::error::Error;
        let unknown = TraceError::UnknownCluster { id: 7 };
        assert_eq!(unknown.to_string(), "no synthetic model for LANL cluster 7");
        assert!(unknown.source().is_none());
        assert_eq!(TraceError::EmptyLog.to_string(), "availability log is empty");
        assert!(TraceError::EmptyLog.source().is_none());
    }
}
