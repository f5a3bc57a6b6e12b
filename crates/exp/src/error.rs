//! The harness-level error type.
//!
//! Every fallible path of the experiment pipeline funnels into [`Error`]:
//! per-crate typed errors ([`ckpt_dist::DistError`],
//! [`ckpt_platform::PlatformError`], [`ckpt_traces::TraceError`]) convert
//! via `From`, and the pipeline's own failure modes (a policy that cannot
//! produce a schedule, an unknown policy name from the CLI, a scenario
//! where no policy yields a baseline) get dedicated variants. The
//! `Display` of [`Error::Policy`] is the bare reason string so result
//! rows carry exactly the text the paper-facing reports always carried.

use ckpt_dist::DistError;
use ckpt_platform::PlatformError;
use ckpt_traces::TraceError;

/// Why a scenario, policy, or study could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A failure distribution could not be built.
    Dist(DistError),
    /// A trace set could not be generated.
    Platform(PlatformError),
    /// An availability log could not be loaded or generated.
    Trace(TraceError),
    /// A policy cannot produce a meaningful schedule for the scenario
    /// (e.g. Liu's nonsensical placements, footnote 2). Displays as the
    /// bare reason so result rows read like the paper's gap annotations.
    Policy {
        /// Display name of the policy.
        name: String,
        /// Why it cannot run.
        reason: String,
    },
    /// A policy name (e.g. from the CLI) matched nothing in the registry.
    UnknownPolicy {
        /// The name as given.
        requested: String,
        /// Every name the registry does know.
        known: Vec<String>,
    },
    /// No policy produced a makespan on any trace, so the §4.1
    /// degradation-from-best metric is undefined.
    NoBaseline,
    /// A scenario-level failure annotated with the scenario's label, so
    /// a failed cell in a 100-cell sweep is attributable from the error
    /// value alone (`Study::run_all` and `run_study` wrap here).
    Cell {
        /// The failing scenario's label.
        label: String,
        /// The underlying failure.
        source: Box<Error>,
    },
    /// The study checkpoint store could not be read, written, or trusted
    /// (I/O failure, corrupt JSON, version skew, or a manifest
    /// fingerprint mismatch — stale checkpoints are rejected, never
    /// silently reused).
    Checkpoint {
        /// What went wrong, including the offending path where known.
        reason: String,
    },
}

impl Error {
    /// Attach a scenario label to a cell-level failure. Idempotent: an
    /// error already carrying this label is returned unchanged, so
    /// layered callers (study → checkpoint runner) never double-wrap.
    #[must_use]
    pub fn for_cell(label: &str, source: Error) -> Self {
        match source {
            Self::Cell { label: l, source } if l == label => Self::Cell { label: l, source },
            source => Self::Cell { label: label.to_string(), source: Box::new(source) },
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dist(e) => write!(f, "distribution: {e}"),
            Self::Platform(e) => write!(f, "trace generation: {e}"),
            Self::Trace(e) => write!(f, "availability log: {e}"),
            Self::Policy { reason, .. } => write!(f, "{reason}"),
            Self::UnknownPolicy { requested, known } => {
                write!(f, "unknown policy {requested:?}; known: {}", known.join(", "))
            }
            Self::NoBaseline => write!(
                f,
                "no policy produced a makespan on any trace (degradation undefined)"
            ),
            Self::Cell { label, source } => write!(f, "cell {label}: {source}"),
            Self::Checkpoint { reason } => write!(f, "checkpoint store: {reason}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Dist(e) => Some(e),
            Self::Platform(e) => Some(e),
            Self::Trace(e) => Some(e),
            Self::Cell { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<DistError> for Error {
    fn from(e: DistError) -> Self {
        Self::Dist(e)
    }
}

impl From<PlatformError> for Error {
    fn from(e: PlatformError) -> Self {
        Self::Platform(e)
    }
}

impl From<TraceError> for Error {
    fn from(e: TraceError) -> Self {
        Self::Trace(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn policy_displays_bare_reason() {
        let e = Error::Policy {
            name: "Liu".into(),
            reason: "Liu requires a Weibull (or Exponential) fit".into(),
        };
        assert_eq!(e.to_string(), "Liu requires a Weibull (or Exponential) fit");
    }

    #[test]
    fn no_baseline_keeps_historic_text() {
        assert_eq!(
            Error::NoBaseline.to_string(),
            "no policy produced a makespan on any trace (degradation undefined)"
        );
    }

    #[test]
    fn unknown_policy_lists_known_names() {
        let e = Error::UnknownPolicy {
            requested: "dalylo".into(),
            known: vec!["DalyLow".into(), "DalyHigh".into()],
        };
        let s = e.to_string();
        assert!(s.contains("dalylo") && s.contains("DalyLow, DalyHigh"), "{s}");
    }

    #[test]
    fn cell_wraps_label_and_chains_source() {
        use std::error::Error as _;
        let inner: Error = DistError::EmptySample.into();
        let e = Error::for_cell("peta-weibull000p7000-003944700000", inner.clone());
        assert!(e.to_string().starts_with("cell peta-weibull000p7000-003944700000: "));
        assert!(e.source().is_some(), "cell errors must chain their source");
        // Idempotent: re-wrapping with the same label changes nothing.
        let again = Error::for_cell("peta-weibull000p7000-003944700000", e.clone());
        assert_eq!(again, e);
        // A different label nests (outermost wins the attribution).
        let other = Error::for_cell("other-cell", e.clone());
        assert!(other.to_string().starts_with("cell other-cell: cell peta-"));
    }

    #[test]
    fn checkpoint_error_displays_reason() {
        let e = Error::Checkpoint { reason: "manifest fingerprint mismatch".into() };
        assert_eq!(e.to_string(), "checkpoint store: manifest fingerprint mismatch");
    }

    #[test]
    fn crate_errors_convert_and_chain() {
        use std::error::Error as _;
        let e: Error = DistError::EmptySample.into();
        assert!(e.source().is_some());
        let e: Error = ckpt_platform::PlatformError::NoUnits.into();
        assert!(e.to_string().contains("trace generation"));
        let e: Error = ckpt_traces::TraceError::UnknownCluster { id: 7 }.into();
        assert!(e.to_string().contains("availability log"));
    }
}
