//! Log-based failure substrate (§4.3 "Log-based failure distributions"
//! and §6).
//!
//! The paper replays failure logs of two >1000-node production clusters
//! from the LANL / Failure Trace Archive (clusters 18 and 19, i.e. 7 and 8
//! in Schroeder & Gibson 2006), building a discrete empirical distribution
//! from the logged *availability intervals* and sampling node traces from
//! it. The archive cannot be redistributed here, so [`synthetic`]
//! generates availability logs statistically matched to the published
//! characterisation of those clusters (Weibull shape ≈ 0.33–0.49 with a
//! heavy short-interval mode; 4-processor nodes; multi-year span), and
//! [`log`] then treats the synthetic log *exactly* as the paper treats the
//! real one: the conditional probability `P(X ≥ t | X ≥ τ)` is the ratio
//! of counted availability durations (`ckpt_dist::Empirical`). Every
//! downstream code path — policy, simulator, harness — is therefore
//! identical to a run on the real archive; see DESIGN.md "Substitutions".

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod error;
pub mod log;
pub mod synthetic;

pub use error::TraceError;
pub use log::AvailabilityLog;
pub use synthetic::{synthetic_lanl_cluster, try_synthetic_lanl_cluster, LanlClusterModel};
