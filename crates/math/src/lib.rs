//! Numerical substrate for the checkpointing-strategies workspace.
//!
//! Everything the paper's formulas need and nothing more, implemented in-repo
//! so results are auditable without external numerical crates:
//!
//! * [`lambert`] — the Lambert W function (principal branch), used by
//!   Theorem 1 / Proposition 5 to compute the optimal chunk count
//!   `K0 = λW / (1 + W0(−e^{−λC−1}))`.
//! * [`gamma`] — `ln Γ` and `Γ` (Lanczos approximation), used to convert a
//!   target MTBF into a Weibull scale parameter (`λ = MTBF / Γ(1 + 1/k)`).
//! * [`integrate`] — adaptive Simpson quadrature, used for the generic
//!   conditional expected-loss `E[Tlost(x|τ)]` of non-memoryless
//!   distributions.
//! * [`roots`] — Brent root bracketing/refinement, used for numeric
//!   quantiles and period optimisation.
//! * [`stats`] — compensated summation and summary statistics for the
//!   degradation-from-best tables.
//! * [`seeds`] — SplitMix64-based deterministic seed derivation so that
//!   every `(experiment, trace)` pair is reproducible regardless of thread
//!   scheduling.
//! * [`table`] — uniform-grid function tables (sampling, trapezoid
//!   cumulative integrals, checked/clamped linear interpolation), the
//!   substrate of the tabulated distribution kernels.
//! * [`simd`] — hand-rolled 4-lane f64 `exp`/`ln` and fused
//!   multiply-accumulate sweeps for the batched DP kernels, with
//!   bit-identical scalar tails.

pub mod gamma;
pub mod integrate;
pub mod lambert;
pub mod roots;
pub mod seeds;
pub mod simd;
pub mod stats;
pub mod table;

pub use gamma::{gamma, ln_gamma};
pub use integrate::adaptive_simpson;
pub use lambert::lambert_w0;
pub use roots::brent;
pub use seeds::{mix_seed, SeedSequence};
pub use stats::{KahanSum, Summary};
pub use table::UniformTable;
