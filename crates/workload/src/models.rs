//! The `W(p)` parallelism laws and `C(p)` overhead laws of §3.1.

/// How failure-free execution time scales with processor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParallelismModel {
    /// `W(p) = W/p` — perfectly divisible work.
    EmbarrassinglyParallel,
    /// `W(p) = W/p + γW` — Amdahl's law with sequential fraction `γ < 1`.
    Amdahl {
        /// Inherently sequential fraction of the work.
        gamma: f64,
    },
    /// `W(p) = W/p + γ·W^{2/3}/√p` — 2-D grid numerical kernels
    /// (matrix product, LU/QR on a `q × q` grid, `W = O(N³)`); `γ` is the
    /// platform's communication-to-computation ratio.
    NumericalKernel {
        /// Communication-to-computation ratio.
        gamma: f64,
    },
}

impl ParallelismModel {
    /// Failure-free execution time `W(p)` for total sequential work `w`
    /// (seconds on a unit-speed processor) on `p` processors.
    pub fn parallel_work(&self, w: f64, p: u64) -> f64 {
        assert!(w >= 0.0, "work must be non-negative");
        assert!(p >= 1, "need at least one processor");
        let pf = p as f64;
        match *self {
            Self::EmbarrassinglyParallel => w / pf,
            Self::Amdahl { gamma } => w / pf + gamma * w,
            Self::NumericalKernel { gamma } => w / pf + gamma * w.powf(2.0 / 3.0) / pf.sqrt(),
        }
    }

    /// Short display label used by the experiment matrix.
    pub fn label(&self) -> String {
        match *self {
            Self::EmbarrassinglyParallel => "ep".to_string(),
            Self::Amdahl { gamma } => format!("amdahl-{gamma:e}"),
            Self::NumericalKernel { gamma } => format!("kernel-{gamma}"),
        }
    }

    /// The six instantiations evaluated in the paper's §5.2.
    pub fn paper_suite() -> Vec<Self> {
        vec![
            Self::EmbarrassinglyParallel,
            Self::Amdahl { gamma: 1e-4 },
            Self::Amdahl { gamma: 1e-6 },
            Self::NumericalKernel { gamma: 0.1 },
            Self::NumericalKernel { gamma: 1.0 },
            Self::NumericalKernel { gamma: 10.0 },
        ]
    }
}

/// How the synchronized checkpoint/recovery cost scales with `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverheadModel {
    /// `C(p) = c` — the resilient storage system's incoming bandwidth is
    /// the bottleneck (the paper's "constant overhead": 600 s).
    Constant {
        /// Checkpoint/recovery time in seconds.
        seconds: f64,
    },
    /// `C(p) = c · ptotal / p` — each processor's outgoing link is the
    /// bottleneck, so cost shrinks as memory per processor shrinks
    /// (the paper's "proportional overhead": `600 · 45208/p`).
    Proportional {
        /// Cost in seconds when the full platform is used.
        seconds_at_full: f64,
        /// Total processors in the platform.
        ptotal: u64,
    },
}

/// Which side of the I/O path saturates during a checkpoint (§3.1's two
/// scenarios for an application of memory footprint `V`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoBottleneck {
    /// Each processor's outgoing link: `C(p) = αV/p` (proportional).
    ProcessorLinks,
    /// The resilient storage system's incoming bandwidth: `C(p) = αV`
    /// (constant).
    ResilientStorage,
}

impl OverheadModel {
    /// Build from the paper's first-principles parameters: memory
    /// footprint `V` (bytes), inverse bandwidth `α` (seconds per byte),
    /// and the saturating side of the I/O path. `ptotal` anchors the
    /// proportional variant.
    pub fn from_footprint(
        alpha: f64,
        footprint_bytes: f64,
        bottleneck: IoBottleneck,
        ptotal: u64,
    ) -> Self {
        assert!(alpha > 0.0 && footprint_bytes > 0.0 && ptotal >= 1);
        match bottleneck {
            IoBottleneck::ResilientStorage => {
                Self::Constant { seconds: alpha * footprint_bytes }
            }
            IoBottleneck::ProcessorLinks => Self::Proportional {
                seconds_at_full: alpha * footprint_bytes / ptotal as f64,
                ptotal,
            },
        }
    }

    /// Checkpoint (= recovery) duration `C(p)` in seconds.
    pub fn cost(&self, p: u64) -> f64 {
        assert!(p >= 1);
        match *self {
            Self::Constant { seconds } => seconds,
            Self::Proportional { seconds_at_full, ptotal } => {
                seconds_at_full * ptotal as f64 / p as f64
            }
        }
    }

    /// Short display label used by the experiment matrix.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Constant { .. } => "const",
            Self::Proportional { .. } => "prop",
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "costs and divisions by powers of ten used here are exact")]
mod tests {
    use super::*;

    #[test]
    fn ep_scales_perfectly() {
        let m = ParallelismModel::EmbarrassinglyParallel;
        assert_eq!(m.parallel_work(1000.0, 1), 1000.0);
        assert_eq!(m.parallel_work(1000.0, 10), 100.0);
        assert_eq!(m.parallel_work(1000.0, 1000), 1.0);
    }

    #[test]
    fn amdahl_floors_at_sequential_fraction() {
        let m = ParallelismModel::Amdahl { gamma: 1e-4 };
        let w = 1e8;
        // As p → ∞ the time approaches γW.
        let huge = m.parallel_work(w, 1 << 30);
        assert!((huge - 1e-4 * w).abs() < 1.0);
        // Monotone decreasing in p.
        assert!(m.parallel_work(w, 100) > m.parallel_work(w, 200));
    }

    #[test]
    fn kernel_has_sqrt_p_communication_term() {
        let m = ParallelismModel::NumericalKernel { gamma: 1.0 };
        let w: f64 = 1e9;
        let p = 10_000u64;
        let expect = w / 1e4 + w.powf(2.0 / 3.0) / 100.0;
        assert!((m.parallel_work(w, p) - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn all_models_agree_at_one_processor_when_gamma_zero_equivalent() {
        // At p = 1 the EP model gives W; Amdahl gives W(1 + γ); kernel adds
        // the communication term — check exact formulas rather than
        // equality.
        let w = 500.0;
        assert_eq!(
            ParallelismModel::EmbarrassinglyParallel.parallel_work(w, 1),
            500.0
        );
        let am = ParallelismModel::Amdahl { gamma: 0.1 }.parallel_work(w, 1);
        assert!((am - 550.0).abs() < 1e-12);
    }

    #[test]
    fn paper_suite_has_six_models() {
        assert_eq!(ParallelismModel::paper_suite().len(), 6);
    }

    #[test]
    fn constant_overhead_ignores_p() {
        let c = OverheadModel::Constant { seconds: 600.0 };
        assert_eq!(c.cost(1), 600.0);
        assert_eq!(c.cost(45_208), 600.0);
    }

    #[test]
    fn proportional_overhead_table1() {
        // C(p) = 600 · 45208/p.
        let c = OverheadModel::Proportional { seconds_at_full: 600.0, ptotal: 45_208 };
        assert_eq!(c.cost(45_208), 600.0);
        assert!((c.cost(1_024) - 600.0 * 45_208.0 / 1_024.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ParallelismModel::EmbarrassinglyParallel.label(), "ep");
        assert_eq!(OverheadModel::Constant { seconds: 1.0 }.label(), "const");
    }

    #[test]
    fn footprint_storage_bottleneck_is_constant() {
        // αV = 600 s regardless of p.
        let m = OverheadModel::from_footprint(
            600.0 / 1e12,
            1e12,
            IoBottleneck::ResilientStorage,
            45_208,
        );
        assert!((m.cost(1) - 600.0).abs() < 1e-9);
        assert!((m.cost(45_208) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn footprint_link_bottleneck_is_proportional() {
        // αV/p: at full platform, αV/ptotal; at one processor, αV.
        let alpha = 600.0 * 45_208.0 / 1e12; // so that C(ptotal) = 600 s
        let m = OverheadModel::from_footprint(
            alpha,
            1e12,
            IoBottleneck::ProcessorLinks,
            45_208,
        );
        assert!((m.cost(45_208) - 600.0).abs() < 1e-6);
        assert!((m.cost(1) - 600.0 * 45_208.0).abs() < 1e-3);
        // Halving p doubles the cost.
        assert!((m.cost(1_024) / m.cost(2_048) - 2.0).abs() < 1e-9);
    }
}
