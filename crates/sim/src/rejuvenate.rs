//! All-processor rejuvenation driver (Appendix B's alternative model).
//!
//! Under rejuvenate-all, every failure resets every processor's lifetime,
//! so the platform renews wholesale and its failures are iid draws from
//! the *minimum-of-p* distribution (for Weibull processors:
//! `Weibull(λ/p^{1/k}, k)`, see [`ckpt_dist::Weibull::min_of`]). Instead of
//! pre-sampled traces the driver samples the next platform failure lazily
//! at each renewal point, and every processor always shares the same age.

use ckpt_dist::FailureDistribution;
use ckpt_platform::AgeView;
use ckpt_policies::PolicySession;
use ckpt_workload::JobSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::{sanitize_chunk, SimOptions};
use crate::stats::RunStats;

/// Execute a job under the rejuvenate-all model.
///
/// `platform_dist` must be the distribution of *platform* inter-failure
/// times after a full rejuvenation (minimum over the enrolled processors).
pub fn simulate_rejuvenate_all(
    spec: &JobSpec,
    session: &mut dyn PolicySession,
    platform_dist: &dyn FailureDistribution,
    seed: u64,
    options: SimOptions,
) -> RunStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RunStats::new();
    let mut now = 0.0f64;
    let mut remaining = spec.work;
    // Last wholesale rejuvenation instant and the sampled failure date.
    let mut rejuv_at = 0.0f64;
    let mut next_failure = platform_dist.sample(&mut rng);
    let mut decisions = 0u64;
    let eps = spec.work * 1e-12;

    while remaining > eps {
        decisions += 1;
        assert!(
            decisions <= options.max_decisions,
            "simulate_rejuvenate_all: exceeded {} decisions",
            options.max_decisions
        );
        let ages = AgeView::all_pristine(spec.procs, now - rejuv_at);
        let chunk = sanitize_chunk(session.next_chunk(remaining, &ages, now), remaining);
        stats.observe_chunk(chunk);
        let attempt = chunk + spec.checkpoint;
        let fail_abs = rejuv_at + next_failure;
        if fail_abs < now + attempt {
            // Failure during compute/checkpoint.
            stats.failures += 1;
            stats.lost_time += fail_abs - now;
            session.on_failure();
            now = fail_abs;
            // Downtime rejuvenates everyone; failures cannot strike during
            // a downtime in this model (all processors are down together).
            now += spec.downtime;
            stats.downtime_time += spec.downtime;
            rejuv_at = now;
            next_failure = platform_dist.sample(&mut rng);
            // Fault-prone recovery attempts.
            loop {
                let fail_abs = rejuv_at + next_failure;
                if fail_abs < now + spec.recovery {
                    stats.failures += 1;
                    stats.recovery_time += fail_abs - now;
                    now = fail_abs + spec.downtime;
                    stats.downtime_time += spec.downtime;
                    rejuv_at = now;
                    next_failure = platform_dist.sample(&mut rng);
                } else {
                    stats.recovery_time += spec.recovery;
                    now += spec.recovery;
                    break;
                }
            }
        } else {
            now += attempt;
            remaining -= chunk;
            stats.work_time += chunk;
            stats.checkpoint_time += spec.checkpoint;
            stats.chunks_completed += 1;
        }
    }
    stats.decisions = decisions;
    stats.makespan = now;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_dist::{Exponential, Weibull};
    use ckpt_policies::{FixedPeriod, Policy};

    #[test]
    fn failure_free_limit() {
        // Platform MTBF astronomically larger than the job: exact result.
        let spec = JobSpec::sequential(1000.0, 10.0, 20.0, 5.0);
        let d = Exponential::from_mtbf(1e15);
        let policy = FixedPeriod::new("p", 250.0);
        let mut s = policy.session();
        let st = simulate_rejuvenate_all(&spec, &mut *s, &d, 1, SimOptions::default());
        assert!((st.makespan - 1040.0).abs() < 1e-9);
        assert_eq!(st.failures, 0);
    }

    #[test]
    fn ages_reset_after_failure() {
        struct Probe(Vec<f64>);
        impl PolicySession for Probe {
            fn next_chunk(&mut self, remaining: f64, ages: &AgeView, _now: f64) -> f64 {
                self.0.push(ages.min_age());
                remaining.min(100.0)
            }
        }
        // Deterministic-ish: small MTBF guarantees failures.
        let spec = JobSpec::sequential(2_000.0, 5.0, 10.0, 2.0);
        let d = Exponential::from_mtbf(300.0);
        let mut probe = Probe(vec![]);
        let st = simulate_rejuvenate_all(&spec, &mut probe, &d, 7, SimOptions::default());
        assert!(st.failures > 0);
        // Ages start at 0, grow, and reset below R + one attempt after
        // failures; specifically some later snapshot must be smaller than
        // its predecessor (the reset).
        let resets = probe.0.windows(2).filter(|w| w[1] < w[0]).count();
        assert!(resets as u64 >= st.failures.min(1));
    }

    #[test]
    fn weibull_rejuvenation_hurts_at_scale() {
        // The §3.1 argument made operational: the same per-processor
        // Weibull at p = 4096 yields far more failures (per unit work)
        // under rejuvenate-all than failed-only, because the platform
        // renews into its high-hazard infancy after every failure.
        let p = 4_096u64;
        let year = 365.25 * 86_400.0;
        let proc = Weibull::from_mtbf(0.7, 125.0 * year);
        let plat = proc.min_of(p);
        let spec = JobSpec { procs: p, ..JobSpec::sequential(30.0 * 86_400.0, 600.0, 600.0, 60.0) };
        let policy = FixedPeriod::new("p", 20_000.0);
        let mut total_rejuv = 0u64;
        for seed in 0..5 {
            let mut s = policy.session();
            let st = simulate_rejuvenate_all(&spec, &mut *s, &plat, seed, SimOptions::default());
            total_rejuv += st.failures;
        }
        // Failed-only platform MTBF would be (125y + 60)/4096 ≈ 11 days:
        // ≈ 3 failures per 34-day run. Rejuvenate-all MTBF is
        // 125y/4096^{1/0.7} ≈ 0.9 days: dozens of failures per run.
        assert!(
            total_rejuv > 5 * 15,
            "expected heavy failure load under rejuvenate-all, got {total_rejuv}"
        );
    }

    #[test]
    fn accounting_adds_up() {
        let spec = JobSpec::sequential(5_000.0, 20.0, 40.0, 5.0);
        let d = Exponential::from_mtbf(700.0);
        let policy = FixedPeriod::new("p", 200.0);
        let mut s = policy.session();
        let st = simulate_rejuvenate_all(&spec, &mut *s, &d, 3, SimOptions::default());
        assert!((st.accounted() - st.makespan).abs() < 1e-6 * st.makespan);
    }

    #[test]
    fn counts_a_decision_per_chunk_attempt() {
        let spec = JobSpec::sequential(5_000.0, 20.0, 40.0, 5.0);
        let d = Exponential::from_mtbf(700.0);
        let policy = FixedPeriod::new("p", 200.0);
        let mut s = policy.session();
        let st = simulate_rejuvenate_all(&spec, &mut *s, &d, 3, SimOptions::default());
        assert!(st.chunks_completed > 0);
        assert!(st.failures > 0, "a failed attempt is a decision that commits no chunk");
        assert!(st.decisions >= st.chunks_completed, "{st:?}");
        assert!(st.decisions > st.chunks_completed);
    }
}
