//! §8 "future directions" experiments, implemented.
//!
//! The paper closes with three open questions; each has a concrete
//! experiment here:
//!
//! * **Optimal processor count** — on a fault-free machine the makespan
//!   is minimal at `p = ptotal`; with failures the optimum can be
//!   interior. [`optimal_proc_count`] sweeps `p` and reports the argmin.
//! * **Replication** — run the job once on `p` processors, or replicate
//!   it on two halves (`p/2` each), independently or synchronizing after
//!   every checkpoint? [`replication_study`] compares all three.
//! * **Energy** — [`energy_period_tradeoff`] sweeps the checkpoint period
//!   and reports makespan *and* platform energy, exposing the trade-off
//!   (short periods waste I/O energy, long periods waste re-computation).

use crate::policies_spec::PolicyKind;
use crate::runner::RunnerOptions;
use crate::scenario::Scenario;
use ckpt_math::Summary;
use ckpt_policies::{young, FixedPeriod, Policy};
use ckpt_sim::{
    simulate, simulate_replicated_independent, simulate_replicated_synchronized, PowerModel,
    SimOptions,
};

/// Mean makespan per processor count for one policy; returns the series
/// and the argmin `p`.
pub fn optimal_proc_count(
    scenario_at: impl Fn(u64) -> Scenario,
    kind: &PolicyKind,
    procs: &[u64],
    traces: usize,
) -> (Vec<(u64, f64)>, u64) {
    let opts = RunnerOptions { lower_bound: false, period_lb: None, ..Default::default() };
    let series: Vec<(u64, f64)> = procs
        .iter()
        .map(|&p| {
            let mut sc = scenario_at(p);
            sc.traces = traces;
            let r = crate::runner::run_scenario(&sc, std::slice::from_ref(kind), &opts);
            let mk = match r.outcomes[0].mean_makespan {
                Some(m) => m,
                None => panic!("policy {} did not run at p = {p}", kind.name()),
            };
            (p, mk)
        })
        .collect();
    let best = match series.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        Some(&(p, _)) => p,
        None => panic!("optimal_proc_count needs a non-empty processor list"),
    };
    (series, best)
}

/// One row of the replication comparison.
#[derive(Debug, Clone)]
pub struct ReplicationRow {
    /// Mean makespan with all `p` processors on one job, seconds.
    pub single: f64,
    /// Mean makespan of two independent half-platform replicas (first to
    /// finish wins), seconds.
    pub independent: f64,
    /// Mean makespan with checkpoint-synchronized half-platform replicas,
    /// seconds.
    pub synchronized: f64,
}

/// Compare single execution vs both replication modes on a scenario
/// (§8's open question). The policy is Young's (the replication protocols
/// are defined for periodic strategies).
pub fn replication_study(scenario: &Scenario, traces: usize) -> ReplicationRow {
    let built = scenario.dist.build();
    let full_spec = scenario.job_spec();
    let mut half_sc = scenario.clone();
    half_sc.procs = (scenario.procs / 2).max(1);
    let half_spec = half_sc.job_spec();
    let proc_mtbf = built.proc_mtbf;
    let full_policy = young(&full_spec, proc_mtbf);
    let half_policy = young(&half_spec, proc_mtbf);
    let units_full = built.topology.units_for_procs(scenario.procs);
    let units_half = built.topology.units_for_procs(half_sc.procs);

    let (mut single, mut independent, mut synchronized) =
        (Vec::new(), Vec::new(), Vec::new());
    for i in 0..traces {
        let traces_full = scenario.generate_traces(&built, i);
        // Single execution on the whole platform.
        {
            let mut s = full_policy.session();
            let st = simulate(
                &full_spec,
                &mut *s,
                &traces_full.platform_events(),
                traces_full.topology.procs_per_unit() as u32,
                traces_full.start_time,
                traces_full.horizon,
                SimOptions::default(),
            );
            single.push(st.makespan);
        }
        // Replication: the same units split into two halves.
        let a = traces_full.prefix(units_half);
        let b = ckpt_platform::TraceSet {
            units: traces_full
                .units
                .iter()
                .take(units_full.min(2 * units_half))
                .skip(units_half)
                .collect(),
            topology: traces_full.topology,
            horizon: traces_full.horizon,
            start_time: traces_full.start_time,
        };
        {
            let mut sa = half_policy.session();
            let mut sb = half_policy.session();
            let st = simulate_replicated_independent(
                &half_spec,
                [&mut *sa, &mut *sb],
                [&a, &b],
                SimOptions::default(),
            );
            independent.push(st.makespan);
        }
        {
            let mut s = half_policy.session();
            let st = simulate_replicated_synchronized(
                &half_spec,
                &mut *s,
                [&a, &b],
                SimOptions::default(),
            );
            synchronized.push(st.makespan);
        }
    }
    ReplicationRow {
        single: Summary::from_samples(&single).mean(),
        independent: Summary::from_samples(&independent).mean(),
        synchronized: Summary::from_samples(&synchronized).mean(),
    }
}

/// One row of the energy/makespan period sweep.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Period factor relative to Young's period.
    pub factor: f64,
    /// Mean makespan, seconds.
    pub makespan: f64,
    /// Mean platform energy, joules.
    pub energy: f64,
}

/// Sweep the checkpoint period and report makespan and energy per factor.
pub fn energy_period_tradeoff(
    scenario: &Scenario,
    power: &PowerModel,
    factors: &[f64],
    traces: usize,
) -> Vec<EnergyRow> {
    let built = scenario.dist.build();
    let spec = scenario.job_spec();
    let base = young(&spec, built.proc_mtbf).period();
    factors
        .iter()
        .map(|&factor| {
            let policy = FixedPeriod::new("sweep", base * factor);
            let (mut mk, mut en) = (Vec::new(), Vec::new());
            for i in 0..traces {
                let tr = scenario.generate_traces(&built, i);
                let mut s = policy.session();
                let st = simulate(
                    &spec,
                    &mut *s,
                    &tr.platform_events(),
                    tr.topology.procs_per_unit() as u32,
                    tr.start_time,
                    tr.horizon,
                    SimOptions::default(),
                );
                mk.push(st.makespan);
                en.push(power.energy(&st, spec.procs));
            }
            EnergyRow {
                factor,
                makespan: Summary::from_samples(&mk).mean(),
                energy: Summary::from_samples(&en).mean(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DistSpec;
    use ckpt_workload::YEAR;

    fn small_peta(p: u64) -> Scenario {
        Scenario::petascale(
            DistSpec::Weibull { shape: 0.7, mtbf: 125.0 * YEAR },
            p,
            4,
        )
    }

    #[test]
    fn proc_count_series_is_computed() {
        let (series, best) = optimal_proc_count(
            small_peta,
            &PolicyKind::Young,
            &[1 << 9, 1 << 10, 1 << 11],
            3,
        );
        assert_eq!(series.len(), 3);
        assert!(series.iter().any(|&(p, _)| p == best));
        // With this failure rate more processors still help: makespan
        // decreases with p in this range.
        assert!(series[0].1 > series[2].1);
    }

    #[test]
    fn replication_study_runs() {
        let sc = small_peta(1 << 10);
        let row = replication_study(&sc, 3);
        assert!(row.single > 0.0 && row.independent > 0.0 && row.synchronized > 0.0);
        // Halving the platform doubles the EP work: replicas are slower
        // than the single full-platform run at this failure rate.
        assert!(row.independent > row.single * 1.5);
        // Synchronization can only help relative to independent replicas.
        assert!(row.synchronized <= row.independent * 1.001);
    }

    #[test]
    fn energy_tradeoff_monotonicities() {
        let sc = small_peta(1 << 10);
        let rows = energy_period_tradeoff(
            &sc,
            &PowerModel::typical_hpc(),
            &[0.25, 1.0, 4.0],
            3,
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.makespan > 0.0 && r.energy > 0.0);
        }
        // Very short periods burn more checkpoint I/O time → longer
        // makespan than the Young period.
        assert!(rows[0].makespan > rows[1].makespan);
    }
}
