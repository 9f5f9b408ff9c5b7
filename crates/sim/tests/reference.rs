//! The unit-level checks that need the retained linear-scan loop,
//! `hetero_oracles::sim::run_reference`. They live here because a unit
//! test cannot link a crate that depends on its own crate.

use energy_model::EnergyBreakdown;
use hetero_oracles::sim::run_reference;
use multicore_sim::{
    CoreId, CoreIndex, Decision, Job, JobExecution, NullSink, QueueDiscipline, RunMetrics,
    Scheduler, Simulator, StallPurityChecked,
};
use workloads::{ArrivalPlan, BenchmarkId};

/// Runs everything on core 0 for a fixed duration.
struct SingleCore {
    duration: u64,
    completions_seen: Vec<u64>,
}

impl Scheduler for SingleCore {
    fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
        if cores.is_idle(CoreId(0)) {
            Decision::run(
                CoreId(0),
                JobExecution {
                    cycles: self.duration,
                    energy: EnergyBreakdown {
                        dynamic_nj: 5.0,
                        ..EnergyBreakdown::new()
                    },
                },
            )
        } else {
            Decision::Stall
        }
    }

    fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
        1.0
    }

    fn on_complete(&mut self, job: &Job, _core: CoreId, _now: u64) {
        self.completions_seen.push(job.seq);
    }
}

#[test]
fn run_and_run_reference_agree_bit_for_bit() {
    for discipline in [
        QueueDiscipline::Fifo,
        QueueDiscipline::Priority,
        QueueDiscipline::PreemptivePriority,
    ] {
        let plan = ArrivalPlan::uniform_with_priorities(40, 3_000, 3, 3, 7);
        let sim = Simulator::new(2).with_discipline(discipline);
        let traced = sim.run(
            &plan,
            &mut SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
        );
        let reference = run_reference(
            &sim,
            &plan,
            &mut SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
        );
        assert_eq!(traced, reference, "{discipline:?}");
        assert_eq!(
            traced.energy.idle_nj.to_bits(),
            reference.energy.idle_nj.to_bits()
        );
        assert_eq!(
            traced.energy.dynamic_nj.to_bits(),
            reference.energy.dynamic_nj.to_bits()
        );
        assert_eq!(
            traced.energy.static_nj.to_bits(),
            reference.energy.static_nj.to_bits()
        );
    }
}

#[test]
fn empty_fault_plan_matches_reference_bit_for_bit() {
    use multicore_sim::{FaultPlan, FaultStats};
    for discipline in [
        QueueDiscipline::Fifo,
        QueueDiscipline::Priority,
        QueueDiscipline::PreemptivePriority,
    ] {
        let plan = ArrivalPlan::uniform_with_priorities(40, 3_000, 3, 3, 7);
        let sim = Simulator::new(2).with_discipline(discipline);
        let faulted = sim.run_with_faults(
            &plan,
            &mut SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
            &FaultPlan::empty(),
            &mut NullSink,
        );
        let reference = run_reference(
            &sim,
            &plan,
            &mut SingleCore {
                duration: 100,
                completions_seen: Vec::new(),
            },
        );
        assert_eq!(faulted.metrics, reference, "{discipline:?}");
        assert_eq!(
            faulted.metrics.energy.idle_nj.to_bits(),
            reference.energy.idle_nj.to_bits()
        );
        assert_eq!(
            faulted.metrics.energy.dynamic_nj.to_bits(),
            reference.energy.dynamic_nj.to_bits()
        );
        assert_eq!(faulted.faults, FaultStats::default());
    }
}

/// Every core idles at `base + 0.25 * placements`: a placement on
/// one core moves every other core's idle power, which breaks the
/// idle-power contract.
struct DriftingIdlePower {
    placements: u64,
    broken: bool,
}

impl Scheduler for DriftingIdlePower {
    fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
        match cores.first_idle() {
            Some(core) => {
                self.placements += 1;
                Decision::run(
                    core,
                    JobExecution {
                        cycles: 100,
                        energy: EnergyBreakdown::new(),
                    },
                )
            }
            None => Decision::Stall,
        }
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        let drift = if self.broken { self.placements } else { 0 };
        1.0 + core.0 as f64 + 0.25 * drift as f64
    }

    fn state_fingerprint(&self) -> u64 {
        self.placements
    }
}

fn check_idle_power(broken: bool) -> (StallPurityChecked<DriftingIdlePower>, RunMetrics) {
    use workloads::{Arrival, ArrivalPlan};
    // Staggered arrivals on four cores: each placement leaves other
    // cores idle, and the earlier placements already read them.
    let plan = ArrivalPlan::from_arrivals(
        [0, 10, 20, 30, 200, 210]
            .into_iter()
            .map(|t| Arrival::new(t, BenchmarkId(0)))
            .collect(),
    );
    let mut checked = StallPurityChecked::new(DriftingIdlePower {
        placements: 0,
        broken,
    });
    let metrics = Simulator::new(4).run(&plan, &mut checked);
    assert_eq!(metrics.jobs_completed, 6);
    (checked, metrics)
}

#[test]
fn idle_power_kept_per_core_passes_the_checker() {
    let (checked, _) = check_idle_power(false);
    assert!(checked.idle_power_checks() > 0);
    checked.assert_pure();
}

#[test]
fn idle_power_moved_by_another_cores_placement_is_a_violation() {
    let (checked, metrics) = check_idle_power(true);
    let violations = checked.violations();
    assert!(!violations.is_empty());
    assert!(
        violations.iter().all(|v| v.contains("moved idle")),
        "{violations:?}"
    );
    // The loop trusts the contract and charges its cached powers, so
    // the reference loop, which asks on every advance, disagrees.
    let reference = run_reference(
        &Simulator::new(4),
        &workloads::ArrivalPlan::from_arrivals(
            [0, 10, 20, 30, 200, 210]
                .into_iter()
                .map(|t| workloads::Arrival::new(t, BenchmarkId(0)))
                .collect(),
        ),
        &mut DriftingIdlePower {
            placements: 0,
            broken: true,
        },
    );
    assert_ne!(metrics.energy.idle_nj, reference.energy.idle_nj);
}
