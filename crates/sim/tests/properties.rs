//! Property-based tests for the discrete-event simulator.

use energy_model::EnergyBreakdown;
use hetero_oracles::sim::run_reference;
use multicore_sim::{
    CoreId, CoreIndex, Decision, FaultConfig, FaultPlan, FaultStats, Job, JobExecution,
    LedgerAuditor, NullSink, QueueDiscipline, RecordingSink, Scheduler, Simulator,
};
use proptest::prelude::*;
use workloads::{Arrival, ArrivalPlan, BenchmarkId};

/// A deterministic work-conserving policy: first idle core, duration
/// derived from the benchmark id, unit idle power.
struct FirstIdle;

impl Scheduler for FirstIdle {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
        match cores.first_idle() {
            Some(core) => Decision::run(
                core,
                JobExecution {
                    cycles: 50 + 13 * (job.benchmark.0 as u64 % 7),
                    energy: EnergyBreakdown {
                        dynamic_nj: 1.0,
                        ..EnergyBreakdown::new()
                    },
                },
            ),
            None => Decision::Stall,
        }
    }

    fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
        1.0
    }
}

fn arbitrary_plan(max_jobs: usize) -> impl Strategy<Value = ArrivalPlan> {
    prop::collection::vec((0u64..100_000, 0usize..20, 0u8..3), 0..max_jobs).prop_map(|list| {
        ArrivalPlan::from_arrivals(
            list.into_iter()
                .map(|(time, benchmark, priority)| Arrival {
                    time,
                    benchmark: BenchmarkId(benchmark),
                    priority,
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every arrived job completes, under every discipline (including
    /// preemptive restarts).
    #[test]
    fn conservation_of_jobs(
        plan in arbitrary_plan(120),
        cores in 1usize..6,
        discipline_index in 0usize..3,
    ) {
        let discipline = [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ][discipline_index];
        let metrics =
            Simulator::new(cores).with_discipline(discipline).run(&plan, &mut FirstIdle);
        prop_assert_eq!(metrics.jobs_completed, plan.len() as u64);
        let per_class: u64 = metrics.by_priority.values().map(|c| c.jobs).sum();
        prop_assert_eq!(per_class, plan.len() as u64);
        if discipline != QueueDiscipline::PreemptivePriority {
            prop_assert_eq!(metrics.preemptions, 0);
        }
    }

    /// Preemption never loses energy accounting: dynamic energy equals
    /// 1 nJ per completed job plus the charged fraction of each evicted
    /// partial run — so it is at least jobs and at most jobs + preemptions.
    #[test]
    fn preemptive_energy_accounting_is_bounded(
        plan in arbitrary_plan(120),
        cores in 1usize..4,
    ) {
        let metrics = Simulator::new(cores)
            .with_discipline(QueueDiscipline::PreemptivePriority)
            .run(&plan, &mut FirstIdle);
        let jobs = plan.len() as f64;
        prop_assert!(metrics.energy.dynamic_nj >= jobs - 1e-9);
        prop_assert!(
            metrics.energy.dynamic_nj <= jobs + metrics.preemptions as f64 + 1e-9,
            "dynamic {} vs jobs {} + preemptions {}",
            metrics.energy.dynamic_nj, jobs, metrics.preemptions
        );
    }

    /// With unit idle power, idle energy equals exactly the idle
    /// core-cycles before the final completion:
    /// `cores * makespan - total busy cycles`.
    #[test]
    fn idle_energy_identity(
        plan in arbitrary_plan(100),
        cores in 1usize..5,
    ) {
        let metrics = Simulator::new(cores).run(&plan, &mut FirstIdle);
        let busy: u64 = metrics.busy_cycles.iter().sum();
        let expected = (cores as u64 * metrics.total_cycles).saturating_sub(busy) as f64;
        prop_assert!(
            (metrics.energy.idle_nj - expected).abs() < 1e-6,
            "idle {} vs expected {}", metrics.energy.idle_nj, expected
        );
    }

    /// Makespan is at least the last arrival plus its execution, and total
    /// busy cycles never exceed cores * makespan.
    #[test]
    fn makespan_bounds(
        plan in arbitrary_plan(100),
        cores in 1usize..5,
    ) {
        let metrics = Simulator::new(cores).run(&plan, &mut FirstIdle);
        if !plan.is_empty() {
            prop_assert!(metrics.total_cycles > plan.horizon());
        }
        let busy: u64 = metrics.busy_cycles.iter().sum();
        prop_assert!(busy <= cores as u64 * metrics.total_cycles);
    }

    /// Turnaround decomposes exactly over priority classes.
    #[test]
    fn turnaround_decomposes_over_classes(
        plan in arbitrary_plan(100),
    ) {
        let metrics = Simulator::new(2)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut FirstIdle);
        let per_class: u64 = metrics.by_priority.values().map(|c| c.turnaround_cycles).sum();
        prop_assert_eq!(per_class, metrics.turnaround_cycles);
    }

    /// Dynamic energy equals 1 nJ per completed job for this policy, under
    /// both disciplines, and the discipline never changes total work.
    #[test]
    fn discipline_preserves_work(
        plan in arbitrary_plan(100),
        cores in 1usize..5,
    ) {
        let fifo = Simulator::new(cores).run(&plan, &mut FirstIdle);
        let priority = Simulator::new(cores)
            .with_discipline(QueueDiscipline::Priority)
            .run(&plan, &mut FirstIdle);
        prop_assert_eq!(fifo.energy.dynamic_nj, plan.len() as f64);
        prop_assert_eq!(priority.energy.dynamic_nj, plan.len() as f64);
        let fifo_busy: u64 = fifo.busy_cycles.iter().sum();
        let priority_busy: u64 = priority.busy_cycles.iter().sum();
        prop_assert_eq!(fifo_busy, priority_busy, "same jobs, same durations");
    }

    /// The flight recorder's auditor re-derives the full ledger from the
    /// event stream, bit-for-bit, under every discipline — including runs
    /// with evictions and idle-heavy arrival gaps.
    #[test]
    fn auditor_ledger_matches_metrics(
        plan in arbitrary_plan(120),
        cores in 1usize..6,
        discipline_index in 0usize..3,
    ) {
        let discipline = [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ][discipline_index];
        let mut sink = RecordingSink::new();
        let metrics = Simulator::new(cores)
            .with_discipline(discipline)
            .run_with_sink(&plan, &mut FirstIdle, &mut sink);
        let outcome = LedgerAuditor::new(cores).check(sink.events(), &metrics.into());
        prop_assert!(outcome.is_ok(), "audit failed: {:?}", outcome.err());
    }

    /// The traced loop with the NullSink produces bit-identical metrics to
    /// the verbatim pre-trace reference loop.
    #[test]
    fn traced_run_matches_reference_bit_for_bit(
        plan in arbitrary_plan(120),
        cores in 1usize..6,
        discipline_index in 0usize..3,
    ) {
        let discipline = [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ][discipline_index];
        let sim = Simulator::new(cores).with_discipline(discipline);
        let traced = sim.run(&plan, &mut FirstIdle);
        let reference = run_reference(&sim, &plan, &mut FirstIdle);
        prop_assert_eq!(&traced, &reference);
        prop_assert_eq!(
            traced.energy.idle_nj.to_bits(),
            reference.energy.idle_nj.to_bits()
        );
        prop_assert_eq!(
            traced.energy.dynamic_nj.to_bits(),
            reference.energy.dynamic_nj.to_bits()
        );
        prop_assert_eq!(
            traced.energy.static_nj.to_bits(),
            reference.energy.static_nj.to_bits()
        );
    }

    /// With fault rate 0 the fault-injecting loop is the identity: metrics
    /// bit-identical to the verbatim reference loop, zero fault counters,
    /// under every discipline.
    #[test]
    fn zero_fault_rate_is_bit_identical_to_reference(
        plan in arbitrary_plan(120),
        cores in 1usize..6,
        discipline_index in 0usize..3,
    ) {
        let discipline = [
            QueueDiscipline::Fifo,
            QueueDiscipline::Priority,
            QueueDiscipline::PreemptivePriority,
        ][discipline_index];
        let sim = Simulator::new(cores).with_discipline(discipline);
        let faulted = sim.run_with_faults(
            &plan,
            &mut FirstIdle,
            &FaultPlan::empty(),
            &mut NullSink,
        );
        let reference = run_reference(&sim, &plan, &mut FirstIdle);
        prop_assert_eq!(&faulted.metrics, &reference);
        prop_assert_eq!(
            faulted.metrics.energy.idle_nj.to_bits(),
            reference.energy.idle_nj.to_bits()
        );
        prop_assert_eq!(
            faulted.metrics.energy.dynamic_nj.to_bits(),
            reference.energy.dynamic_nj.to_bits()
        );
        prop_assert_eq!(
            faulted.metrics.energy.static_nj.to_bits(),
            reference.energy.static_nj.to_bits()
        );
        prop_assert_eq!(faulted.faults, FaultStats::default());

        // A fault *plan* built from an all-zero-rate config is likewise
        // empty, so the builder itself cannot perturb a clean run.
        let built = FaultPlan::build(&FaultConfig::none(), cores);
        prop_assert!(built.is_empty());
    }

    /// Under arbitrary fault regimes: no job is ever lost (every arrival
    /// completes or is explicitly abandoned), retries stay bounded, and
    /// the recorded trace replays to the exact ledger and fault counters.
    #[test]
    fn faulted_runs_conserve_jobs_and_audit_clean(
        plan in arbitrary_plan(80),
        cores in 1usize..5,
        rate_permille in 0u32..900,
        seed in 0u64..1_000,
    ) {
        let config = FaultConfig::chaos(f64::from(rate_permille) / 1000.0, seed, 120_000);
        let fault_plan = FaultPlan::build(&config, cores);
        let mut sink = RecordingSink::new();
        let run = Simulator::new(cores).run_with_faults(
            &plan,
            &mut FirstIdle,
            &fault_plan,
            &mut sink,
        );
        prop_assert_eq!(
            run.metrics.jobs_completed + run.faults.jobs_failed,
            plan.len() as u64,
            "conservation of jobs"
        );
        prop_assert!(run.faults.max_attempts_observed <= config.max_attempts);
        let outcome = LedgerAuditor::new(cores).check(sink.events(), &run.into());
        prop_assert!(outcome.is_ok(), "fault audit failed: {:?}", outcome.err());
    }

    /// The fault schedule itself is a pure function of (config, cores):
    /// rebuilding it yields an identical plan, so chaos runs are exactly
    /// repeatable.
    #[test]
    fn fault_plans_are_reproducible(
        rate_permille in 0u32..1_000,
        seed in 0u64..1_000,
        cores in 1usize..6,
    ) {
        let config = FaultConfig::chaos(f64::from(rate_permille) / 1000.0, seed, 90_000);
        let first = FaultPlan::build(&config, cores);
        let second = FaultPlan::build(&config, cores);
        prop_assert_eq!(first, second);
    }
}

/// Many-core smoke: 1024 cores, a saturating burst, full event trace.
/// Exercises the multi-word bitset paths (16 mask words) end to end and
/// replays the trace through the auditor to prove the ledger still
/// conserves jobs and energy at scale.
#[test]
fn manycore_1024_smoke_conserves_and_audits_clean() {
    let cores = 1024;
    let plan = ArrivalPlan::uniform_with_priorities(4 * cores, 200_000, 20, 3, 7);
    for discipline in [
        QueueDiscipline::Fifo,
        QueueDiscipline::Priority,
        QueueDiscipline::PreemptivePriority,
    ] {
        let mut sink = RecordingSink::new();
        let metrics = Simulator::new(cores)
            .with_discipline(discipline)
            .run_with_sink(&plan, &mut FirstIdle, &mut sink);
        assert_eq!(metrics.jobs_completed, plan.len() as u64);
        let outcome = LedgerAuditor::new(cores).check(sink.events(), &metrics.into());
        assert!(
            outcome.is_ok(),
            "1024-core audit failed: {:?}",
            outcome.err()
        );
    }
}
