//! Cross-path bit-identity for the indexed event loop: for every system
//! and discipline, the four ways of driving a simulation — the indexed
//! loop (`run`), the retained linear-scan reference (`run_reference`),
//! the traced loop with a recording sink (`run_with_sink`), and the
//! fault-injection loop with an empty plan (`run_with_faults`) — must
//! produce one `RunMetrics`, equal to the bit in every energy field.
//!
//! This is the contract that lets `run_reference` serve as the oracle for
//! the `sim_manycore` perf stage: the indexed structures may only change
//! the *cost* of a run, never its result.

use hetero_bench::{tiled_architecture, SystemKind, Testbed};
use hetero_core::ProposedSystem;
use hetero_oracles::sim::run_reference;
use multicore_sim::{
    ledger_divergences, CoreId, CoreIndex, CoreSet, Decision, FaultPlan, Job, LedgerAuditor,
    NullSink, QueueDiscipline, RecordingSink, Scheduler, Simulator,
};
use proptest::prelude::*;
use workloads::ArrivalPlan;

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The indexed loop, the linear-scan reference, the traced loop, and
    /// the no-fault faulted loop agree to the bit for every system and
    /// discipline on the paper's 4-core configuration.
    #[test]
    fn all_four_paths_agree_bit_for_bit(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let kind = SystemKind::ALL[system_index];
        let sim = Simulator::new(t.arch.num_cores()).with_discipline(DISCIPLINES[discipline_index]);
        let indexed = sim.run(&plan, &mut t.system(kind));
        let reference = run_reference(&sim, &plan, &mut t.system(kind));
        let traced = sim.run_with_sink(&plan, &mut t.system(kind), &mut RecordingSink::new());
        let faulted = sim
            .run_with_faults(&plan, &mut t.system(kind), &FaultPlan::empty(), &mut NullSink)
            .metrics;
        for (path, metrics) in [("reference", &reference), ("traced", &traced), ("faulted", &faulted)] {
            let divergences = ledger_divergences(&indexed, metrics);
            prop_assert!(divergences.is_empty(), "{}: {:?}", path, divergences);
        }
        prop_assert_eq!(indexed.jobs_completed, jobs as u64);
    }
}

/// The paper's 2/4/8/8 quad tiled to 64 cores: the proposed system's
/// masked size-set placements (`first_idle_in` over the intersection of
/// the architecture's `CoreSet` and the idle mask) must still complete
/// every job, agree with the linear-scan reference to the bit, and
/// replay to a clean ledger at a scale where the masks span a full word.
#[test]
fn manycore_tiled_proposed_matches_reference_and_audits_clean() {
    let t = Testbed::shared_small();
    let cores = 64;
    let arch = tiled_architecture(cores);
    let plan = ArrivalPlan::uniform_with_priorities(640, 8_000_000, t.suite.len(), 3, 9);
    let sim = Simulator::new(cores).with_discipline(QueueDiscipline::Priority);

    let mut sink = RecordingSink::new();
    let mut system = ProposedSystem::with_model(&arch, &t.oracle, t.model, t.predictor.clone());
    let traced = sim.run_with_sink(&plan, &mut system, &mut sink);
    assert_eq!(traced.jobs_completed, 640);
    let outcome = LedgerAuditor::new(cores).check(sink.events(), &traced.clone().into());
    assert!(outcome.is_ok(), "64-core audit failed: {:?}", outcome.err());

    let mut again = ProposedSystem::with_model(&arch, &t.oracle, t.model, t.predictor.clone());
    let reference = run_reference(&sim, &plan, &mut again);
    let divergences = ledger_divergences(&traced, &reference);
    assert!(divergences.is_empty(), "{divergences:?}");
}

/// Forwards every `Scheduler` method but the idle power, which is a fixed
/// function of the core.
struct FixedIdle<S> {
    inner: S,
    power: fn(CoreId) -> f64,
}

impl<S: Scheduler> Scheduler for FixedIdle<S> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        self.inner.schedule(job, cores, now)
    }

    fn waits_for(&self, job: &Job) -> Option<&CoreSet> {
        self.inner.waits_for(job)
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        (self.power)(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

/// The small testbed's suite, oracle and predictor on the paper quad
/// tiled to `cores` cores.
fn tiled(cores: usize) -> Testbed {
    let small = Testbed::shared_small();
    Testbed {
        suite: small.suite.clone(),
        model: small.model,
        oracle: small.oracle.clone(),
        arch: tiled_architecture(cores),
        predictor: small.predictor.clone(),
    }
}

/// At 1 nJ/cycle on every core, idle energy is idle cycles: every core
/// is idle or busy over `[0, total_cycles)` of a fault-free run, so
/// `idle_nj` is exactly `cores × total_cycles − Σ busy_cycles`, for every
/// system and discipline, on the paper quad and tiled to 256 cores.
#[test]
fn unit_idle_power_conserves_cycles_exactly() {
    let wide = tiled(256);
    for (t, jobs, horizon) in [
        (Testbed::shared_small(), 200, 4_000_000),
        (&wide, 1_200, 150_000),
    ] {
        let cores = t.arch.num_cores();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, horizon, t.suite.len(), 3, 11);
        for kind in SystemKind::ALL {
            for discipline in DISCIPLINES {
                let mut system = FixedIdle {
                    inner: t.system(kind),
                    power: |_| 1.0,
                };
                let metrics = Simulator::new(cores)
                    .with_discipline(discipline)
                    .run(&plan, &mut system);
                let busy: u64 = metrics.busy_cycles.iter().sum();
                let idle = cores as u64 * metrics.total_cycles - busy;
                assert_eq!(
                    metrics.energy.idle_nj, idle as f64,
                    "{kind:?} {discipline:?} on {cores} cores"
                );
                assert_eq!(metrics.jobs_completed, jobs as u64);
            }
        }
    }
}

/// One idle-power class per core: 1024 distinct powers, folded in
/// ascending power order, agree with the reference to the bit.
#[test]
fn one_idle_power_per_core_matches_reference_at_1024_cores() {
    let t = tiled(1024);
    let plan = ArrivalPlan::uniform_with_priorities(3_000, 300_000, t.suite.len(), 3, 13);
    let sim = Simulator::new(1024);
    let system = || FixedIdle {
        inner: t.system(SystemKind::Base),
        power: |core| 0.5 + core.0 as f64 * 0.125,
    };
    let indexed = sim.run(&plan, &mut system());
    let reference = run_reference(&sim, &plan, &mut system());
    let divergences = ledger_divergences(&indexed, &reference);
    assert!(divergences.is_empty(), "{divergences:?}");
    assert_eq!(indexed.jobs_completed, 3_000);
    // Most classes both ran and idled.
    let used = indexed.busy_cycles.iter().filter(|&&busy| busy > 0).count();
    assert!(used > 512, "{used} of 1024 cores ran a job");
}
