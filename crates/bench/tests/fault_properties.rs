//! Cross-crate fault-injection properties: the faulted simulation loop
//! must be invisible when no faults are scheduled, degrade every system
//! gracefully when they are, and collapse the predictive systems to the
//! base system's placements under a full predictor blackout.

use hetero_bench::{SystemKind, Testbed};
use hetero_core::FallbackChain;
use hetero_oracles::sim::run_reference;
use multicore_sim::{
    ledger_divergences, FaultConfig, FaultPlan, FaultStats, FaultedRun, LedgerAuditor,
    QueueDiscipline, RecordingSink, Simulator, StallPurityChecked, TraceEvent,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use workloads::ArrivalPlan;

/// The trained fallback chain, shared across cases like the testbed.
fn chain() -> &'static FallbackChain {
    static CHAIN: OnceLock<FallbackChain> = OnceLock::new();
    CHAIN.get_or_init(|| FallbackChain::train(&Testbed::shared_small().oracle))
}

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

/// Run one of the four systems through the faulted loop with the purity
/// checker attached; predictive systems subscribe to the fault plan.
fn run_faulted(
    kind: SystemKind,
    discipline: QueueDiscipline,
    plan: &ArrivalPlan,
    faults: &FaultPlan,
) -> (FaultedRun, Vec<TraceEvent>, Vec<String>) {
    let t = Testbed::shared_small();
    let mut checked = StallPurityChecked::new(t.system(kind).with_faults(faults, chain().clone()));
    let mut sink = RecordingSink::new();
    let run = Simulator::new(t.arch.num_cores())
        .with_discipline(discipline)
        .run_with_faults(plan, &mut checked, faults, &mut sink);
    (run, sink.into_events(), checked.violations().to_vec())
}

fn placements(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Placement { .. }))
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// With a fault rate of zero the faulted loop is *bit-identical* to
    /// the untraced reference loop for every system and discipline: same
    /// ledger (energies to the bit), zero fault activity.
    #[test]
    fn zero_fault_rate_is_bit_identical_to_the_reference_loop(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let empty = FaultPlan::build(&FaultConfig::none(), t.arch.num_cores());
        prop_assert!(empty.is_empty());

        let kind = SystemKind::ALL[system_index];
        let discipline = DISCIPLINES[discipline_index];
        let (run, _, purity) = run_faulted(kind, discipline, &plan, &empty);
        let reference = run_reference(
            &Simulator::new(t.arch.num_cores()).with_discipline(discipline),
            &plan,
            &mut t.system(kind),
        );

        prop_assert!(purity.is_empty(), "stall purity violated: {:?}", purity);
        prop_assert_eq!(run.faults, FaultStats::default());
        let divergences = ledger_divergences(&run.metrics, &reference);
        prop_assert!(divergences.is_empty(), "{:?}", divergences);
    }

    /// Under arbitrary chaos no system ever loses a job, exceeds the
    /// retry cap, or breaks the bit-exact ledger audit.
    #[test]
    fn chaos_conserves_jobs_and_audits_clean_for_every_system(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        rate in 0.0f64..0.8,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let jobs = 60usize;
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 5_000_000, t.suite.len(), 3, seed);
        let config = FaultConfig::chaos(rate, seed, 8_000_000);
        let faults = FaultPlan::build(&config, t.arch.num_cores());

        let (run, events, purity) =
            run_faulted(SystemKind::ALL[system_index], DISCIPLINES[discipline_index], &plan, &faults);

        prop_assert!(purity.is_empty(), "stall purity violated: {:?}", purity);
        prop_assert_eq!(
            run.metrics.jobs_completed + run.faults.jobs_failed,
            jobs as u64,
            "lost jobs"
        );
        prop_assert!(run.faults.max_attempts_observed <= config.max_attempts);
        let outcome = LedgerAuditor::new(t.arch.num_cores()).check(&events, &run.into());
        prop_assert!(outcome.is_ok(), "ledger diverged: {:?}", outcome.err());
    }

    /// Under a 100% predictor outage the proposed system's placements —
    /// job, core, timing, cycles, and energies, to the bit — equal the
    /// base system's: the fallback chain bottoms out at exactly the
    /// base configuration on the first idle core.
    #[test]
    fn total_predictor_blackout_collapses_proposed_to_the_base_system(
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let blackout = FaultPlan::build(&FaultConfig::predictor_blackout(seed), t.arch.num_cores());

        let (proposed_run, proposed_events, _) =
            run_faulted(SystemKind::Proposed, QueueDiscipline::Fifo, &plan, &blackout);
        let (base_run, base_events, _) =
            run_faulted(SystemKind::Base, QueueDiscipline::Fifo, &plan, &blackout);

        prop_assert_eq!(proposed_run.metrics.jobs_completed, jobs as u64);
        prop_assert_eq!(base_run.metrics.jobs_completed, jobs as u64);
        prop_assert_eq!(placements(&proposed_events), placements(&base_events));
    }
}
