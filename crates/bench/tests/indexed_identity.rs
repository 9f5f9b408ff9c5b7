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
    ledger_divergences, FaultPlan, LedgerAuditor, NullSink, QueueDiscipline, RecordingSink,
    Simulator,
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
    let outcome = LedgerAuditor::new(cores).check(sink.events(), &traced);
    assert!(outcome.is_ok(), "64-core audit failed: {:?}", outcome.err());

    let mut again = ProposedSystem::with_model(&arch, &t.oracle, t.model, t.predictor.clone());
    let reference = run_reference(&sim, &plan, &mut again);
    let divergences = ledger_divergences(&traced, &reference);
    assert!(divergences.is_empty(), "{divergences:?}");
}
