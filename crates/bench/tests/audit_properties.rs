//! Cross-crate audit properties: the flight recorder's [`LedgerAuditor`]
//! must re-derive every scheduling system's [`RunMetrics`] ledger exactly
//! (energies to the bit, counters precisely), and every single-site
//! tampering of a recorded trace must be rejected.

use hetero_bench::tamper::MUTATIONS;
use hetero_bench::{SystemKind, Testbed};
use multicore_sim::{
    LedgerAuditor, QueueDiscipline, RecordingSink, RunMetrics, Simulator, StallPurityChecked,
    TraceEvent,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use workloads::ArrivalPlan;

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

/// Run one of the four systems traced, with the stall-purity checker
/// attached. Returns the simulator ledger, the event stream, and any
/// purity violations.
fn run_traced(
    kind: SystemKind,
    discipline: QueueDiscipline,
    plan: &ArrivalPlan,
) -> (RunMetrics, Vec<TraceEvent>, Vec<String>) {
    let t = Testbed::shared_small();
    let mut checked = StallPurityChecked::new(t.system(kind));
    let mut sink = RecordingSink::new();
    let metrics = Simulator::new(t.arch.num_cores())
        .with_discipline(discipline)
        .run_with_sink(plan, &mut checked, &mut sink);
    (metrics, sink.into_events(), checked.violations().to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every system x discipline x random workload — dense
    /// (contended) and sparse (idle-heavy gaps) alike — the auditor's
    /// replay of the event stream equals the simulator's ledger
    /// bit-for-bit, and no Stall-returning call mutates policy state.
    #[test]
    fn every_system_ledger_replays_bit_for_bit(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..120,
        seed in 0u64..1_000,
        sparse in 0usize..2,
    ) {
        let t = Testbed::shared_small();
        // Sparse horizons leave long all-idle gaps between arrivals;
        // dense ones force contention (stalls, and evictions under the
        // preemptive discipline).
        let horizon = if sparse == 1 { 80_000_000 } else { 4_000_000 };
        let plan = ArrivalPlan::uniform_with_priorities(jobs, horizon, t.suite.len(), 3, seed);
        let (metrics, events, purity_violations) =
            run_traced(SystemKind::ALL[system_index], DISCIPLINES[discipline_index], &plan);

        prop_assert_eq!(metrics.jobs_completed, jobs as u64);
        prop_assert!(
            purity_violations.is_empty(),
            "stall purity violated: {:?}",
            purity_violations
        );
        let outcome = LedgerAuditor::new(t.arch.num_cores()).check(&events, &metrics.into());
        prop_assert!(outcome.is_ok(), "ledger diverged: {:?}", outcome.err());
    }
}

/// A dense preemptive workload on the base system, recorded once: the
/// eviction-bearing fixture for the tamper test below. (The base
/// system takes any idle core, so it never stalls — stall tampering
/// uses [`recorded_stall_run`] instead.)
fn recorded_preemptive_run() -> &'static (RunMetrics, Vec<TraceEvent>) {
    static RUN: OnceLock<(RunMetrics, Vec<TraceEvent>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(250, 2_500_000, t.suite.len(), 3, 9);
        let (metrics, events, purity) =
            run_traced(SystemKind::Base, QueueDiscipline::PreemptivePriority, &plan);
        assert!(purity.is_empty(), "fixture run must be pure: {purity:?}");
        (metrics, events)
    })
}

/// A dense workload on the energy-centric system (the always-stall
/// comparator), recorded once: the stall-bearing fixture.
fn recorded_stall_run() -> &'static (RunMetrics, Vec<TraceEvent>) {
    static RUN: OnceLock<(RunMetrics, Vec<TraceEvent>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(150, 2_500_000, t.suite.len(), 3, 9);
        let (metrics, events, purity) =
            run_traced(SystemKind::EnergyCentric, QueueDiscipline::Fifo, &plan);
        assert!(purity.is_empty(), "fixture run must be pure: {purity:?}");
        (metrics, events)
    })
}

fn assert_rejected(events: &[TraceEvent], metrics: &RunMetrics, what: &str) {
    let auditor = LedgerAuditor::new(Testbed::shared_small().arch.num_cores());
    assert!(
        auditor.check(events, &metrics.clone().into()).is_err(),
        "auditor accepted a tampered trace: {what}"
    );
}

#[test]
fn fixtures_exercise_stalls_and_evictions() {
    let (metrics, events) = recorded_preemptive_run();
    assert!(metrics.preemptions > 0, "eviction fixture needs evictions");
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Eviction { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::IdleAdvance { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::IdlePower { .. })));
    let auditor = LedgerAuditor::new(Testbed::shared_small().arch.num_cores());
    assert!(auditor.check(events, &metrics.clone().into()).is_ok());

    let (metrics, events) = recorded_stall_run();
    assert!(metrics.stall_offers > 0, "stall fixture needs stalls");
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Stall { .. })));
    assert!(auditor.check(events, &metrics.clone().into()).is_ok());
}

/// Every mutation of the shared tamper list applies to at least one of
/// the two fixtures, and the auditor rejects each tampered trace.
#[test]
fn every_tampered_trace_is_rejected() {
    for (name, mutate) in MUTATIONS {
        let mut applied = 0;
        for (metrics, events) in [recorded_preemptive_run(), recorded_stall_run()] {
            if let Some(tampered) = mutate(events) {
                applied += 1;
                assert_rejected(&tampered, metrics, name);
            }
        }
        assert!(applied > 0, "no fixture admits the mutation: {name}");
    }
}

#[test]
fn misreported_metrics_are_detected() {
    let (metrics, events) = recorded_preemptive_run();
    let mut wrong = metrics.clone();
    wrong.stalls = wrong.stalls.wrapping_add(1);
    assert_rejected(events, &wrong, "over-reported stall episodes");
    let mut wrong = metrics.clone();
    wrong.energy.idle_nj = f64::from_bits(wrong.energy.idle_nj.to_bits().wrapping_add(1));
    assert_rejected(events, &wrong, "idle energy off by one ulp");
}
