//! Cross-crate audit properties: the flight recorder's [`LedgerAuditor`]
//! must re-derive every scheduling system's [`RunMetrics`] ledger exactly
//! (energies to the bit, counters precisely), and every single-site
//! tampering of a recorded trace must be rejected.

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
        let outcome = LedgerAuditor::new(t.arch.num_cores()).check(&events, &metrics);
        prop_assert!(outcome.is_ok(), "ledger diverged: {:?}", outcome.err());
    }
}

/// A dense preemptive workload on the base system, recorded once: the
/// eviction-bearing fixture for the tamper tests below. (The base
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
        auditor.check(events, metrics).is_err(),
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
    assert!(auditor.check(events, metrics).is_ok());

    let (metrics, events) = recorded_stall_run();
    assert!(metrics.stall_offers > 0, "stall fixture needs stalls");
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Stall { .. })));
    assert!(auditor.check(events, metrics).is_ok());
}

#[test]
fn dropping_any_accounting_event_is_detected() {
    let (metrics, events) = recorded_preemptive_run();
    for kind in [
        "arrival",
        "idle_advance",
        "idle_power",
        "placement",
        "eviction",
        "completion",
    ] {
        let index = events
            .iter()
            .position(|e| e.kind_name() == kind)
            .unwrap_or_else(|| panic!("eviction fixture must contain a {kind}"));
        let mut tampered = events.clone();
        tampered.remove(index);
        assert_rejected(&tampered, metrics, &format!("dropped first {kind}"));
    }

    let (metrics, events) = recorded_stall_run();
    let index = events
        .iter()
        .position(|e| e.kind_name() == "stall")
        .expect("stall fixture must contain a stall");
    let mut tampered = events.clone();
    tampered.remove(index);
    assert_rejected(&tampered, metrics, "dropped first stall");
}

#[test]
fn perturbing_any_energy_operand_is_detected() {
    let (metrics, events) = recorded_preemptive_run();

    let mut tampered = events.clone();
    for event in &mut tampered {
        if let TraceEvent::Placement { dynamic_nj, .. } = event {
            *dynamic_nj += 0.5;
            break;
        }
    }
    assert_rejected(&tampered, metrics, "inflated placement dynamic energy");

    let mut tampered = events.clone();
    for event in &mut tampered {
        if let TraceEvent::Placement { static_nj, .. } = event {
            *static_nj *= 2.0;
            break;
        }
    }
    assert_rejected(&tampered, metrics, "doubled placement static energy");

    let mut tampered = events.clone();
    for event in &mut tampered {
        if let TraceEvent::IdlePower {
            idle_power_nj_per_cycle,
            ..
        } = event
        {
            *idle_power_nj_per_cycle *= 0.5;
            break;
        }
    }
    assert_rejected(&tampered, metrics, "discounted idle power");

    let mut tampered = events.clone();
    for event in &mut tampered {
        if let TraceEvent::IdleAdvance { to, .. } = event {
            *to += 1;
            break;
        }
    }
    assert_rejected(&tampered, metrics, "stretched idle advance");
}

#[test]
fn forging_an_eviction_refund_is_detected() {
    let (metrics, events) = recorded_preemptive_run();
    let mut tampered = events.clone();
    for event in &mut tampered {
        if let TraceEvent::Eviction {
            remaining_cycles, ..
        } = event
        {
            *remaining_cycles += 1;
            break;
        }
    }
    assert_rejected(&tampered, metrics, "inflated eviction refund fraction");
}

#[test]
fn shifting_a_completion_is_detected() {
    let (metrics, events) = recorded_preemptive_run();
    let mut tampered = events.clone();
    for event in &mut tampered {
        if let TraceEvent::Completion { at, .. } = event {
            *at += 1;
            break;
        }
    }
    assert_rejected(&tampered, metrics, "shifted completion timestamp");
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
