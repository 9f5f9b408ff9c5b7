//! Governor and observability-plane fidelity: attaching either layer
//! disabled must never change the run, and what the plane records must
//! be a lossless account of it.
//!
//! Three contracts, property-tested over every system and discipline:
//!
//! 1. In every cell of the 2×2 matrix — governor `None` /
//!    `Some(`[`OverloadConfig::disabled`]`)` × plane `None` /
//!    `Some(`[`ObserveConfig::disabled`]`)` — `hetero_engine::run`
//!    returns `RunMetrics` bit-identical to the batch `Simulator::run`
//!    and the same engine report: disabled layers are pure pass-through.
//! 2. Assembled spans conserve jobs (every arrival ends in exactly one
//!    terminal span) and the Perfetto export both passes the schema
//!    validator and survives a round-trip through the in-repo JSON
//!    parser unchanged.
//! 3. Under a shedding governor, every shed arrival gets a terminal
//!    shed span: arrivals = completed + shed on the span books exactly
//!    as on the governor's ledger.
//! 4. Under every combination of governor mechanisms, the governed
//!    trace passes the extended ledger audit (`offered = admitted +
//!    shed`), its shed events match the governor's counts by reason,
//!    and tier dwell tiles the horizon.

use hetero_bench::json::Json;
use hetero_bench::perfetto::{perfetto_document, validate_perfetto};
use hetero_bench::{SystemKind, Testbed};
use hetero_engine::{
    BreakerConfig, BreakerState, BrownoutConfig, EngineConfig, EngineReport, GovernorHandle,
    ObserveConfig, Outcome, OverloadConfig, RunSpec, ServeStats, ShedPolicy, SloPolicy,
    TokenBucketConfig,
};
use hetero_telemetry::{JobPhase, SpanClose};
use multicore_sim::{
    ledger_divergences, tier_cell, Audit, LedgerAuditor, QueueDiscipline, RecordingSink,
    ServingTier, ShedReason, Simulator, TraceEvent,
};
use proptest::prelude::*;
use workloads::ArrivalPlan;

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

fn engine_config() -> EngineConfig {
    EngineConfig {
        window_cycles: 50_000,
        snapshot_windows: 4,
        max_snapshots: usize::MAX,
        slo: SloPolicy::default(),
    }
}

/// A streamed run of `plan` on `kind` under `overload` and `observe`.
fn run_spec(
    sim: &Simulator,
    plan: &ArrivalPlan,
    kind: SystemKind,
    overload: Option<OverloadConfig>,
    observe: Option<ObserveConfig>,
) -> Outcome {
    let spec = RunSpec {
        engine: engine_config(),
        overload,
        observe,
        tier: None,
    };
    let mut system = Testbed::shared_small().system(kind);
    hetero_engine::run(sim, plan.iter().copied(), &mut system, &spec)
        .expect("no scrape port to bind")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 1: disabled layers are bit-invisible in every cell of the
    /// governor × plane matrix, on every system and discipline.
    #[test]
    fn disabled_layers_are_bit_invisible_in_every_cell(
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        for kind in SystemKind::ALL {
            for discipline in DISCIPLINES {
                let sim = Simulator::new(t.arch.num_cores()).with_discipline(discipline);
                let batch = sim.run(&plan, &mut t.system(kind));
                let mut first: Option<EngineReport> = None;
                for overload in [None, Some(OverloadConfig::disabled())] {
                    for observe in [None, Some(ObserveConfig::disabled())] {
                        let outcome = run_spec(&sim, &plan, kind, overload.clone(), observe);
                        let divergences = ledger_divergences(&batch, &outcome.metrics);
                        prop_assert!(divergences.is_empty(), "{:?}", divergences);
                        prop_assert_eq!(outcome.overload.is_some(), overload.is_some());
                        if let Some(report) = &outcome.overload {
                            prop_assert_eq!(report.offered, jobs as u64);
                            prop_assert_eq!(report.admitted, jobs as u64);
                            prop_assert_eq!(report.shed(), 0);
                            prop_assert_eq!(report.tier_transitions, 0);
                            prop_assert_eq!(report.final_tier, ServingTier::Full);
                            prop_assert_eq!(report.recovered_at, Some(0));
                        }
                        prop_assert!(outcome.spans.is_none());
                        prop_assert!(outcome.alerts.rules.is_empty());
                        prop_assert!(outcome.alerts.transitions.is_empty());
                        prop_assert_eq!(outcome.serve_stats, ServeStats::default());
                        let report = outcome.report;
                        prop_assert_eq!(report.totals.sheds, 0);
                        let Some(first) = &first else {
                            first = Some(report);
                            continue;
                        };
                        prop_assert_eq!(report.totals, first.totals);
                        prop_assert_eq!(&report.snapshots, &first.snapshots);
                        for (cell, base) in [
                            (&report.latency_cycles, &first.latency_cycles),
                            (&report.job_energy_nj, &first.job_energy_nj),
                            (&report.stall_cycles, &first.stall_cycles),
                        ] {
                            prop_assert_eq!(cell.count(), base.count());
                            prop_assert_eq!(cell.sum(), base.sum());
                        }
                    }
                }
            }
        }
    }

    /// Contract 2: spans conserve the run and the Perfetto artifact
    /// validates and round-trips through the in-repo JSON parser.
    #[test]
    fn spans_conserve_and_the_perfetto_export_round_trips(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..90,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let sim = Simulator::new(t.arch.num_cores())
            .with_discipline(DISCIPLINES[discipline_index]);
        let observe = ObserveConfig {
            assemble_spans: true,
            ..ObserveConfig::disabled()
        };
        let outcome = run_spec(&sim, &plan, SystemKind::ALL[system_index], None, Some(observe));
        let spans = outcome.spans.as_ref().expect("spans were assembled");
        prop_assert_eq!(spans.arrivals(), jobs as u64);
        prop_assert_eq!(spans.completed(), jobs as u64);
        prop_assert_eq!(spans.shed(), 0);
        prop_assert_eq!(spans.open_jobs(), 0);
        // Exactly one terminal span per job.
        let terminal = spans
            .job_spans()
            .iter()
            .filter(|span| span.close.is_terminal())
            .count();
        prop_assert_eq!(terminal, jobs);

        let doc = perfetto_document(spans, "test", seed);
        let direct = validate_perfetto(&doc);
        prop_assert!(direct.is_ok(), "invalid export: {:?}", direct.err());
        let reparsed = Json::parse(&doc.to_pretty());
        prop_assert!(reparsed.is_ok(), "reparse failed: {:?}", reparsed.err());
        let round_tripped = validate_perfetto(&reparsed.unwrap());
        prop_assert_eq!(direct.ok(), round_tripped.ok());
    }

    /// Contract 3: shed arrivals end in terminal shed spans, and the
    /// span books balance against the governor's ledger.
    #[test]
    fn shed_jobs_get_terminal_shed_spans(
        system_index in 0usize..4,
        jobs in 60usize..120,
        seed in 0u64..1_000,
        capacity in 2u64..6,
    ) {
        let t = Testbed::shared_small();
        // A tight arrival horizon so the bounded queue actually sheds.
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 400_000, t.suite.len(), 3, seed);
        let sim = Simulator::new(t.arch.num_cores());
        let overload = OverloadConfig {
            queue_capacity: Some(capacity),
            policy: ShedPolicy::DropTail,
            rate_limit: None,
            brownout: None,
            breaker: None,
        };
        let observe = ObserveConfig {
            assemble_spans: true,
            ..ObserveConfig::disabled()
        };
        let outcome = run_spec(&sim, &plan, SystemKind::ALL[system_index], Some(overload), Some(observe));
        let governor = outcome.overload.as_ref().expect("a governed run reports");
        let spans = outcome.spans.as_ref().expect("spans were assembled");
        // Shed arrivals never reach the simulator, so the span books see
        // them only as shed spans: admitted + shed = offered.
        prop_assert_eq!(spans.arrivals(), governor.admitted);
        prop_assert_eq!(spans.completed(), governor.admitted);
        prop_assert_eq!(spans.shed(), governor.shed());
        prop_assert_eq!(
            spans.arrivals() + spans.shed(),
            governor.offered
        );
        prop_assert_eq!(spans.open_jobs(), 0);
        let shed_spans = spans
            .job_spans()
            .iter()
            .filter(|span| span.phase == JobPhase::Shed && span.close == SpanClose::Shed)
            .count();
        prop_assert_eq!(shed_spans as u64, governor.shed());
        // The export stays loadable with shed tracks present.
        let doc = perfetto_document(spans, "test", seed);
        prop_assert!(validate_perfetto(&doc).is_ok());
    }

    /// Contract 4: every shed policy × token bucket on/off × brownout
    /// on/off × breaker on/off, on a prioritised storm into the proposed
    /// system with its serving tier wired to the governor, leaves a
    /// trace that audits clean against the governor's own counts.
    #[test]
    fn every_governor_mechanism_keeps_the_ledger_auditable(
        jobs in 80usize..160,
        seed in 0u64..1_000,
        capacity in 4u64..12,
    ) {
        let t = Testbed::shared_small();
        let cores = t.arch.num_cores();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 8_000_000, t.suite.len(), 3, seed);
        let sim = Simulator::new(cores).with_discipline(QueueDiscipline::Priority);
        let policies = [
            ShedPolicy::DropTail,
            ShedPolicy::DeadlineAge { max_wait_cycles: 5_000 },
            ShedPolicy::PriorityAware { protect: 1, depth_watermark: 3 },
        ];
        // Bits of `mechanisms`: 1 token bucket, 2 brownout, 4 breaker.
        for (policy, mechanisms) in policies.iter().flat_map(|&p| (0..8u8).map(move |m| (p, m))) {
            let overload = OverloadConfig {
                queue_capacity: Some(capacity),
                policy,
                rate_limit: (mechanisms & 1 != 0).then_some(TokenBucketConfig {
                    capacity: 4.0,
                    refill_per_mcycle: 10.0,
                }),
                brownout: (mechanisms & 2 != 0).then_some(BrownoutConfig {
                    control_window_cycles: 100_000,
                    depth_high: 3,
                    depth_low: 1,
                    latency_budget_cycles: 400_000,
                    breach_fraction: 0.2,
                    step_up_after: 1,
                    step_down_after: 2,
                }),
                breaker: (mechanisms & 4 != 0).then_some(BreakerConfig {
                    trip_after: 2,
                    cooldown_cycles: 100_000,
                }),
            };
            let cell = tier_cell();
            let mut system = t
                .system(SystemKind::Proposed)
                .with_serving_tier(cell.clone(), None);
            let governor = GovernorHandle::new(&overload, cores, Some(cell));
            let mut recording = RecordingSink::new();
            let metrics = {
                let mut sink = governor.sink(&mut recording);
                let metrics = sim.run_stream(governor.gate(plan.iter().copied()), &mut system, &mut sink);
                sink.finish();
                metrics
            };
            let report = governor.report();
            let events = recording.events();
            prop_assert_eq!(report.offered, jobs as u64);
            prop_assert_eq!(report.admitted + report.shed(), report.offered);
            prop_assert_eq!(metrics.jobs_completed, report.admitted);
            let expected = Audit {
                admitted: report.offered - report.shed(),
                sheds: report.shed(),
                ..metrics.into()
            };
            let audit = LedgerAuditor::new(cores).check(events, &expected);
            prop_assert!(audit.is_ok(), "{:?} under {:?}: {:?}", policy, mechanisms, audit);
            for reason in [
                ShedReason::QueueFull,
                ShedReason::Deadline,
                ShedReason::Priority,
                ShedReason::RateLimit,
            ] {
                let recorded = events
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Shed { reason: r, .. } if *r == reason))
                    .count() as u64;
                prop_assert_eq!(recorded, report.shed_for(reason));
            }
            let horizon = events.iter().map(TraceEvent::at).max().unwrap_or(0);
            prop_assert_eq!(report.tier_dwell_cycles.iter().sum::<u64>(), horizon);
            // The simulator's stream carries no `Fallback`, so the
            // breaker never trips.
            prop_assert_eq!(report.breaker_state, BreakerState::Closed);
            prop_assert_eq!(report.breaker_trips, 0);
        }
    }
}
