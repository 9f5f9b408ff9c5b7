//! Streaming-engine fidelity: the bounded-memory streaming path must be
//! a pure re-plumbing of the batch event loop — same schedule, same
//! ledger, same metrics, to the bit — with the snapshot ring a lossless
//! re-aggregation of the run's telemetry.
//!
//! Three contracts, property-tested over every system and discipline:
//!
//! 1. `hetero_engine::run` over a pre-materialised [`ArrivalPlan`] returns
//!    `RunMetrics` bit-identical to the batch `Simulator::run`.
//! 2. `run_stream` emits the *same event ledger* as the batch
//!    `run_with_sink`, and that ledger replays clean through
//!    [`LedgerAuditor`].
//! 3. Snapshot counters conserve the run totals (nothing lost or double
//!    counted when windows are drained mid-flight), and the engine's
//!    cumulative energy equals the simulator's to the bit.

use hetero_bench::{SystemKind, Testbed};
use hetero_engine::{EngineConfig, Outcome, RunSpec, SloPolicy};
use multicore_sim::{
    ledger_divergences, LedgerAuditor, QueueDiscipline, RecordingSink, Scheduler, Simulator,
};
use proptest::prelude::*;
use workloads::{ArrivalPlan, OpenLoop};

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

/// Windows small enough that a property-scale run crosses many snapshot
/// boundaries (drains actually happen mid-run, not just at the end).
fn engine_config() -> EngineConfig {
    EngineConfig {
        window_cycles: 50_000,
        snapshot_windows: 4,
        max_snapshots: usize::MAX,
        slo: SloPolicy::default(),
    }
}

/// A plain engine run of `arrivals` under [`engine_config`].
fn run_plain(
    sim: &Simulator,
    arrivals: impl IntoIterator<Item = workloads::Arrival>,
    scheduler: &mut dyn Scheduler,
) -> Outcome {
    let spec = RunSpec {
        engine: engine_config(),
        ..RunSpec::default()
    };
    hetero_engine::run(sim, arrivals, scheduler, &spec).expect("a plain run binds nothing")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 1 + 3: for every system and discipline, streaming a
    /// pre-materialised plan reproduces the batch `RunMetrics` to the
    /// bit, and the snapshot ring conserves every counter the run
    /// produced.
    #[test]
    fn streaming_a_materialised_plan_matches_batch_bit_for_bit(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..100,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let kind = SystemKind::ALL[system_index];
        let sim = Simulator::new(t.arch.num_cores()).with_discipline(DISCIPLINES[discipline_index]);
        let batch = sim.run(&plan, &mut t.system(kind));
        let outcome = run_plain(&sim, plan.iter().copied(), &mut t.system(kind));
        let divergences = ledger_divergences(&batch, &outcome.metrics);
        prop_assert!(divergences.is_empty(), "{:?}", divergences);
        prop_assert_eq!(outcome.metrics.jobs_completed, jobs as u64);

        // Snapshot conservation: the ring re-aggregates the run without
        // loss. Energy must match the simulator's own ledger to the bit
        // (each side sums the identical event stream left to right).
        let report = &outcome.report;
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.arrivals).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.completions).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(report.latency_cycles.count(), jobs as u64);
        prop_assert_eq!(
            report.totals.evictions,
            batch.preemptions
        );
        let span_energy: f64 = report.snapshots.iter().map(|s| s.energy_nj).sum();
        let total = report.energy_nj();
        prop_assert!(
            (span_energy - total).abs() <= 1e-9 * total.abs().max(1.0),
            "snapshot energy {} vs cumulative {}", span_energy, total
        );
        // Spans tile the horizon with no gaps.
        for pair in report.snapshots.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
        if let Some(last) = report.snapshots.last() {
            prop_assert_eq!(last.end, report.horizon);
        }
    }

    /// Contract 2: the streaming entry point emits the batch loop's
    /// exact event ledger, and that ledger audits clean.
    #[test]
    fn streamed_ledger_is_the_batch_ledger_and_audits_clean(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..80,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let num_cores = t.arch.num_cores();
        let plan = ArrivalPlan::uniform_with_priorities(jobs, 4_000_000, t.suite.len(), 3, seed);
        let kind = SystemKind::ALL[system_index];
        let sim = Simulator::new(num_cores).with_discipline(DISCIPLINES[discipline_index]);
        let mut batch_sink = RecordingSink::new();
        let metrics = sim.run_with_sink(&plan, &mut t.system(kind), &mut batch_sink);
        let mut stream_sink = RecordingSink::new();
        let streamed = sim.run_stream(plan.iter().copied(), &mut t.system(kind), &mut stream_sink);
        prop_assert_eq!(&metrics, &streamed);
        prop_assert_eq!(batch_sink.events(), stream_sink.events());
        let outcome = LedgerAuditor::new(num_cores).check(stream_sink.events(), &metrics.into());
        prop_assert!(outcome.is_ok(), "streamed ledger audit failed: {:?}", outcome.err());
    }

    /// Window reclamation at exact boundaries: when every arrival and
    /// completion timestamp lands exactly on a telemetry-window boundary
    /// (the off-by-one sweet spot for `drain_points`), the snapshot ring
    /// still conserves every counter and tiles the horizon — nothing is
    /// drained twice (the sink would panic) or silently lost.
    #[test]
    fn drains_at_exact_window_boundaries_conserve_everything(
        jobs in 1usize..60,
        stride_windows in 1u64..4,
        service_windows in 1u64..6,
    ) {
        use energy_model::EnergyBreakdown;
        use multicore_sim::{CoreIndex, Decision, Job, JobExecution};
        use workloads::{Arrival, BenchmarkId};

        struct ExactCycles(u64);
        impl Scheduler for ExactCycles {
            fn schedule(&mut self, _job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
                match cores.first_idle() {
                    Some(core) => Decision::run(core, JobExecution {
                        cycles: self.0,
                        energy: EnergyBreakdown { idle_nj: 0.0, dynamic_nj: 1.0, static_nj: 0.5 },
                    }),
                    None => Decision::Stall,
                }
            }
            fn idle_power_nj_per_cycle(&self, _core: multicore_sim::CoreId) -> f64 { 0.25 }
        }

        let window = engine_config().window_cycles;
        // Arrivals on exact window boundaries, service an exact number of
        // windows: every event timestamp is a multiple of the interval.
        let arrivals: Vec<Arrival> = (0..jobs)
            .map(|i| Arrival::new(i as u64 * stride_windows * window, BenchmarkId(i % 8)))
            .collect();
        let sim = Simulator::new(2);
        let outcome = run_plain(&sim, arrivals, &mut ExactCycles(service_windows * window));
        let report = &outcome.report;
        prop_assert_eq!(report.totals.arrivals, jobs as u64);
        prop_assert_eq!(report.totals.completions, jobs as u64);
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.arrivals).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(
            report.snapshots.iter().map(|s| s.completions).sum::<u64>(),
            jobs as u64
        );
        prop_assert_eq!(report.latency_cycles.count(), jobs as u64);
        let span_energy: f64 = report.snapshots.iter().map(|s| s.energy_nj).sum();
        let total = report.energy_nj();
        prop_assert!(
            (span_energy - total).abs() <= 1e-9 * total.abs().max(1.0),
            "snapshot energy {} vs cumulative {}", span_energy, total
        );
        for pair in report.snapshots.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
        if let Some(last) = report.snapshots.last() {
            prop_assert_eq!(last.end, report.horizon);
        }
    }

    /// Open-loop determinism end to end: materialising an [`OpenLoop`]
    /// stream into a plan and batch-running it equals streaming the
    /// same-seeded stream directly into the engine.
    #[test]
    fn open_loop_streams_replay_deterministically(
        rate_tenths in 20u64..200,
        jobs in 50usize..150,
        seed in 0u64..1_000,
    ) {
        let t = Testbed::shared_small();
        let rate = rate_tenths as f64 / 10.0;
        let source = || OpenLoop::poisson(rate, t.suite.len(), seed).take(jobs);
        let plan = ArrivalPlan::from_stream(source(), jobs);
        let sim = Simulator::new(t.arch.num_cores());

        let batch = sim.run(&plan, &mut t.system(SystemKind::Base));
        let outcome = run_plain(&sim, source(), &mut t.system(SystemKind::Base));
        let divergences = ledger_divergences(&batch, &outcome.metrics);
        prop_assert!(divergences.is_empty(), "{:?}", divergences);
        prop_assert_eq!(outcome.report.totals.arrivals, jobs as u64);
    }
}
