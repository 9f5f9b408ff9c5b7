//! The energy-centric system's `waits_for` promise is invisible: a run
//! that sees it (and skips the stalled backlog without offering it) and a
//! run where a wrapper hides it (and every job is offered) agree on the
//! ledger to the bit, on every trace event, on `SystemStats` and on the
//! final policy fingerprint — on the paper's quad and on the quad tiled
//! to 16 cores, under every queue discipline.

use hetero_bench::{tiled_architecture, Testbed};
use hetero_core::{Architecture, EnergyCentricSystem, SystemStats};
use multicore_sim::{
    ledger_divergences, CoreId, CoreIndex, Decision, Job, QueueDiscipline, RecordingSink,
    RunMetrics, Scheduler, Simulator, TraceEvent,
};
use proptest::prelude::*;
use workloads::ArrivalPlan;

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

/// Forwards everything but the promise, so the loop offers every job.
struct Hidden<S>(S);

impl<S: Scheduler> Scheduler for Hidden<S> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        self.0.schedule(job, cores, now)
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.0.idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.0.on_complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.0.on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.0.state_fingerprint()
    }
}

/// Everything a run of the energy-centric system leaves behind.
struct Outcome {
    metrics: RunMetrics,
    events: Vec<TraceEvent>,
    stats: SystemStats,
    fingerprint: u64,
}

fn run(
    arch: &Architecture,
    discipline: QueueDiscipline,
    plan: &ArrivalPlan,
    hide: bool,
) -> Outcome {
    let t = Testbed::shared_small();
    let system = EnergyCentricSystem::new(arch, &t.oracle, t.model, t.predictor.clone());
    let sim = Simulator::new(arch.num_cores()).with_discipline(discipline);
    let mut sink = RecordingSink::new();
    let (metrics, system) = if hide {
        let mut hidden = Hidden(system);
        (sim.run_with_sink(plan, &mut hidden, &mut sink), hidden.0)
    } else {
        let mut system = system;
        (sim.run_with_sink(plan, &mut system, &mut sink), system)
    };
    Outcome {
        metrics,
        events: sink.into_events(),
        stats: system.stats(),
        fingerprint: system.state_fingerprint(),
    }
}

/// Returns the run's stall offers.
fn assert_invisible(arch: &Architecture, discipline: QueueDiscipline, plan: &ArrivalPlan) -> u64 {
    let visible = run(arch, discipline, plan, false);
    let hidden = run(arch, discipline, plan, true);
    let divergences = ledger_divergences(&hidden.metrics, &visible.metrics);
    assert!(divergences.is_empty(), "{discipline:?}: {divergences:?}");
    assert_eq!(visible.metrics, hidden.metrics);
    assert!(
        visible.events == hidden.events,
        "{discipline:?}: traces differ"
    );
    assert_eq!(visible.stats, hidden.stats);
    assert_eq!(visible.fingerprint, hidden.fingerprint);
    assert_eq!(visible.metrics.jobs_completed, plan.len() as u64);
    visible.metrics.stall_offers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random contended plans on both machines, every discipline.
    #[test]
    fn energy_centric_promise_is_invisible(
        jobs in 60usize..240,
        horizon in 1_000_000u64..20_000_000,
        levels in 1u8..4,
        seed in 0u64..10_000,
    ) {
        let plan = ArrivalPlan::uniform_with_priorities(
            jobs, horizon, Testbed::shared_small().suite.len(), levels, seed,
        );
        let tiled16 = tiled_architecture(16);
        for discipline in DISCIPLINES {
            assert_invisible(&Testbed::shared_small().arch, discipline, &plan);
            assert_invisible(&tiled16, discipline, &plan);
        }
    }
}

/// A saturating plan where the backlog is deep: the stall offers the
/// promise skips are most of the run's offers.
#[test]
fn deep_backlog_is_invisible() {
    let plan = ArrivalPlan::uniform_with_priorities(
        600,
        2_000_000,
        Testbed::shared_small().suite.len(),
        3,
        42,
    );
    let tiled16 = tiled_architecture(16);
    for discipline in DISCIPLINES {
        let quad = assert_invisible(&Testbed::shared_small().arch, discipline, &plan);
        assert!(
            quad > 10 * plan.len() as u64,
            "{discipline:?}: {quad} stall offers"
        );
        assert_invisible(&tiled16, discipline, &plan);
    }
}
