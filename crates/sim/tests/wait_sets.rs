//! The `waits_for` promise skip is invisible: for any policy that keeps
//! its promise, a run that sees the promise (and skips blocked jobs
//! without offering them) equals a run where a wrapper hides it (and
//! every job is offered), in every metric to the bit and in every trace
//! event.

use energy_model::EnergyBreakdown;
use multicore_sim::{
    ledger_divergences, Audit, CoreId, CoreIndex, CoreSet, Decision, FaultConfig, FaultPlan,
    FaultedRun, Job, JobExecution, LedgerAuditor, NullSink, QueueDiscipline, RecordingSink,
    Scheduler, Simulator, StallPurityChecked, TraceEvent, TraceSink,
};
use proptest::prelude::*;
use workloads::{Arrival, ArrivalPlan, BenchmarkId};

/// SplitMix64's output mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded adversarial policy that keeps its promise. Each job waits for
/// one of a pool of random core sets (more sets than the loop has wait
/// classes, on wide machines), stalls whenever no core of its set is
/// idle, and otherwise stalls at random anyway or runs on a random idle
/// core, inside its set or not — including the victim's core a
/// preemption probe offers as bait. Every decision hashes the seed, the
/// job, the clock and a placement counter only placements advance, so a
/// stall changes no state.
struct Adversary {
    seed: u64,
    pool: Vec<CoreSet>,
    placements: u64,
    /// Calls to `schedule`; read by the tests, never by decisions.
    calls: u64,
}

impl Adversary {
    fn new(seed: u64, num_cores: usize, pool_size: usize) -> Self {
        let pool = (0..pool_size as u64)
            .map(|i| {
                let bits = mix(seed ^ mix(i + 1));
                let mut set = CoreSet::from_cores(
                    num_cores,
                    (0..num_cores).filter(|c| bits >> c & 1 == 1).map(CoreId),
                );
                if set.is_empty() {
                    set.insert(CoreId(bits as usize % num_cores));
                }
                set
            })
            .collect();
        Adversary {
            seed,
            pool,
            placements: 0,
            calls: 0,
        }
    }

    fn set_of(&self, job: &Job) -> &CoreSet {
        &self.pool[mix(self.seed ^ job.seq) as usize % self.pool.len()]
    }
}

impl Scheduler for Adversary {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        self.calls += 1;
        if cores.first_idle_in(self.set_of(job)).is_none() {
            return Decision::Stall;
        }
        let r = mix(self.seed ^ mix(job.seq ^ mix(now ^ mix(self.placements))));
        // A spurious stall only while something runs, so an end event is
        // always pending and the run cannot deadlock.
        if cores.busy_count() > 0 && r.is_multiple_of(4) {
            return Decision::Stall;
        }
        let core = if r >> 8 & 1 == 0 {
            cores.first_idle_in(self.set_of(job))
        } else {
            let idle: Vec<CoreId> = cores.idle_cores().collect();
            Some(idle[(r >> 16) as usize % idle.len()])
        }
        .expect("an idle core exists");
        self.placements += 1;
        let cycles = 100 + (r >> 24) % 4_000;
        Decision::run(
            core,
            JobExecution {
                cycles,
                energy: EnergyBreakdown {
                    dynamic_nj: cycles as f64 * 0.37 + (job.seq % 7) as f64,
                    static_nj: cycles as f64 * 0.11,
                    ..EnergyBreakdown::new()
                },
            },
        )
    }

    fn waits_for(&self, job: &Job) -> Option<&CoreSet> {
        Some(self.set_of(job))
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        0.5 + core.0 as f64 * 0.125
    }

    fn state_fingerprint(&self) -> u64 {
        self.placements
    }
}

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

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

fn arbitrary_plan(max_jobs: usize) -> impl Strategy<Value = ArrivalPlan> {
    prop::collection::vec((0u64..20_000, 0usize..20, 0u8..3), 1..max_jobs).prop_map(|list| {
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

/// Run `policy` under `fault_plan` into `sink`.
fn run<S: Scheduler, T: TraceSink>(
    sim: &Simulator,
    plan: &ArrivalPlan,
    policy: &mut S,
    fault_plan: &FaultPlan,
    sink: &mut T,
) -> FaultedRun {
    sim.run_with_faults(plan, policy, fault_plan, sink)
}

fn assert_same(visible: &FaultedRun, hidden: &FaultedRun) {
    let divergences = ledger_divergences(&hidden.metrics, &visible.metrics);
    assert!(divergences.is_empty(), "{divergences:?}");
    assert_eq!(visible, hidden);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeing the promise changes nothing but the number of offers, under
    /// every discipline, both sinks, and with or without injected faults.
    /// A recorded visible run also replays through the `LedgerAuditor` to
    /// its own ledger and fault counters, bit for bit: the adversary's
    /// distinct idle power per core makes one idle-power class per core,
    /// and chaos plans add offline cores and crash refunds.
    #[test]
    fn a_kept_promise_is_invisible(
        plan in arbitrary_plan(160),
        cores in 1usize..9,
        discipline_index in 0usize..3,
        seed in 0u64..1_000_000,
        pool_size in 1usize..100,
        fault_rate_permille in 0u32..300,
        recorded in 0u8..2,
    ) {
        let sim = Simulator::new(cores).with_discipline(DISCIPLINES[discipline_index]);
        let fault_plan = if fault_rate_permille < 100 {
            FaultPlan::empty()
        } else {
            let rate = f64::from(fault_rate_permille) / 1000.0;
            FaultPlan::build(&FaultConfig::chaos(rate, seed, 20_000), cores)
        };
        let mut visible = Adversary::new(seed, cores, pool_size);
        let mut hidden = Hidden(Adversary::new(seed, cores, pool_size));
        if recorded == 1 {
            let (mut visible_sink, mut hidden_sink) = (RecordingSink::new(), RecordingSink::new());
            let a = run(&sim, &plan, &mut visible, &fault_plan, &mut visible_sink);
            let b = run(&sim, &plan, &mut hidden, &fault_plan, &mut hidden_sink);
            assert_same(&a, &b);
            prop_assert_eq!(visible_sink.events(), hidden_sink.events());
            let replayed = LedgerAuditor::new(cores)
                .replay(visible_sink.events())
                .unwrap_or_else(|violations| panic!("{violations:?}"));
            let divergences = ledger_divergences(&replayed.metrics, &a.metrics);
            prop_assert!(divergences.is_empty(), "{divergences:?}");
            prop_assert_eq!(replayed, Audit::from(a));
        } else {
            let a = run(&sim, &plan, &mut visible, &fault_plan, &mut NullSink);
            let b = run(&sim, &plan, &mut hidden, &fault_plan, &mut NullSink);
            assert_same(&a, &b);
        }
        prop_assert!(visible.calls <= hidden.0.calls);
        prop_assert_eq!(visible.placements, hidden.0.placements);
    }
}

/// Run the adversary with its promise visible and hidden, traced, and
/// return how many offers each run made.
fn offers_visible_and_hidden(
    sim: &Simulator,
    plan: &ArrivalPlan,
    seed: u64,
    pool: usize,
) -> (u64, u64) {
    let cores = sim.num_cores();
    let mut visible = Adversary::new(seed, cores, pool);
    let mut hidden = Hidden(Adversary::new(seed, cores, pool));
    let (mut visible_sink, mut hidden_sink) = (RecordingSink::new(), RecordingSink::new());
    let empty = FaultPlan::empty();
    let a = run(sim, plan, &mut visible, &empty, &mut visible_sink);
    let b = run(sim, plan, &mut hidden, &empty, &mut hidden_sink);
    assert_same(&a, &b);
    assert_eq!(visible_sink.events(), hidden_sink.events());
    let stalls = visible_sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Stall { .. }))
        .count() as u64;
    assert_eq!(stalls, a.metrics.stall_offers);
    (visible.calls, hidden.0.calls)
}

/// On a contended plan the skip actually fires: the visible run offers
/// fewer jobs than the hidden one, with the same ledger, the same trace
/// and the same stall offers — and the checker finds the promise kept.
#[test]
fn the_skip_fires_under_contention() {
    let plan = ArrivalPlan::uniform_with_priorities(400, 40_000, 20, 3, 5);
    for discipline in DISCIPLINES {
        let sim = Simulator::new(4).with_discipline(discipline);
        let (visible, hidden) = offers_visible_and_hidden(&sim, &plan, 17, 3);
        assert!(
            visible < hidden,
            "{discipline:?}: {visible} offers with the promise, {hidden} without"
        );

        let mut checked = StallPurityChecked::new(Adversary::new(17, 4, 3));
        let _ = run(
            &sim,
            &plan,
            &mut checked,
            &FaultPlan::empty(),
            &mut NullSink,
        );
        assert!(checked.promise_checks() > 0);
        checked.assert_pure();
    }
}

/// More distinct wait sets than the loop has wait classes: the sets past
/// the 64th stay unclassed and are offered as usual.
#[test]
fn wait_sets_past_the_class_limit_stay_unclassed() {
    let plan = ArrivalPlan::uniform_with_priorities(2_000, 100_000, 20, 3, 9);
    for discipline in DISCIPLINES {
        let sim = Simulator::new(8).with_discipline(discipline);
        let (visible, hidden) = offers_visible_and_hidden(&sim, &plan, 3, 250);
        assert!(visible < hidden, "{discipline:?}");
    }
}
