//! The profiled systems' steady state allocates nothing: once every
//! benchmark of the suite is in the profiling table, `schedule`,
//! `on_complete` and `on_preempt` touch only indexed arrays.
//!
//! A counting global allocator tallies every allocation made on the
//! calling thread; a wrapping scheduler reads the tally around each policy
//! call, so allocations by the simulator loop itself are not counted.

use energy_model::EnergyModel;
use hetero_core::{
    Architecture, BestCorePredictor, EnergyCentricSystem, OptimalSystem, PredictorConfig,
    ProfilingTable, ProposedSystem, SuiteOracle,
};
use multicore_sim::{
    CoreId, CoreIndex, CoreSet, Decision, Job, QueueDiscipline, Scheduler, Simulator,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{ArrivalPlan, Suite};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Forwards every `Scheduler` method to `inner`, counting the
/// allocations of `schedule`/`on_complete`/`on_preempt` calls made once
/// `table(inner)` holds all `benchmarks`.
struct SteadyStateAllocations<S> {
    inner: S,
    table: fn(&S) -> &ProfilingTable,
    benchmarks: usize,
    calls: u64,
    allocations: u64,
}

impl<S> SteadyStateAllocations<S> {
    fn new(inner: S, table: fn(&S) -> &ProfilingTable, benchmarks: usize) -> Self {
        SteadyStateAllocations {
            inner,
            table,
            benchmarks,
            calls: 0,
            allocations: 0,
        }
    }

    fn counted<R>(&mut self, call: impl FnOnce(&mut S) -> R) -> R {
        if (self.table)(&self.inner).len() < self.benchmarks {
            return call(&mut self.inner);
        }
        let before = allocations();
        let result = call(&mut self.inner);
        self.allocations += allocations() - before;
        self.calls += 1;
        result
    }
}

impl<S: Scheduler> Scheduler for SteadyStateAllocations<S> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        self.counted(|inner| inner.schedule(job, cores, now))
    }

    fn waits_for(&self, job: &Job) -> Option<&CoreSet> {
        self.inner.waits_for(job)
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.inner.idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.counted(|inner| inner.on_complete(job, core, now));
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.counted(|inner| inner.on_preempt(job, core, now));
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

struct Fixture {
    suite: Suite,
    model: EnergyModel,
    oracle: SuiteOracle,
    arch: Architecture,
    predictor: BestCorePredictor,
}

fn fixture() -> Fixture {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let oracle = SuiteOracle::build(&suite, &model);
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());
    Fixture {
        suite,
        model,
        oracle,
        arch: Architecture::paper_quad(),
        predictor,
    }
}

/// Runs `system` under FIFO and under preemptive priorities, asserting
/// that its steady-state calls allocate nothing.
fn assert_steady_state_allocates_nothing<'a, S: Scheduler>(
    f: &'a Fixture,
    name: &str,
    build: impl Fn(&'a Fixture) -> S,
    table: fn(&S) -> &ProfilingTable,
) {
    let runs = [
        (
            QueueDiscipline::Fifo,
            ArrivalPlan::uniform(3000, 90_000_000, f.suite.len(), 11),
        ),
        (
            QueueDiscipline::PreemptivePriority,
            ArrivalPlan::uniform_with_priorities(3000, 90_000_000, f.suite.len(), 3, 13),
        ),
    ];
    for (discipline, plan) in runs {
        let mut system = SteadyStateAllocations::new(build(f), table, f.suite.len());
        let metrics = Simulator::new(f.arch.num_cores())
            .with_discipline(discipline)
            .run(&plan, &mut system);
        assert_eq!(metrics.jobs_completed, 3000, "{name} under {discipline:?}");
        if discipline == QueueDiscipline::PreemptivePriority {
            assert!(metrics.preemptions > 0, "{name}: no preemption exercised");
        }
        assert!(
            system.calls > 1000,
            "{name} under {discipline:?}: only {} steady-state calls",
            system.calls
        );
        assert_eq!(
            system.allocations, 0,
            "{name} under {discipline:?}: {} allocations in {} steady-state calls",
            system.allocations, system.calls
        );
    }
}

#[test]
fn proposed_steady_state_allocates_nothing() {
    let f = fixture();
    assert_steady_state_allocates_nothing(
        &f,
        "proposed",
        |f| ProposedSystem::with_model(&f.arch, &f.oracle, f.model, f.predictor.clone()),
        ProposedSystem::table,
    );
}

#[test]
fn energy_centric_steady_state_allocates_nothing() {
    let f = fixture();
    assert_steady_state_allocates_nothing(
        &f,
        "energy-centric",
        |f| EnergyCentricSystem::new(&f.arch, &f.oracle, f.model, f.predictor.clone()),
        EnergyCentricSystem::table,
    );
}

#[test]
fn optimal_steady_state_allocates_nothing() {
    let f = fixture();
    assert_steady_state_allocates_nothing(
        &f,
        "optimal",
        |f| OptimalSystem::new(&f.arch, &f.oracle, f.model),
        OptimalSystem::table,
    );
}
