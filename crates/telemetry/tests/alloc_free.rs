//! `MetricsSink` folds a drained stream without allocating: once a sink
//! has folded a stream and been reset, folding the same stream again —
//! draining finished windows as it goes, as the engine does — allocates
//! nothing inside `record`. Window slots come back from drained windows;
//! job slots, the retry heap and the histograms are reused in place.
//!
//! A counting global allocator tallies every allocation made on the
//! calling thread; the tally is read around each `record` call only, so
//! the simulator run and `drain_points`' returned series are not counted.

use energy_model::EnergyBreakdown;
use hetero_telemetry::MetricsSink;
use multicore_sim::{
    CoreId, CoreIndex, Decision, FaultConfig, FaultPlan, Job, JobExecution, QueueDiscipline,
    RecordingSink, Scheduler, Simulator, TraceEvent, TraceSink,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::ArrivalPlan;

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

/// Window length of the folded sinks, in cycles.
const INTERVAL: u64 = 100_000;

/// First idle core; cycles keyed to the benchmark, idle power to the
/// core, so windows see differing idle energies.
struct FirstIdle;

impl Scheduler for FirstIdle {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
        match cores.first_idle() {
            Some(core) => Decision::run(
                core,
                JobExecution {
                    cycles: 40_000 + 7_919 * (job.benchmark.0 as u64 % 5),
                    energy: EnergyBreakdown {
                        idle_nj: 0.0,
                        dynamic_nj: 3.0,
                        static_nj: 1.0,
                    },
                },
            ),
            None => Decision::Stall,
        }
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        0.01 * (1 + core.0 % 4) as f64
    }
}

/// The trace of `jobs` preemptive-priority arrivals over `horizon` cycles
/// on `num_cores` cores under `faults`.
fn trace(num_cores: usize, jobs: usize, horizon: u64, faults: &FaultPlan) -> Vec<TraceEvent> {
    let plan = ArrivalPlan::uniform_with_priorities(jobs, horizon, 5, 3, 11);
    let mut recording = RecordingSink::new();
    let run = Simulator::new(num_cores)
        .with_discipline(QueueDiscipline::PreemptivePriority)
        .run_with_faults(&plan, &mut FirstIdle, faults, &mut recording);
    assert_eq!(
        run.metrics.jobs_completed + run.faults.jobs_failed,
        jobs as u64
    );
    recording.into_events()
}

/// Fold `events` into `sink`, draining every window before the previous
/// event's cycle whenever time moves on; returns the allocations made
/// inside `record`.
fn fold_drained(sink: &mut MetricsSink, events: &[TraceEvent]) -> u64 {
    let mut counted = 0;
    for &event in events {
        if event.at() > sink.last_event_at() {
            let _ = sink.drain_points(sink.last_event_at());
        }
        let before = allocations();
        sink.record(event);
        counted += allocations() - before;
    }
    counted
}

/// Fold `events` once to warm the sink, reset it, and return the
/// allocations `record` makes folding them again.
fn steady_state_allocations(num_cores: usize, events: &[TraceEvent]) -> u64 {
    let mut sink = MetricsSink::new(num_cores, INTERVAL);
    let _ = fold_drained(&mut sink, events);
    sink.reset();
    let allocations = fold_drained(&mut sink, events);
    assert!(
        sink.drained_below() > 100,
        "the stream must span many windows"
    );
    allocations
}

#[test]
fn drained_quad_stream_folds_without_allocating() {
    let events = trace(4, 3000, 60_000_000, &FaultPlan::empty());
    assert!(events.len() > 10_000);
    assert_eq!(steady_state_allocations(4, &events), 0);
}

#[test]
fn drained_256_core_stream_folds_without_allocating() {
    let horizon = 20_000_000;
    let faults = FaultPlan::build(&FaultConfig::chaos(0.3, 11, horizon), 256);
    let events = trace(256, 5120, horizon, &faults);
    assert!(events
        .iter()
        .any(|event| matches!(event, TraceEvent::Degraded { .. })));
    assert_eq!(steady_state_allocations(256, &events), 0);
}
