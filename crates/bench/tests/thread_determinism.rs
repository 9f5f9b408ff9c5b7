//! Worker-count determinism: the recorded event stream — and the fault
//! schedule — must be bit-identical whether the characterisation
//! pipeline ran with `HETERO_THREADS` 1, 2, or 4. Thread count may only
//! change wall-clock time, never results.
//!
//! This test mutates the process environment, so it lives alone in its
//! own integration-test binary: no other test in this process reads
//! `HETERO_THREADS` concurrently.

use hetero_bench::{SystemKind, Testbed};
use hetero_core::FallbackChain;
use multicore_sim::{FaultConfig, FaultPlan, RecordingSink, Simulator, TraceEvent};
use workloads::ArrivalPlan;

/// Build a fresh testbed under the given worker count and run the
/// proposed system through the faulted loop, returning the recorded
/// stream and the fault plan.
fn run_with_workers(workers: usize) -> (Vec<TraceEvent>, FaultPlan) {
    // Safety note: this binary contains exactly one test, so no other
    // thread observes the variable mid-update.
    std::env::set_var("HETERO_THREADS", workers.to_string());
    let testbed = Testbed::small();
    let chain = FallbackChain::train(&testbed.oracle);
    let num_cores = testbed.arch.num_cores();
    let plan = ArrivalPlan::uniform_with_priorities(80, 5_000_000, testbed.suite.len(), 3, 77);
    let faults = FaultPlan::build(&FaultConfig::chaos(0.25, 77, 8_000_000), num_cores);
    let mut system = testbed
        .system(SystemKind::Proposed)
        .with_faults(&faults, chain);
    let mut sink = RecordingSink::new();
    let run = Simulator::new(num_cores).run_with_faults(&plan, &mut system, &faults, &mut sink);
    assert_eq!(
        run.metrics.jobs_completed + run.faults.jobs_failed,
        80,
        "conservation must hold at every worker count"
    );
    (sink.into_events(), faults)
}

#[test]
fn event_stream_is_bit_identical_across_worker_counts() {
    let (serial_events, serial_faults) = run_with_workers(1);
    for workers in [2usize, 4] {
        let (events, faults) = run_with_workers(workers);
        assert_eq!(
            faults, serial_faults,
            "fault schedule differs at HETERO_THREADS={workers}"
        );
        assert_eq!(
            events.len(),
            serial_events.len(),
            "event count differs at HETERO_THREADS={workers}"
        );
        // `TraceEvent` equality compares `f64` operands by value; the
        // Debug rendering is the shortest round-trip form, so comparing
        // it too pins the streams down to the bit.
        for (i, (a, b)) in events.iter().zip(&serial_events).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "event {i} differs at HETERO_THREADS={workers}"
            );
        }
    }
    assert!(
        serial_events
            .iter()
            .any(|e| matches!(e, TraceEvent::Fault { .. })),
        "the determinism fixture should actually exercise fault events"
    );
}
