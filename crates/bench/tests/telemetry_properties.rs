//! Telemetry passivity properties: attaching a live
//! [`MetricsSink`] to the traced simulator loop must leave the run's
//! [`RunMetrics`] bit-identical to the verbatim untraced reference loop
//! (`Simulator::run_reference`), for every system × discipline ×
//! workload shape — and the sink's own fold must agree with the
//! simulator's ledger where the two overlap (counters exactly, energies
//! to the bit, the latency histogram's exact sum equal to the ledger's
//! turnaround total). Faulted runs hold the sink's refunds and fault
//! counters to the faulted ledger the same way.

use hetero_bench::{tiled_architecture, SystemKind, Testbed};
use hetero_oracles::sim::run_reference;
use hetero_telemetry::{MetricsSink, SpanAssembler};
use multicore_sim::{
    CoreId, FaultConfig, FaultPlan, IdleCores, NullSink, QueueDiscipline, RecordingSink, Simulator,
    TraceEvent, TraceSink,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use workloads::{ArrivalPlan, SplitMix64};

const DISCIPLINES: [QueueDiscipline; 3] = [
    QueueDiscipline::Fifo,
    QueueDiscipline::Priority,
    QueueDiscipline::PreemptivePriority,
];

/// Interval chosen so sparse runs span many windows and dense runs a few.
const INTERVAL: u64 = 500_000;

/// The small testbed's suite, oracle and predictor on the paper quad
/// tiled to 256 cores: four idle-mask words.
fn shared_tiled_256() -> &'static Testbed {
    static TESTBED: OnceLock<Testbed> = OnceLock::new();
    TESTBED.get_or_init(|| {
        let small = Testbed::shared_small();
        Testbed {
            suite: small.suite.clone(),
            model: small.model,
            oracle: small.oracle.clone(),
            arch: tiled_architecture(256),
            predictor: small.predictor.clone(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The sink is passive: instrumented `RunMetrics` == reference
    /// `RunMetrics` down to every `f64` bit (Debug renders the shortest
    /// round-trip form, pinning the bits), and the sink's fold agrees
    /// with the ledger wherever the two measure the same thing. A faulted
    /// run (crashes, watchdog kills, core outages) compares the traced
    /// `FaultedRun` with the untraced one, and the sink's refunds on
    /// `Fault` events with the faulted ledger's energies and counters.
    #[test]
    fn metrics_sink_never_perturbs_the_run(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..120,
        seed in 0u64..1_000,
        sparse in 0usize..2,
        faulted in 0usize..2,
    ) {
        let t = Testbed::shared_small();
        let horizon = if sparse == 1 { 80_000_000 } else { 4_000_000 };
        let plan = ArrivalPlan::uniform_with_priorities(jobs, horizon, t.suite.len(), 3, seed);
        // The same system twice from identical state: once untraced
        // (through `run_reference` when unfaulted), once through the
        // traced loop into a sink.
        let kind = SystemKind::ALL[system_index];
        let num_cores = t.arch.num_cores();
        let sim = Simulator::new(num_cores).with_discipline(DISCIPLINES[discipline_index]);
        let mut sink = MetricsSink::new(num_cores, INTERVAL);
        let (reference, faults) = if faulted == 1 {
            let faults = FaultPlan::build(&FaultConfig::chaos(0.3, seed, horizon), num_cores);
            let untraced = sim.run_with_faults(&plan, &mut t.system(kind), &faults, &mut NullSink);
            let instrumented = sim.run_with_faults(&plan, &mut t.system(kind), &faults, &mut sink);
            prop_assert_eq!(
                format!("{untraced:?}"),
                format!("{instrumented:?}"),
                "MetricsSink perturbed the faulted run"
            );
            (untraced.metrics, Some(untraced.faults))
        } else {
            let reference = run_reference(&sim, &plan, &mut t.system(kind));
            let instrumented = sim.run_with_sink(&plan, &mut t.system(kind), &mut sink);
            // Bit-identity of the full ledger.
            prop_assert_eq!(
                format!("{reference:?}"),
                format!("{instrumented:?}"),
                "MetricsSink perturbed the run"
            );
            (reference, None)
        };
        let report = sink.report();

        // The faulted ledger's fault and recovery counters, event for
        // event.
        if let Some(faults) = faults {
            prop_assert_eq!(
                report.totals.faults,
                faults.crashes + faults.watchdog_kills + faults.outage_evictions
            );
            prop_assert_eq!(report.totals.retries, faults.retries);
            prop_assert_eq!(report.totals.abandoned, faults.jobs_failed);
            prop_assert_eq!(report.totals.fallbacks, faults.fallbacks);
            prop_assert_eq!(report.totals.degraded_transitions, faults.degraded_transitions);
        }

        // The sink's independent fold of the same stream agrees with the
        // simulator's ledger: counters exactly...
        prop_assert_eq!(report.totals.completions, reference.jobs_completed);
        prop_assert_eq!(report.totals.arrivals, jobs as u64);
        prop_assert_eq!(report.totals.stall_offers, reference.stall_offers);
        prop_assert_eq!(report.totals.stall_episodes, reference.stalls);
        prop_assert_eq!(report.totals.evictions, reference.preemptions);
        prop_assert_eq!(report.horizon, reference.total_cycles);

        // ...energies to the bit (same stream, same fold order)...
        prop_assert_eq!(
            report.totals.dynamic_nj.to_bits(),
            reference.energy.dynamic_nj.to_bits()
        );
        prop_assert_eq!(
            report.totals.static_nj.to_bits(),
            reference.energy.static_nj.to_bits()
        );
        prop_assert_eq!(
            report.totals.idle_energy_nj.to_bits(),
            reference.energy.idle_nj.to_bits()
        );

        // ...and the latency histogram's exact sum is the ledger's
        // turnaround total, with its count the completion count.
        prop_assert_eq!(report.latency_cycles.count(), reference.jobs_completed);
        prop_assert_eq!(
            report.latency_cycles.sum(),
            u128::from(reference.turnaround_cycles)
        );
        prop_assert_eq!(report.job_energy_nj.count(), reference.jobs_completed);

        // Every time-series window conserves cycles per core: busy +
        // idle + offline exactly covers the window span.
        for point in &report.points {
            let span = point.end - point.start;
            for (core, cp) in point.cores.iter().enumerate() {
                prop_assert_eq!(
                    cp.busy_cycles + cp.idle_cycles + cp.offline_cycles,
                    span,
                    "window {} core {core} does not conserve cycles",
                    point.index
                );
            }
        }

        // Whole-run busy cycles per core match the ledger exactly.
        let mut busy = vec![0u64; report.num_cores];
        for point in &report.points {
            for (core, cp) in point.cores.iter().enumerate() {
                busy[core] += cp.busy_cycles;
            }
        }
        prop_assert_eq!(&busy, &reference.busy_cycles);
    }

    /// Folding one `IdleAdvance` per clock advance is the per-core fold.
    /// The same stream with one `IdleSpan` per core per maximal
    /// constant-power idle stretch (ending at the event that ends the
    /// stretch, or at the run's last advance) gives a `MetricsSink`
    /// report with the same windows — per-core idle cycles and idle
    /// energy included, bit for bit — and the same totals. The stream
    /// with every advance expanded into one `IdleSpan` per idle core
    /// (ascending, at its announced power) gives a `SpanAssembler` the
    /// same core spans. The one exception is the idle energy total: the
    /// advances carry the ledger's class fold (idle cycles per idle
    /// power, one product per power, summed in ascending power order),
    /// which must equal that fold of the expanded spans to the bit, while
    /// the sink sums the spans one product at a time. Every case runs on
    /// the paper quad and on the quad tiled to 256 cores, where the idle
    /// table spans four mask words and a denser plan keeps cores busy
    /// past the first word; faulted runs cover outages (offline cores
    /// are vacant but not idle).
    #[test]
    fn idle_advances_fold_like_per_core_idle_spans(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..120,
        seed in 0u64..1_000,
        sparse in 0usize..2,
        faulted in 0usize..2,
    ) {
        for t in [Testbed::shared_small(), shared_tiled_256()] {
            advances_fold_like_spans(
                t,
                SystemKind::ALL[system_index],
                DISCIPLINES[discipline_index],
                jobs,
                seed,
                sparse == 1,
                faulted == 1,
            );
        }
    }

    /// Draining the sink's windows while cores sit in open idle
    /// stretches (or offline) loses and double-counts nothing: on real
    /// simulator streams, drained points plus the tail report equal the
    /// undrained report bit for bit, per-core idle energy included, and
    /// a report interleaved with the drains (the scrape path) shows
    /// whole windows. Runs on the paper quad and on the quad tiled to
    /// 256 cores, unfaulted and faulted.
    #[test]
    fn drains_across_open_idle_stretches_lose_nothing(
        system_index in 0usize..4,
        discipline_index in 0usize..3,
        jobs in 40usize..120,
        seed in 0u64..1_000,
        sparse in 0usize..2,
        faulted in 0usize..2,
        salt in 0u64..u64::MAX,
    ) {
        for t in [Testbed::shared_small(), shared_tiled_256()] {
            let (events, horizon) = recorded_run(
                t,
                SystemKind::ALL[system_index],
                DISCIPLINES[discipline_index],
                jobs,
                seed,
                sparse == 1,
                faulted == 1,
            );
            drains_lose_nothing(&events, t.arch.num_cores(), horizon, salt);
        }
    }
}

/// The traced event stream of one run on testbed `t`, with the run's
/// arrival horizon. On the tiled machine four times the jobs arrive 256x
/// closer together, so busy cores reach past the first mask words.
fn recorded_run(
    t: &Testbed,
    kind: SystemKind,
    discipline: QueueDiscipline,
    jobs: usize,
    seed: u64,
    sparse: bool,
    faulted: bool,
) -> (Vec<TraceEvent>, u64) {
    let num_cores = t.arch.num_cores();
    let horizon = if sparse { 80_000_000 } else { 4_000_000 };
    let (jobs, horizon) = if num_cores > 4 {
        (jobs * 4, horizon / 256)
    } else {
        (jobs, horizon)
    };
    let plan = ArrivalPlan::uniform_with_priorities(jobs, horizon, t.suite.len(), 3, seed);
    let fault_plan = if faulted {
        FaultPlan::build(&FaultConfig::chaos(0.3, seed, horizon), num_cores)
    } else {
        FaultPlan::empty()
    };
    let mut recording = RecordingSink::new();
    let _ = Simulator::new(num_cores)
        .with_discipline(discipline)
        .run_with_faults(&plan, &mut t.system(kind), &fault_plan, &mut recording);
    (recording.into_events(), horizon)
}

/// The body of `idle_advances_fold_like_per_core_idle_spans` for one
/// testbed.
fn advances_fold_like_spans(
    t: &Testbed,
    kind: SystemKind,
    discipline: QueueDiscipline,
    jobs: usize,
    seed: u64,
    sparse: bool,
    faulted: bool,
) {
    let num_cores = t.arch.num_cores();
    let (events, _) = recorded_run(t, kind, discipline, jobs, seed, sparse, faulted);

    let expanded = per_advance_spans(&events, num_cores);
    let stretched = per_stretch_spans(&events, num_cores);
    let fold = |stream: &[TraceEvent]| {
        let mut sink = MetricsSink::new(num_cores, INTERVAL);
        let mut spans = SpanAssembler::new();
        for &event in stream {
            sink.record(event);
            spans.record(event);
        }
        spans.finish(sink.last_event_at());
        (sink.report(), spans)
    };
    // The class fold of the expanded spans. Every idle power here is
    // positive, so ascending bits are ascending powers.
    let mut classes: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for event in &expanded {
        if let TraceEvent::IdleSpan {
            from,
            to,
            idle_power_nj_per_cycle: power,
            ..
        } = *event
        {
            prop_assert!(power > 0.0);
            classes.entry(power.to_bits()).or_insert((power, 0)).1 += to - from;
        }
    }
    let class_fold = classes
        .values()
        .fold(0.0, |total, &(power, cycles)| total + power * cycles as f64);
    let (advanced, advanced_spans) = fold(&events);
    let (per_core, per_core_spans) = fold(&expanded);
    let (per_stretch, _) = fold(&stretched);
    prop_assert_eq!(
        format!("{:?}", advanced.points),
        format!("{:?}", per_stretch.points)
    );
    prop_assert_eq!(
        advanced.totals.idle_energy_nj.to_bits(),
        class_fold.to_bits()
    );
    let mut per_stretch_totals = per_stretch.totals;
    per_stretch_totals.idle_energy_nj = class_fold;
    prop_assert_eq!(advanced.totals, per_stretch_totals);
    let mut per_core_totals = per_core.totals;
    per_core_totals.idle_energy_nj = class_fold;
    prop_assert_eq!(advanced.totals, per_core_totals);
    prop_assert_eq!(advanced_spans.core_spans(), per_core_spans.core_spans());
}

/// The body of `drains_across_open_idle_stretches_lose_nothing` for one
/// recorded run, drawing drain and scrape points from `salt`. Windows
/// are drained and scraped only between an event and one that is not an
/// `IdlePower`'s successor in its announcement batch: after an
/// announcement the stream's last stamp is the end of the advance still
/// to come, whose cycles are not final yet.
fn drains_lose_nothing(events: &[TraceEvent], num_cores: usize, horizon: u64, salt: u64) {
    // About fifty windows over the arrivals.
    let interval = (horizon / 50).max(1);
    let mut whole = MetricsSink::new(num_cores, interval);
    for &event in events {
        whole.record(event);
    }
    let expected = whole.report();
    let final_point = |index: usize| format!("{:?}", expected.points[index]);

    let mut sink = MetricsSink::new(num_cores, interval);
    let mut drained = Vec::new();
    let mut rng = SplitMix64::new(salt);
    let mut scrapes = 0;
    for (index, &event) in events.iter().enumerate() {
        let between = index > 0 && !matches!(events[index - 1], TraceEvent::IdlePower { .. });
        if between {
            let draw = rng.next_u64();
            let last = sink.last_event_at();
            let first = sink.drained_below() as u64 * interval;
            if draw.is_multiple_of(4) && first <= last {
                let boundary = first + rng.next_below(last - first + 1);
                drained.extend(sink.drain_points(boundary));
            } else if draw % 32 == 1 {
                // A scrape between events shows whole windows: every
                // core's cycles cover its window, and a window the stream
                // has passed is already final.
                scrapes += 1;
                for point in sink.report().points {
                    let span = point.end - point.start;
                    for (core, cp) in point.cores.iter().enumerate() {
                        prop_assert_eq!(
                            cp.busy_cycles + cp.idle_cycles + cp.offline_cycles,
                            span,
                            "scraped window {} core {}",
                            point.index,
                            core
                        );
                    }
                    if span == interval {
                        prop_assert_eq!(format!("{point:?}"), final_point(point.index));
                    }
                }
            }
        }
        sink.record(event);
    }
    let tail = sink.report();
    prop_assert!(!drained.is_empty() || scrapes > 0 || events.len() < 8);
    drained.extend(tail.points);
    prop_assert_eq!(format!("{drained:?}"), format!("{:?}", expected.points));
    prop_assert_eq!(tail.totals, expected.totals);
}

/// `events` with every `IdleAdvance` expanded into one `IdleSpan` per
/// idle core (ascending, at its announced power) and every `IdlePower`
/// dropped.
fn per_advance_spans(events: &[TraceEvent], num_cores: usize) -> Vec<TraceEvent> {
    let mut idle = IdleCores::new(num_cores);
    let mut expanded = Vec::with_capacity(events.len());
    for event in events {
        match *event {
            TraceEvent::IdleAdvance { from, to, .. } => {
                expanded.extend(idle.iter().map(|(core, power)| TraceEvent::IdleSpan {
                    core,
                    from,
                    to,
                    idle_power_nj_per_cycle: power,
                }));
            }
            TraceEvent::IdlePower { .. } => {}
            other => expanded.push(other),
        }
        idle.observe(event);
    }
    expanded
}

/// `events` with every `IdleAdvance` and `IdlePower` replaced by one
/// `IdleSpan` per core per maximal constant-power idle stretch, placed
/// where the stretch ends. Which cores idle at which power is read from
/// the whole idle set after each event; a stretch ends at the event
/// that ends it or changes its power, and a power change applies from
/// the `from` of the advance the announcement precedes. Stretches still
/// open at the end of the stream end at the run's last advance.
fn per_stretch_spans(events: &[TraceEvent], num_cores: usize) -> Vec<TraceEvent> {
    let mut idle = IdleCores::new(num_cores);
    let mut open: Vec<Option<(u64, f64)>> = vec![None; num_cores];
    let mut stretched = Vec::with_capacity(events.len());
    let span = |core: usize, from: u64, to: u64, power: f64| {
        (from < to).then_some(TraceEvent::IdleSpan {
            core: CoreId(core),
            from,
            to,
            idle_power_nj_per_cycle: power,
        })
    };
    for (index, event) in events.iter().enumerate() {
        idle.observe(event);
        let at = match *event {
            TraceEvent::IdlePower { .. } => events[index..]
                .iter()
                .find_map(|later| match *later {
                    TraceEvent::IdleAdvance { from, .. } => Some(from),
                    _ => None,
                })
                .expect("every announcement precedes an advance"),
            other => other.at(),
        };
        let mut now = vec![None; num_cores];
        for (core, power) in idle.iter() {
            now[core.0] = Some(power);
        }
        for core in 0..num_cores {
            if open[core].map(|(_, p)| p.to_bits()) != now[core].map(f64::to_bits) {
                if let Some((since, power)) = open[core] {
                    stretched.extend(span(core, since, at, power));
                }
                open[core] = now[core].map(|power| (at, power));
            }
        }
        if !matches!(
            event,
            TraceEvent::IdleAdvance { .. } | TraceEvent::IdlePower { .. }
        ) {
            stretched.push(*event);
        }
    }
    let last_advance = events
        .iter()
        .rev()
        .find_map(|event| match *event {
            TraceEvent::IdleAdvance { to, .. } => Some(to),
            _ => None,
        })
        .unwrap_or(0);
    for (core, stretch) in open.iter().enumerate() {
        if let Some((since, power)) = *stretch {
            stretched.extend(span(core, since, last_advance, power));
        }
    }
    stretched
}
