//! The engine sink: bounded-memory snapshot folding of a run.

use crate::slo::{SloPolicy, SloReport};
use crate::snapshot::Snapshot;
use hetero_telemetry::{Histogram, MetricsSink, RunTotals};
use multicore_sim::{TraceEvent, TraceSink};
use std::collections::VecDeque;

/// Configuration of a streaming run.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Telemetry window length in cycles (the [`MetricsSink`] interval).
    pub window_cycles: u64,
    /// Windows per snapshot span: finished windows are folded into a
    /// [`Snapshot`] and freed every `snapshot_windows` windows.
    pub snapshot_windows: u64,
    /// Most recent snapshots retained in memory. Older snapshots are
    /// dropped from the ring (their counters live on in the cumulative
    /// totals), keeping a run of any length in bounded space.
    pub max_snapshots: usize,
    /// Budgets evaluated at the end of the run.
    pub slo: SloPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            window_cycles: 1_000_000,
            snapshot_windows: 10,
            max_snapshots: 512,
            slo: SloPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// Snapshot span length in cycles.
    pub fn snapshot_cycles(&self) -> u64 {
        self.window_cycles * self.snapshot_windows
    }

    /// Check that the windows and the snapshot span are non-empty and
    /// the span's length fits in a `u64`.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a short description.
    pub fn validate(&self) -> Result<(), &'static str> {
        let constraints = [
            (self.window_cycles > 0, "window_cycles must be positive"),
            (
                self.snapshot_windows > 0,
                "snapshot_windows must be positive",
            ),
            (
                self.window_cycles
                    .checked_mul(self.snapshot_windows)
                    .is_some(),
                "window_cycles × snapshot_windows overflows u64",
            ),
        ];
        match constraints.into_iter().find(|&(holds, _)| !holds) {
            Some((_, problem)) => Err(problem),
            None => Ok(()),
        }
    }
}

/// A [`TraceSink`] that folds the event stream into periodic
/// [`Snapshot`]s with bounded memory.
///
/// The sink wraps a [`MetricsSink`] and adds the drain protocol that
/// keeps it O(1): when an event with a *strictly later* timestamp
/// arrives, every earlier cycle is final (the simulator emits events in
/// clock order, and back-dated spans never reach before the previous
/// event), so all snapshot boundaries at or before the previous
/// timestamp can be closed — their windows drained, folded, and freed.
/// Windowed latency histograms are kept per open span (at most two are
/// live, because completions carry non-decreasing timestamps) and reused
/// once their span closes.
#[derive(Debug)]
pub struct EngineSink {
    metrics: MetricsSink,
    snapshot_cycles: u64,
    /// Next snapshot boundary to close, in cycles.
    next_snapshot: u64,
    /// Latency histograms of spans that are still open, keyed by span
    /// index (`at / snapshot_cycles`), oldest first.
    open_latency: VecDeque<(u64, Histogram)>,
    /// Histograms of closed spans, emptied for the next span to open.
    spare_latency: Vec<Histogram>,
    snapshots: VecDeque<Snapshot>,
    max_snapshots: usize,
    snapshots_emitted: u64,
}

impl EngineSink {
    /// A sink for `num_cores` cores under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`EngineConfig::validate`].
    pub fn new(num_cores: usize, config: &EngineConfig) -> Self {
        if let Err(problem) = config.validate() {
            panic!("engine config: {problem}");
        }
        EngineSink {
            metrics: MetricsSink::new(num_cores, config.window_cycles),
            snapshot_cycles: config.snapshot_cycles(),
            next_snapshot: config.snapshot_cycles(),
            open_latency: VecDeque::new(),
            spare_latency: Vec::new(),
            snapshots: VecDeque::new(),
            max_snapshots: config.max_snapshots.max(1),
            snapshots_emitted: 0,
        }
    }

    /// The wrapped metrics sink (cumulative histograms and totals).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Snapshots emitted so far (including any dropped from the ring).
    pub fn snapshots_emitted(&self) -> u64 {
        self.snapshots_emitted
    }

    /// The retained snapshot ring, oldest first (live view for the
    /// scrape endpoint).
    pub fn snapshots(&self) -> impl ExactSizeIterator<Item = &Snapshot> {
        self.snapshots.iter()
    }

    /// Close every snapshot boundary at or before the latest event
    /// timestamp. Called automatically as time advances; callers only
    /// need it for mid-run inspection.
    pub fn emit_ready_snapshots(&mut self) {
        while self.next_snapshot <= self.metrics.last_event_at() {
            let boundary = self.next_snapshot;
            self.next_snapshot += self.snapshot_cycles;
            self.close_span(boundary);
        }
    }

    /// Fold the span ending at `boundary` into a snapshot and free its
    /// windows. `boundary` must be `<= metrics.last_event_at()`.
    fn close_span(&mut self, boundary: u64) {
        let start = boundary - self.snapshot_cycles;
        let span_index = start / self.snapshot_cycles;
        let points = self.metrics.drain_points(boundary);
        let mut latency = self.take_open_latency(span_index);
        self.push_snapshot(start, boundary, &points, &latency);
        latency.reset();
        self.spare_latency.push(latency);
    }

    /// Pop the windowed latency histogram of `span_index` (empty if no
    /// job completed in that span).
    fn take_open_latency(&mut self, span_index: u64) -> Histogram {
        match self.open_latency.front() {
            Some((index, _)) if *index == span_index => {
                self.open_latency.pop_front().expect("peeked").1
            }
            _ => self.spare_latency.pop().unwrap_or_default(),
        }
    }

    fn push_snapshot(
        &mut self,
        start: u64,
        end: u64,
        points: &[hetero_telemetry::SeriesPoint],
        latency: &Histogram,
    ) {
        let totals = self.metrics.totals();
        let snapshot = Snapshot::from_points(
            self.snapshots_emitted,
            start,
            end,
            points,
            latency,
            crate::snapshot::Cumulative {
                completions: totals.completions,
                p99_latency_cycles: self.metrics.latency_cycles().p99(),
                energy_per_job_nj: energy_per_job_nj(totals),
            },
        );
        if self.snapshots.len() == self.max_snapshots {
            self.snapshots.pop_front();
        }
        self.snapshots.push_back(snapshot);
        self.snapshots_emitted += 1;
    }

    /// Finish the run: close every remaining boundary, emit the final
    /// partial snapshot, and evaluate the SLO policy.
    pub fn finish(mut self, slo: &SloPolicy) -> EngineReport {
        // No further events: everything observed is final.
        self.emit_ready_snapshots();
        let tail = self.metrics.report();
        let start = self.next_snapshot - self.snapshot_cycles;
        if tail.horizon > start || !tail.points.is_empty() && tail.horizon > 0 {
            // Residual partial span up to the last event.
            let mut latency = Histogram::new();
            while let Some((_, hist)) = self.open_latency.pop_front() {
                latency.merge(&hist);
            }
            let end = tail.horizon.max(start);
            self.push_snapshot(start, end, &tail.points, &latency);
        }
        let mut report = EngineReport {
            num_cores: tail.num_cores,
            horizon: tail.horizon,
            totals: *self.metrics.totals(),
            latency_cycles: self.metrics.latency_cycles().clone(),
            job_energy_nj: self.metrics.job_energy_nj().clone(),
            stall_cycles: self.metrics.stall_cycles().clone(),
            snapshots: self.snapshots.into_iter().collect(),
            snapshots_emitted: self.snapshots_emitted,
            slo: SloReport::default(),
        };
        report.slo = SloReport::evaluate(
            slo,
            report.totals.completions,
            report.latency_cycles.p99(),
            report.energy_per_job_nj(),
            report.throughput_jobs_per_mcycle(),
        );
        report
    }
}

impl TraceSink for EngineSink {
    fn record(&mut self, event: TraceEvent) {
        // A strictly later event finalises every earlier cycle: close all
        // due snapshot boundaries *before* folding the new event.
        if event.at() > self.metrics.last_event_at() {
            self.emit_ready_snapshots();
        }
        if let TraceEvent::Completion { at, arrival, .. } = event {
            let span = at / self.snapshot_cycles;
            let latency = at - arrival;
            match self.open_latency.back_mut() {
                Some((index, hist)) if *index == span => hist.record(latency),
                _ => {
                    debug_assert!(
                        self.open_latency.back().is_none_or(|(i, _)| *i < span),
                        "completions must carry non-decreasing spans"
                    );
                    let mut hist = self.spare_latency.pop().unwrap_or_default();
                    hist.record(latency);
                    self.open_latency.push_back((span, hist));
                }
            }
        }
        self.metrics.record(event);
    }
}

/// Energy charged per completed job in `totals`, in nJ (0 before the
/// first completion).
fn energy_per_job_nj(totals: &RunTotals) -> f64 {
    let energy_nj = totals.dynamic_nj + totals.static_nj + totals.idle_energy_nj;
    if totals.completions == 0 {
        0.0
    } else {
        energy_nj / totals.completions as f64
    }
}

/// Everything a streaming run distilled: cumulative statistics, the
/// snapshot ring, and the SLO verdict.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Cores simulated.
    pub num_cores: usize,
    /// Last event timestamp (the observed horizon in cycles).
    pub horizon: u64,
    /// Run-wide counters.
    pub totals: RunTotals,
    /// Run-wide job latency histogram, in cycles.
    pub latency_cycles: Histogram,
    /// Run-wide per-job energy histogram, in nJ.
    pub job_energy_nj: Histogram,
    /// Run-wide stall-episode duration histogram, in cycles.
    pub stall_cycles: Histogram,
    /// The retained snapshots, oldest first (up to
    /// [`EngineConfig::max_snapshots`]).
    pub snapshots: Vec<Snapshot>,
    /// Snapshots emitted over the run, including dropped ones.
    pub snapshots_emitted: u64,
    /// The SLO verdict.
    pub slo: SloReport,
}

impl EngineReport {
    /// Total energy charged over the run, in nJ.
    pub fn energy_nj(&self) -> f64 {
        self.totals.dynamic_nj + self.totals.static_nj + self.totals.idle_energy_nj
    }

    /// Run-wide energy per completed job, in nJ.
    pub fn energy_per_job_nj(&self) -> f64 {
        energy_per_job_nj(&self.totals)
    }

    /// Run-wide completion throughput, in jobs per mega-cycle.
    pub fn throughput_jobs_per_mcycle(&self) -> f64 {
        if self.horizon == 0 {
            0.0
        } else {
            self.totals.completions as f64 / self.horizon as f64 * 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Outcome, RunSpec};
    use energy_model::EnergyBreakdown;
    use multicore_sim::{CoreIndex, Decision, Job, JobExecution, Scheduler, Simulator};
    use workloads::{Arrival, OpenLoop};

    /// Fixed-cost policy: first idle core, cycles keyed to the benchmark.
    struct FirstIdle;

    impl Scheduler for FirstIdle {
        fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
            match cores.first_idle() {
                Some(core) => Decision::run(
                    core,
                    JobExecution {
                        cycles: 40 + 17 * (job.benchmark.0 as u64 % 5),
                        energy: EnergyBreakdown {
                            idle_nj: 0.0,
                            dynamic_nj: 1.0,
                            static_nj: 0.5,
                        },
                    },
                ),
                None => Decision::Stall,
            }
        }

        fn idle_power_nj_per_cycle(&self, _core: multicore_sim::CoreId) -> f64 {
            1.0
        }
    }

    fn config() -> EngineConfig {
        EngineConfig {
            window_cycles: 10_000,
            snapshot_windows: 5,
            max_snapshots: 16,
            slo: SloPolicy::default(),
        }
    }

    /// A plain engine run of `FirstIdle` under `engine`.
    fn run_plain(
        simulator: &Simulator,
        arrivals: impl IntoIterator<Item = Arrival>,
        engine: &EngineConfig,
    ) -> Outcome {
        let spec = RunSpec {
            engine: engine.clone(),
            ..RunSpec::default()
        };
        crate::run(simulator, arrivals, &mut FirstIdle, &spec).expect("a plain run cannot fail")
    }

    /// `spec` over a short stream: must come back as `expected`, not run.
    fn assert_config_error(spec: RunSpec, expected: impl Fn(&crate::EngineError) -> bool) {
        let source = OpenLoop::poisson(20.0, 20, 3).take(50);
        match crate::run(&Simulator::new(2), source, &mut FirstIdle, &spec) {
            Err(error) => assert!(expected(&error), "unexpected error {error}"),
            Ok(_) => panic!("a malformed configuration ran"),
        }
    }

    /// Matches [`crate::EngineError::InvalidEngineConfig`] with `text` in
    /// its problem.
    fn invalid_engine(text: &'static str) -> impl Fn(&crate::EngineError) -> bool {
        move |e| matches!(e, crate::EngineError::InvalidEngineConfig { problem } if problem.contains(text))
    }

    /// Matches [`crate::EngineError::InvalidOverload`] with `text` in its
    /// problem.
    fn invalid_overload(text: &'static str) -> impl Fn(&crate::EngineError) -> bool {
        move |e| matches!(e, crate::EngineError::InvalidOverload { problem } if problem.contains(text))
    }

    /// A governed spec whose only mechanism is `bucket`.
    fn bucket_spec(bucket: crate::TokenBucketConfig) -> RunSpec {
        RunSpec {
            overload: Some(crate::OverloadConfig {
                rate_limit: Some(bucket),
                ..crate::OverloadConfig::disabled()
            }),
            ..RunSpec::default()
        }
    }

    #[test]
    fn zero_window_cycles_is_a_config_error() {
        let mut engine = config();
        engine.window_cycles = 0;
        let spec = RunSpec {
            engine,
            ..RunSpec::default()
        };
        assert_config_error(spec, invalid_engine("window_cycles must be positive"));
    }

    #[test]
    fn zero_snapshot_windows_is_a_config_error() {
        let mut engine = config();
        engine.snapshot_windows = 0;
        let spec = RunSpec {
            engine,
            ..RunSpec::default()
        };
        assert_config_error(spec, invalid_engine("snapshot_windows must be positive"));
    }

    #[test]
    fn an_overflowing_snapshot_span_is_a_config_error() {
        let mut engine = config();
        engine.window_cycles = 1 << 63;
        engine.snapshot_windows = 2;
        let spec = RunSpec {
            engine,
            ..RunSpec::default()
        };
        assert_config_error(spec, invalid_engine("overflows"));
    }

    #[test]
    fn zero_brownout_control_window_is_a_config_error() {
        let spec = RunSpec {
            overload: Some(crate::OverloadConfig {
                brownout: Some(crate::BrownoutConfig {
                    control_window_cycles: 0,
                    depth_high: 8,
                    depth_low: 2,
                    latency_budget_cycles: 1_000,
                    breach_fraction: 0.5,
                    step_up_after: 1,
                    step_down_after: 1,
                }),
                ..crate::OverloadConfig::disabled()
            }),
            ..RunSpec::default()
        };
        assert_config_error(
            spec,
            invalid_overload("control_window_cycles must be positive"),
        );
    }

    #[test]
    fn zero_breaker_trip_after_is_a_config_error() {
        let spec = RunSpec {
            overload: Some(crate::OverloadConfig {
                breaker: Some(crate::BreakerConfig {
                    trip_after: 0,
                    cooldown_cycles: 1_000,
                }),
                ..crate::OverloadConfig::disabled()
            }),
            ..RunSpec::default()
        };
        assert_config_error(spec, invalid_overload("trip_after must be positive"));
    }

    #[test]
    fn a_non_finite_or_sub_unit_bucket_capacity_is_a_config_error() {
        for capacity in [f64::NAN, f64::INFINITY, 0.0, 0.5, -1.0] {
            let spec = bucket_spec(crate::TokenBucketConfig {
                capacity,
                refill_per_mcycle: 1.0,
            });
            assert_config_error(spec, invalid_overload("capacity must be finite and >= 1"));
        }
    }

    #[test]
    fn a_non_finite_or_non_positive_bucket_refill_is_a_config_error() {
        for refill_per_mcycle in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            let spec = bucket_spec(crate::TokenBucketConfig {
                capacity: 10.0,
                refill_per_mcycle,
            });
            assert_config_error(
                spec,
                invalid_overload("refill_per_mcycle must be finite and positive"),
            );
        }
    }

    #[test]
    fn a_malformed_burn_rate_rule_is_a_config_error() {
        let observe = crate::ObserveConfig {
            rules: vec![hetero_telemetry::BurnRateRule {
                error_budget: 0.0,
                ..hetero_telemetry::BurnRateRule::paging("p99", 1_000)
            }],
            ..crate::ObserveConfig::disabled()
        };
        let malformed = |e: &crate::EngineError| {
            matches!(
                e,
                crate::EngineError::InvalidBurnRule { rule, problem }
                    if rule == "p99" && problem.contains("error budget")
            )
        };
        let plane = crate::ObservedSink::try_new(2, &config(), &observe, None);
        assert!(plane.as_ref().is_err_and(malformed));
        let spec = RunSpec {
            observe: Some(observe),
            ..RunSpec::default()
        };
        assert_config_error(spec, malformed);
    }

    #[test]
    fn streaming_matches_the_batch_run_bit_for_bit() {
        let source = || OpenLoop::poisson(20.0, 20, 42).take(3_000);
        let plan = workloads::ArrivalPlan::from_stream(source(), 3_000);
        let simulator = Simulator::new(4);

        let batch = simulator.run(&plan, &mut FirstIdle);
        let outcome = run_plain(&simulator, source(), &config());

        assert_eq!(outcome.metrics, batch);
        assert_eq!(outcome.report.totals.completions, 3_000);
    }

    #[test]
    fn snapshots_conserve_the_run_totals() {
        let source = OpenLoop::poisson(20.0, 20, 7).take(2_000);
        let outcome = run_plain(&Simulator::new(4), source, &{
            let mut config = config();
            config.max_snapshots = usize::MAX;
            config
        });
        let report = &outcome.report;
        assert_eq!(report.snapshots.len() as u64, report.snapshots_emitted);
        let arrivals: u64 = report.snapshots.iter().map(|s| s.arrivals).sum();
        let completions: u64 = report.snapshots.iter().map(|s| s.completions).sum();
        let energy: f64 = report.snapshots.iter().map(|s| s.energy_nj).sum();
        assert_eq!(arrivals, report.totals.arrivals);
        assert_eq!(completions, report.totals.completions);
        assert!(
            (energy - report.energy_nj()).abs() <= 1e-6 * report.energy_nj().abs().max(1.0),
            "snapshot energy {energy} vs totals {}",
            report.energy_nj()
        );
        // Spans tile the run: contiguous, ending at the horizon.
        for pair in report.snapshots.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(report.snapshots.last().unwrap().end, report.horizon);
        // Windowed latency covers every completion exactly once.
        let windowed: u64 = report.snapshots.iter().map(|s| s.completions).sum();
        assert_eq!(windowed, report.latency_cycles.count());
    }

    #[test]
    fn the_ring_is_bounded_but_the_count_is_not() {
        let source = OpenLoop::poisson(20.0, 20, 3).take(4_000);
        let mut cfg = config();
        cfg.max_snapshots = 4;
        let outcome = run_plain(&Simulator::new(4), source, &cfg);
        assert_eq!(outcome.report.snapshots.len(), 4);
        assert!(outcome.report.snapshots_emitted > 4);
        // The ring keeps the most recent spans.
        assert_eq!(
            outcome.report.snapshots.last().unwrap().index + 1,
            outcome.report.snapshots_emitted
        );
    }

    #[test]
    fn slo_verdict_reflects_the_budgets() {
        let mut cfg = config();
        cfg.slo = SloPolicy {
            max_p99_latency_cycles: Some(u64::MAX),
            max_energy_per_job_nj: Some(f64::MAX),
            min_throughput_jobs_per_mcycle: Some(0.0),
        };
        let pass = run_plain(
            &Simulator::new(4),
            OpenLoop::poisson(10.0, 20, 1).take(500),
            &cfg,
        );
        assert!(pass.report.slo.passed());
        assert_eq!(pass.report.slo.checks.len(), 3);

        cfg.slo.min_throughput_jobs_per_mcycle = Some(1e12);
        let fail = run_plain(
            &Simulator::new(4),
            OpenLoop::poisson(10.0, 20, 1).take(500),
            &cfg,
        );
        assert!(!fail.report.slo.passed());
    }

    #[test]
    fn duplicate_event_timestamps_close_each_boundary_exactly_once() {
        use multicore_sim::{CoreId, PlacementKind, TraceEvent};
        use workloads::BenchmarkId;

        // Two arrivals sharing a timestamp, then two completions sharing
        // one that jumps past the 50k snapshot boundary: the boundary
        // must close once (on the first of the pair), and the second
        // event must fold into the already-open span, not re-close it.
        let mut sink = EngineSink::new(2, &config());
        for seq in 0..2 {
            sink.record(TraceEvent::Arrival {
                seq,
                benchmark: BenchmarkId(0),
                at: 0,
                priority: 0,
            });
            sink.record(TraceEvent::Placement {
                seq,
                benchmark: BenchmarkId(0),
                core: CoreId(seq as usize),
                at: 0,
                cycles: 60_000,
                dynamic_nj: 1.0,
                static_nj: 0.5,
                kind: PlacementKind::Pass,
            });
        }
        for seq in 0..2 {
            sink.record(TraceEvent::Completion {
                seq,
                benchmark: BenchmarkId(0),
                core: CoreId(seq as usize),
                at: 60_000,
                arrival: 0,
                priority: 0,
            });
        }
        let report = sink.finish(&SloPolicy::default());
        assert_eq!(report.totals.arrivals, 2);
        assert_eq!(report.totals.completions, 2);
        // One full span [0, 50k) plus the final partial [50k, 60k).
        assert_eq!(report.snapshots_emitted, 2);
        assert_eq!(report.snapshots[0].arrivals, 2);
        assert_eq!(report.snapshots[1].completions, 2);
        assert_eq!(report.snapshots[1].end, 60_000);
        let windowed: u64 = report.snapshots.iter().map(|s| s.completions).sum();
        assert_eq!(windowed, report.latency_cycles.count());
    }

    #[test]
    fn backdated_arrivals_fold_into_the_open_span_without_reopening_closed_ones() {
        use multicore_sim::{CoreId, PlacementKind, TraceEvent};
        use workloads::BenchmarkId;

        let mut sink = EngineSink::new(2, &config());
        sink.record(TraceEvent::Arrival {
            seq: 0,
            benchmark: BenchmarkId(0),
            at: 0,
            priority: 0,
        });
        sink.record(TraceEvent::Placement {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 0,
            cycles: 60_000,
            dynamic_nj: 1.0,
            static_nj: 0.5,
            kind: PlacementKind::Pass,
        });
        // This completion closes the [0, 50k) span.
        sink.record(TraceEvent::Completion {
            seq: 0,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 60_000,
            arrival: 0,
            priority: 0,
        });
        // Boundaries close lazily: only a strictly later event proves
        // the span is final, so nothing is emitted yet.
        assert_eq!(sink.snapshots_emitted(), 0);
        // An arrival backdated to 55k — earlier than the last event but
        // still inside the open [50k, …) span — must land in that span
        // and must not close the still-pending [0, 50k) boundary.
        sink.record(TraceEvent::Arrival {
            seq: 1,
            benchmark: BenchmarkId(0),
            at: 55_000,
            priority: 0,
        });
        sink.record(TraceEvent::Placement {
            seq: 1,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 60_000,
            cycles: 10_000,
            dynamic_nj: 1.0,
            static_nj: 0.5,
            kind: PlacementKind::Pass,
        });
        sink.record(TraceEvent::Completion {
            seq: 1,
            benchmark: BenchmarkId(0),
            core: CoreId(0),
            at: 70_000,
            arrival: 55_000,
            priority: 0,
        });
        // The completion at 70k is the first event past the 50k
        // boundary's proof point, so exactly one span has closed; the
        // backdated arrival itself closed nothing.
        assert_eq!(sink.snapshots_emitted(), 1);
        let report = sink.finish(&SloPolicy::default());
        assert_eq!(report.totals.arrivals, 2);
        assert_eq!(report.totals.completions, 2);
        assert_eq!(report.snapshots_emitted, 2);
        assert_eq!(report.snapshots[1].start, 50_000);
        assert_eq!(
            report.snapshots[1].arrivals, 1,
            "backdated arrival lands in the open span"
        );
        assert_eq!(report.snapshots[1].end, 70_000);
    }

    #[test]
    fn empty_stream_yields_an_empty_report() {
        let outcome = run_plain(&Simulator::new(2), std::iter::empty(), &config());
        assert_eq!(outcome.metrics.jobs_completed, 0);
        assert_eq!(outcome.report.snapshots_emitted, 0);
        assert!(outcome.report.slo.passed());
    }
}
