//! Every entry point of the hetero-sched crates the benchmark calls.
//!
//! The benchmark drives the stack from outside, through public functions
//! only: `SuiteOracle::build`, `BestCorePredictor::{train, distill}`, the
//! four systems' constructors, `Simulator::{run, run_stream}`,
//! `EngineSink`, `GovernorHandle::{gate, sink}` and `ObservedSink`. When
//! those entry points change, this is the one file that has to follow.
//! (The adapters in [`crate::trace`] only forward the `Scheduler` and
//! `TraceSink` trait methods.)
//!
//! Each `*_rep` function is one timed repetition of a workload. It is
//! generic over `ON`: with `ON = false` the composition is exactly the
//! program's own (the pass-through adapters compile away and schedulers
//! are called directly); with `ON = true` every layer boundary is counted
//! and sampled through the [`Tracer`].

use crate::scrape::{self, ScrapeLog};
use crate::trace::{Layer, Timed, TimedIter, TimedSink, Tracer};
use cache_sim::CacheSizeKb;
use energy_model::EnergyModel;
use hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, EnergyCentricSystem, OptimalSystem,
    PredictorConfig, ProposedSystem, SuiteOracle, SystemStats,
};
use hetero_engine::{
    BrownoutConfig, EngineConfig, EngineSink, GovernorHandle, ObserveConfig, ObservedSink,
    OverloadConfig, OverloadReport, ShedPolicy, TokenBucketConfig,
};
use hetero_telemetry::{BurnRateRule, Histogram};
use multicore_sim::{
    tier_cell, CoreId, CoreIndex, Decision, Job, RunMetrics, Scheduler, Simulator, TierCell,
    TraceSink,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use tinyann::{DistillConfig, TrainConfig};
use workloads::{Arrival, ArrivalPlan, OpenLoop, Suite};

/// The four systems of the paper's evaluation, in its presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Fixed `8KB_4W_64B` on every core.
    Base,
    /// Exhaustive-search comparator.
    Optimal,
    /// ANN + always-stall comparator.
    EnergyCentric,
    /// The paper's proposed system.
    Proposed,
}

impl SystemKind {
    /// All four, in presentation order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Base,
        SystemKind::Optimal,
        SystemKind::EnergyCentric,
        SystemKind::Proposed,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Base => "base",
            SystemKind::Optimal => "optimal",
            SystemKind::EnergyCentric => "energy_centric",
            SystemKind::Proposed => "proposed",
        }
    }

    /// Dense index (for per-system arrays).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Which suite and predictor a testbed trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 20 kernels and the paper's 30-MLP bagged predictor.
    Paper,
    /// The reduced suite and the 3-MLP fast predictor.
    Small,
}

/// Host seconds spent in each setup stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Suite construction and the exhaustive design-space oracle.
    pub oracle_s: f64,
    /// Training the bagged best-core predictor.
    pub predictor_s: f64,
    /// Architecture, distilled student and one construction of every
    /// system the workload runs.
    pub serving_s: f64,
}

impl SetupTimes {
    /// All stages together: the workload's set-up time.
    pub fn total_s(&self) -> f64 {
        self.oracle_s + self.predictor_s + self.serving_s
    }
}

/// Everything a workload's reps share, built once per setup.
pub struct Testbed {
    suite_len: usize,
    model: EnergyModel,
    oracle: SuiteOracle,
    arch: Architecture,
    predictor: BestCorePredictor,
    /// Distilled student serving brownout tier 1 (`storm` only).
    student: Option<BestCorePredictor>,
}

/// The paper's 2/4/8/8 KB quad tiled to `num_cores` (a multiple of 4, so
/// the last two cores are 8 KB and can profile).
fn tiled_architecture(num_cores: usize) -> Architecture {
    use CacheSizeKb::{K2, K4, K8};
    if num_cores == 4 {
        return Architecture::paper_quad();
    }
    let sizes = (0..num_cores).map(|i| [K2, K4, K8, K8][i % 4]).collect();
    Architecture::new(sizes, CoreId(num_cores - 1), Some(CoreId(num_cores - 2)))
}

impl Testbed {
    /// Build the oracle, predictor and serving pieces, timing each stage.
    /// `systems` are constructed (and dropped) once so their own set-up
    /// cost lands in `serving_s`.
    pub fn build(
        scale: Scale,
        num_cores: usize,
        distill: bool,
        systems: &[SystemKind],
    ) -> (Testbed, SetupTimes) {
        let mut times = SetupTimes::default();
        let start = Instant::now();
        let suite = match scale {
            Scale::Paper => Suite::eembc_like(),
            Scale::Small => Suite::eembc_like_small(),
        };
        let model = EnergyModel::default();
        let oracle = SuiteOracle::build(&suite, &model);
        times.oracle_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let config = match scale {
            Scale::Paper => PredictorConfig::paper(),
            Scale::Small => PredictorConfig::fast(),
        };
        let predictor = BestCorePredictor::train(&oracle, &config);
        times.predictor_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let arch = tiled_architecture(num_cores);
        // The chaos drill's student: small enough to be a real brownout
        // tier, trained on the teacher's outputs.
        let student = distill
            .then(|| {
                predictor.distill(
                    &oracle,
                    &DistillConfig {
                        replicas: 2,
                        hidden: vec![8],
                        train: TrainConfig {
                            epochs: 80,
                            ..TrainConfig::default()
                        },
                        ..DistillConfig::default()
                    },
                )
            })
            .flatten();
        let testbed = Testbed {
            suite_len: suite.len(),
            model,
            oracle,
            arch,
            predictor,
            student,
        };
        for &kind in systems {
            let tier = testbed.student.is_some().then(tier_cell);
            std::hint::black_box(testbed.system(kind, tier));
        }
        times.serving_s = start.elapsed().as_secs_f64();
        (testbed, times)
    }

    /// Simulated cores.
    pub fn num_cores(&self) -> usize {
        self.arch.num_cores()
    }

    /// Mean and largest best-configuration execution cycles over the suite:
    /// the service time that sets a sustainable arrival rate.
    pub fn service_cycles(&self) -> (u64, u64) {
        let cycles: Vec<u64> = self
            .oracle
            .benchmarks()
            .map(|b| self.oracle.best_config(b).1.cycles)
            .collect();
        let mean = (cycles.iter().sum::<u64>() / cycles.len() as u64).max(1);
        (mean, cycles.iter().copied().max().unwrap_or(mean))
    }

    /// A fresh instance of one system. `tier` subscribes the proposed
    /// system to a brownout serving tier served by the distilled student.
    pub fn system(&self, kind: SystemKind, tier: Option<TierCell>) -> System<'_> {
        match kind {
            SystemKind::Base => {
                System::Base(BaseSystem::new(&self.oracle, self.model, self.num_cores()))
            }
            SystemKind::Optimal => {
                System::Optimal(OptimalSystem::new(&self.arch, &self.oracle, self.model))
            }
            SystemKind::EnergyCentric => System::EnergyCentric(EnergyCentricSystem::new(
                &self.arch,
                &self.oracle,
                self.model,
                self.predictor.clone(),
            )),
            SystemKind::Proposed => {
                let system = ProposedSystem::with_model(
                    &self.arch,
                    &self.oracle,
                    self.model,
                    self.predictor.clone(),
                );
                System::Proposed(match tier {
                    Some(cell) => system.with_serving_tier(cell, self.student.clone()),
                    None => system,
                })
            }
        }
    }
}

/// One constructed system, keeping its concrete type so its counters stay
/// readable after the run.
pub enum System<'a> {
    /// See [`SystemKind::Base`].
    Base(BaseSystem<'a>),
    /// See [`SystemKind::Optimal`].
    Optimal(OptimalSystem<'a>),
    /// See [`SystemKind::EnergyCentric`].
    EnergyCentric(EnergyCentricSystem<'a>),
    /// See [`SystemKind::Proposed`].
    Proposed(ProposedSystem<'a>),
}

impl System<'_> {
    fn scheduler(&mut self) -> &mut dyn Scheduler {
        match self {
            System::Base(system) => system,
            System::Optimal(system) => system,
            System::EnergyCentric(system) => system,
            System::Proposed(system) => system,
        }
    }

    fn stats(&self) -> SystemStats {
        match self {
            System::Base(_) => SystemStats::default(),
            System::Optimal(system) => system.stats(),
            System::EnergyCentric(system) => system.stats(),
            System::Proposed(system) => system.stats(),
        }
    }
}

/// One system's run within a rep.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Which system.
    pub kind: SystemKind,
    /// Arrivals offered to it (admitted plus shed).
    pub offered: u64,
    /// Arrivals the admission gate refused.
    pub shed: u64,
    /// The simulator's exact metrics.
    pub metrics: RunMetrics,
    /// The scheduler's counters.
    pub stats: SystemStats,
}

/// One system's runs within a rep, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Arrivals offered.
    pub offered: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Modeled energy, in nJ.
    pub energy_nj: f64,
    /// Summed arrival-to-completion cycles.
    pub turnaround_cycles: u64,
}

impl Totals {
    /// Modeled energy per completed job, in nJ.
    pub fn energy_per_job_nj(&self) -> f64 {
        self.energy_nj / self.completed as f64
    }
}

/// What one rep produced.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Arrivals the workload generated (before admission).
    pub arrivals: u64,
    /// Every system run, in order.
    pub runs: Vec<SystemRun>,
    /// Turnaround histogram of the proposed system, in cycles (empty when
    /// the rep did not collect it).
    pub latency: Histogram,
    /// The overload governor's report, where one ran.
    pub overload: Option<OverloadReport>,
    /// Burn-rate alerts that fired (`live`).
    pub alerts_fired: u64,
    /// What the scrape client saw (`live`).
    pub scrapes: Option<ScrapeLog>,
    /// Scrapes the server answered, refused or could not route (`live`).
    pub served: u64,
    /// Requests the server rejected or answered with 404 (`live`).
    pub serve_errors: u64,
}

impl RepOutcome {
    /// The runs of one system.
    pub fn runs_of(&self, kind: SystemKind) -> impl Iterator<Item = &SystemRun> {
        self.runs.iter().filter(move |run| run.kind == kind)
    }

    /// The runs of one system, summed.
    pub fn totals(&self, kind: SystemKind) -> Totals {
        self.runs_of(kind)
            .fold(Totals::default(), |sum, run| Totals {
                offered: sum.offered + run.offered,
                completed: sum.completed + run.metrics.jobs_completed,
                energy_nj: sum.energy_nj + run.metrics.energy.total(),
                turnaround_cycles: sum.turnaround_cycles + run.metrics.turnaround_cycles,
            })
    }
}

/// Run `system` over `arrivals` into `sink`, behind the timing adapter
/// when traced.
fn drive<I, T, const ON: bool>(
    sim: &Simulator,
    arrivals: I,
    system: &mut System<'_>,
    kind: SystemKind,
    sink: &mut T,
    tracer: &Tracer,
) -> RunMetrics
where
    I: IntoIterator<Item = Arrival>,
    T: TraceSink + ?Sized,
{
    if ON {
        sim.run_stream(
            arrivals,
            &mut Timed::new(system.scheduler(), tracer, kind),
            sink,
        )
    } else {
        sim.run_stream(arrivals, system.scheduler(), sink)
    }
}

/// Records each completed job's turnaround; wraps the proposed system in
/// the `paper` warm-up rep, whose batch runs have no sink to read a
/// latency distribution from.
struct Turnarounds<'a> {
    inner: &'a mut dyn Scheduler,
    latency: &'a mut Histogram,
}

impl Scheduler for Turnarounds<'_> {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, now: u64) -> Decision {
        self.inner.schedule(job, cores, now)
    }

    fn idle_power_nj_per_cycle(&self, core: CoreId) -> f64 {
        self.inner.idle_power_nj_per_cycle(core)
    }

    fn on_complete(&mut self, job: &Job, core: CoreId, now: u64) {
        self.latency.record(now - job.arrival);
        self.inner.on_complete(job, core, now);
    }

    fn on_preempt(&mut self, job: &Job, core: CoreId, now: u64) {
        self.inner.on_preempt(job, core, now);
    }

    fn state_fingerprint(&self) -> u64 {
        self.inner.state_fingerprint()
    }
}

/// `paper` sizes: the Figure 6 experiment, repeated over several arrival
/// plans.
#[derive(Debug, Clone, Copy)]
pub struct PaperSpec {
    /// Arrival plans per rep.
    pub plans: usize,
    /// Uniform arrivals per plan, shared by the four systems.
    pub jobs: usize,
    /// Arrival horizon of a plan, in cycles.
    pub horizon: u64,
}

/// SplitMix64's output mix: a bijection on `u64` with full avalanche.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of a rep's `index`th arrival plan. Plan 0 takes the seed itself,
/// so the default seed replays Figure 6; the others are hashed, so nearby
/// seeds share no plan.
pub fn plan_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        seed
    } else {
        mix64(mix64(seed).wrapping_add(index as u64))
    }
}

/// One `paper` rep: per plan, the arrivals, then the four systems over
/// them through `Simulator::run` with no sink. `latency` collects the
/// proposed system's turnaround histogram (used on the warm-up rep only,
/// so the timed reps run the program's plain batch path).
pub fn paper_rep<const ON: bool>(
    testbed: &Testbed,
    spec: PaperSpec,
    seed: u64,
    latency: bool,
    tracer: &Tracer,
) -> RepOutcome {
    let sim = Simulator::new(testbed.num_cores());
    let mut outcome = RepOutcome::default();
    for index in 0..spec.plans {
        let plan = tracer.block(Layer::Workloads, || {
            ArrivalPlan::uniform(
                spec.jobs,
                spec.horizon,
                testbed.suite_len,
                plan_seed(seed, index),
            )
        });
        outcome.arrivals += plan.len() as u64;
        for kind in SystemKind::ALL {
            let mut system = testbed.system(kind, None);
            let metrics = if ON {
                sim.run(&plan, &mut Timed::new(system.scheduler(), tracer, kind))
            } else if latency && kind == SystemKind::Proposed {
                sim.run(
                    &plan,
                    &mut Turnarounds {
                        inner: system.scheduler(),
                        latency: &mut outcome.latency,
                    },
                )
            } else {
                sim.run(&plan, system.scheduler())
            };
            outcome.runs.push(SystemRun {
                kind,
                offered: plan.len() as u64,
                shed: 0,
                metrics,
                stats: system.stats(),
            });
        }
    }
    outcome
}

/// `manycore` sizes.
#[derive(Debug, Clone, Copy)]
pub struct ManycoreSpec {
    /// Poisson arrivals per system.
    pub jobs: usize,
    /// Offered load per core, in jobs per mega-cycle.
    pub rate_per_core: f64,
}

/// One `manycore` rep: base, then proposed, each over the same Poisson
/// stream through `run_stream` into an `EngineSink`.
pub fn manycore_rep<const ON: bool>(
    testbed: &Testbed,
    spec: ManycoreSpec,
    seed: u64,
    tracer: &Tracer,
) -> RepOutcome {
    let cores = testbed.num_cores();
    let sim = Simulator::new(cores);
    let config = EngineConfig::default();
    let rate = spec.rate_per_core * cores as f64;
    let mut outcome = RepOutcome::default();
    for kind in [SystemKind::Base, SystemKind::Proposed] {
        let mut system = testbed.system(kind, None);
        let source = OpenLoop::poisson(rate, testbed.suite_len, seed).take(spec.jobs);
        let mut engine = EngineSink::new(cores, &config);
        let metrics = {
            let mut sink = TimedSink::<_, ON>::new(&mut engine, tracer, Layer::SinkEngine);
            let arrivals = TimedIter::<_, ON>::new(source, tracer, Layer::Workloads);
            drive::<_, _, ON>(&sim, arrivals, &mut system, kind, &mut sink, tracer)
        };
        let report = tracer.block(Layer::SinkFinish, || engine.finish(&config.slo));
        outcome.arrivals += spec.jobs as u64;
        if kind == SystemKind::Proposed {
            outcome.latency = report.latency_cycles;
        }
        outcome.runs.push(SystemRun {
            kind,
            offered: spec.jobs as u64,
            shed: 0,
            metrics,
            stats: system.stats(),
        });
    }
    outcome
}

/// `storm` sizes.
#[derive(Debug, Clone, Copy)]
pub struct StormSpec {
    /// Arrivals offered per rep.
    pub offered: usize,
}

/// The admission queue bound `storm` must never reach.
pub const STORM_QUEUE_BOUND: u64 = 65_536;

/// The storm's overload configuration, scaled to the suite's service time:
/// a token bucket at the sustainable rate, a drop-tail queue bound and a
/// brownout ladder stepping on in-flight depth.
fn storm_overload(cores: u64, mean_cycles: u64, max_cycles: u64) -> OverloadConfig {
    OverloadConfig {
        queue_capacity: Some(STORM_QUEUE_BOUND),
        policy: ShedPolicy::DropTail,
        rate_limit: Some(TokenBucketConfig {
            capacity: 8.0 * cores as f64,
            refill_per_mcycle: sustainable_per_mcycle(cores, mean_cycles),
        }),
        brownout: Some(BrownoutConfig {
            control_window_cycles: 4 * mean_cycles,
            depth_high: 32,
            depth_low: 4,
            latency_budget_cycles: 3 * max_cycles,
            breach_fraction: 0.5,
            step_up_after: 2,
            step_down_after: 2,
        }),
        breaker: None,
    }
}

/// Jobs per mega-cycle the cores can serve at the mean service time.
fn sustainable_per_mcycle(cores: u64, mean_cycles: u64) -> f64 {
    cores as f64 * 1e6 / mean_cycles as f64
}

/// One `storm` rep: bursty arrivals through the admission gate into
/// `kind` (the proposed system with serving tiers; base for its energy
/// reference), events through the governor's sink into an `EngineSink`.
pub fn storm_rep<const ON: bool>(
    testbed: &Testbed,
    spec: StormSpec,
    seed: u64,
    kind: SystemKind,
    tracer: &Tracer,
) -> RepOutcome {
    let cores = testbed.num_cores();
    let (mean_cycles, max_cycles) = testbed.service_cycles();
    let sustainable = sustainable_per_mcycle(cores as u64, mean_cycles);
    // 3x sustainable for a quarter of each 400x-mean-service period, half
    // of it for the rest: 1.125x on average, above the bucket's 1.0x.
    let period = 400 * mean_cycles;
    let source = OpenLoop::bursty(
        3.0 * sustainable,
        0.5 * sustainable,
        period / 4,
        period - period / 4,
        testbed.suite_len,
        seed,
    )
    .take(spec.offered);
    let overload = storm_overload(cores as u64, mean_cycles, max_cycles);
    let config = EngineConfig {
        window_cycles: 4 * mean_cycles,
        snapshot_windows: 4,
        max_snapshots: 64,
        ..EngineConfig::default()
    };

    let cell = (kind == SystemKind::Proposed).then(tier_cell);
    let mut system = testbed.system(kind, cell.clone());
    let governor = GovernorHandle::new(&overload, cores, cell);
    let mut engine = EngineSink::new(cores, &config);
    let metrics = {
        let mut inner = TimedSink::<_, ON>::new(&mut engine, tracer, Layer::SinkEngine);
        let mut governed = governor.sink(&mut inner);
        let metrics = {
            let mut outer = TimedSink::<_, ON>::new(&mut governed, tracer, Layer::SinkOverload);
            let arrivals = TimedIter::<_, ON>::new(
                governor.gate(TimedIter::<_, ON>::new(source, tracer, Layer::Workloads)),
                tracer,
                Layer::Admission,
            );
            drive::<_, _, ON>(
                &Simulator::new(cores),
                arrivals,
                &mut system,
                kind,
                &mut outer,
                tracer,
            )
        };
        tracer.block(Layer::SinkFinish, || governed.finish());
        metrics
    };
    let report = tracer.block(Layer::SinkFinish, || engine.finish(&config.slo));
    let overload = governor.report();
    RepOutcome {
        arrivals: spec.offered as u64,
        runs: vec![SystemRun {
            kind,
            offered: overload.offered,
            shed: overload.shed(),
            metrics,
            stats: system.stats(),
        }],
        latency: report.latency_cycles,
        overload: Some(overload),
        ..RepOutcome::default()
    }
}

/// `live` sizes.
#[derive(Debug, Clone, Copy)]
pub struct LiveSpec {
    /// Poisson arrivals per rep.
    pub jobs: usize,
    /// Offered load in jobs per mega-cycle (the paper's 5000 jobs over
    /// 700 M cycles).
    pub rate: f64,
}

/// One `live` rep of `kind` (the proposed system; base for its energy
/// reference): the full governed and observed stack. The governor is
/// armed but quiescent (every limit far above what the run reaches), the
/// plane evaluates a paging burn-rate rule and serves scrapes, and a
/// client thread scrapes `/metrics` and `/health` on a host-time schedule
/// while the simulation runs.
pub fn live_rep<const ON: bool>(
    testbed: &Testbed,
    spec: LiveSpec,
    seed: u64,
    kind: SystemKind,
    tracer: &Tracer,
) -> RepOutcome {
    let cores = testbed.num_cores();
    let source = OpenLoop::poisson(spec.rate, testbed.suite_len, seed).take(spec.jobs);
    // The quiescent governor of the `engine_overload` perf stage.
    let overload = OverloadConfig {
        queue_capacity: Some(u64::MAX),
        policy: ShedPolicy::DropTail,
        rate_limit: None,
        brownout: Some(BrownoutConfig {
            control_window_cycles: 10_000_000,
            depth_high: u64::MAX,
            depth_low: u64::MAX,
            latency_budget_cycles: u64::MAX,
            breach_fraction: 2.0,
            step_up_after: 2,
            step_down_after: 2,
        }),
        breaker: None,
    };
    let observe = ObserveConfig {
        rules: vec![BurnRateRule::paging("p99-latency", 5_000_000)],
        serve_port: Some(0),
        ..ObserveConfig::disabled()
    };
    let config = EngineConfig::default();

    let mut system = testbed.system(kind, None);
    let governor = GovernorHandle::new(&overload, cores, None);
    let mut plane = ObservedSink::new(cores, &config, &observe, Some(governor.clone()));
    let addr = plane
        .serve_addr()
        .expect("the plane binds its scrape server");
    let stop = AtomicBool::new(false);
    let (metrics, scrapes) = std::thread::scope(|scope| {
        let client = scope.spawn(|| scrape::scrape_until(addr, &stop));
        let metrics = {
            let mut inner = TimedSink::<_, ON>::new(&mut plane, tracer, Layer::SinkObserved);
            let mut governed = governor.sink(&mut inner);
            let metrics = {
                let mut outer = TimedSink::<_, ON>::new(&mut governed, tracer, Layer::SinkOverload);
                let arrivals = TimedIter::<_, ON>::new(
                    governor.gate(TimedIter::<_, ON>::new(source, tracer, Layer::Workloads)),
                    tracer,
                    Layer::Admission,
                );
                drive::<_, _, ON>(
                    &Simulator::new(cores),
                    arrivals,
                    &mut system,
                    kind,
                    &mut outer,
                    tracer,
                )
            };
            tracer.block(Layer::SinkFinish, || governed.finish());
            metrics
        };
        // Answer the request in flight, if any, before the server goes.
        stop.store(true, Ordering::SeqCst);
        client.thread().unpark();
        while !client.is_finished() {
            plane.poll_server();
            std::thread::yield_now();
        }
        (metrics, client.join().expect("scrape client panicked"))
    });
    let finished = tracer.block(Layer::SinkFinish, || plane.finish(&config));
    let overload = governor.report();
    RepOutcome {
        arrivals: spec.jobs as u64,
        runs: vec![SystemRun {
            kind,
            offered: overload.offered,
            shed: overload.shed(),
            metrics,
            stats: system.stats(),
        }],
        latency: finished.report.latency_cycles,
        overload: Some(overload),
        alerts_fired: finished.alerts.fired,
        scrapes: Some(scrapes),
        served: finished.serve_stats.served,
        serve_errors: finished.serve_stats.rejected + finished.serve_stats.not_found,
    }
}
