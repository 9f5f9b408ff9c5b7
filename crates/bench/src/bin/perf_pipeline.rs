//! Perf regression guard for the characterisation pipeline and the
//! engine stack.
//!
//! Every stage is one row of [`STAGES`]: its name, measure function,
//! iterations, [`Bar`], jobs per run and event budget. A stage times a
//! fast path (the `fused` side) against a reference side with paired,
//! interleaved iterations; its `speedup` is the reference's fastest
//! iteration over the fast path's. Timing noise on a loaded host is
//! strictly additive (interrupts, scheduling), so min-of-N is the stable
//! estimator of true cost. A row's bar judges that speedup: a ratio
//! against a retained reference (below 1.0 a cost budget for an
//! instrumentation layer), an absolute jobs/s floor, or a resident-set
//! budget in MB. A row with an event budget also counts the simulator
//! events one run emits per job, exactly, and fails above it.
//!
//! Usage: `cargo run --release -p hetero-bench --bin perf_pipeline [--smoke]`
//!
//! - A full run measures every row, re-measures a gated stage up to twice
//!   when it lands under its bar, writes `results/BENCH_pipeline.json`
//!   with the commit, build profile and host parallelism it ran on, and
//!   exits non-zero when any gated stage fails.
//! - `--smoke`: one iteration per stage and no artifact. It checks the
//!   event budgets, which are deterministic, and no timing bar, which one
//!   iteration cannot decide. `scripts/check.sh` runs it.

use energy_model::{EnergyBreakdown, EnergyModel};
use hetero_bench::json::Json;
use hetero_bench::perf::{bench, bench_paired, time_once, Sample};
use hetero_bench::{tiled_architecture, SystemKind, Testbed};
use hetero_core::{BestCorePredictor, EnergyCentricSystem, PredictorConfig, SuiteOracle};
use hetero_engine::{Outcome, RunSpec};
use hetero_oracles::ann::RefBagging;
use hetero_oracles::core::build_reference;
use hetero_oracles::sim::run_reference;
use hetero_telemetry::MetricsSink;
use multicore_sim::{
    CoreId, CoreIndex, Decision, FaultPlan, Job, JobExecution, NullSink, QueueDiscipline,
    Scheduler, Simulator, TraceEvent, TraceSink,
};
use std::process::ExitCode;
use tinyann::{Activation, Bagging, Dataset, TrainConfig};
use workloads::{ArrivalPlan, SplitMix64, Suite};

/// What a stage's `speedup` must reach.
#[derive(Clone, Copy)]
enum Bar {
    /// Recorded, not gated.
    Ungated,
    /// The fast path must run at least this many times as fast as its
    /// reference.
    Ratio(f64),
    /// An absolute floor in jobs/s over the row's jobs. The reference side
    /// is a pseudo-sample that takes exactly as long as those jobs at the
    /// floor, so `speedup` is measured jobs/s over the floor, gated at 1.0.
    JobsPerS(f64),
    /// A memory budget in MB. Both sides are resident-set megabytes (the
    /// budget and the measured growth), so `speedup` is budget over
    /// growth, gated at 1.0.
    Mb(f64),
}

impl Bar {
    /// The least passing `speedup`, or `None` for an ungated stage.
    fn threshold(self) -> Option<f64> {
        match self {
            Bar::Ungated => None,
            Bar::Ratio(ratio) => Some(ratio),
            Bar::JobsPerS(_) | Bar::Mb(_) => Some(1.0),
        }
    }

    /// Unit of the stage's sample values.
    fn unit(self) -> &'static str {
        match self {
            Bar::Mb(_) => "MB",
            _ => "ms",
        }
    }
}

/// Jobs one measured run simulates, at full scale and in `--smoke` mode.
#[derive(Clone, Copy)]
struct Jobs {
    full: usize,
    smoke: usize,
}

/// One stage, declared once.
struct Row {
    name: &'static str,
    measure: fn(&Run) -> Stage,
    /// Timed iterations of a full run (`--smoke` takes one).
    iters: u32,
    bar: Bar,
    /// Jobs per run; a timed stage that has them also reports both sides
    /// in jobs/s.
    jobs: Option<Jobs>,
    /// The most simulator events per job one run may emit, counted
    /// exactly.
    max_events_per_job: Option<f64>,
}

impl Row {
    const fn new(name: &'static str, measure: fn(&Run) -> Stage, iters: u32, bar: Bar) -> Row {
        Row {
            name,
            measure,
            iters,
            bar,
            jobs: None,
            max_events_per_job: None,
        }
    }

    const fn jobs(self, full: usize, smoke: usize) -> Row {
        Row {
            jobs: Some(Jobs { full, smoke }),
            ..self
        }
    }

    const fn max_events_per_job(self, budget: f64) -> Row {
        Row {
            max_events_per_job: Some(budget),
            ..self
        }
    }
}

/// Offered load of the absolute engine stages, in jobs per mega-cycle per
/// core.
const ENGINE_RATE_PER_CORE: f64 = 2.5;

/// Every stage, in the order they run and are reported. Gated ratio
/// stages time their fast path on one worker, so the engines alone carry
/// the speedup (threads only help on multi-core hosts).
const STAGES: [Row; 19] = [
    // Fused single-pass cache sweep vs the serial 18-replay reference:
    // the small suite, recorded; the paper's suite, gated.
    Row::new(
        "oracle_build_small",
        |run| measure_oracle(run, &Suite::eembc_like_small()),
        7,
        Bar::Ungated,
    ),
    Row::new(
        "oracle_build_paper",
        |run| measure_oracle(run, &Suite::eembc_like()),
        7,
        Bar::Ratio(2.0),
    ),
    // Threaded fan-out: every worker against one.
    Row::new("predictor_train_small", measure_training, 3, Bar::Ungated),
    Row::new("testbed_run_all_small", measure_run_all, 3, Bar::Ungated),
    Row::new("bagging_train", measure_bagging_train, 5, Bar::Ratio(2.0)),
    Row::new(
        "ensemble_predict",
        measure_ensemble_predict,
        7,
        Bar::Ratio(2.0),
    ),
    // No-regression bars against the untraced reference loop: within 2%.
    Row::new(
        "sim_trace_overhead",
        measure_trace_overhead,
        9,
        Bar::Ratio(0.98),
    ),
    Row::new(
        "sim_fault_overhead",
        measure_fault_overhead,
        9,
        Bar::Ratio(0.98),
    ),
    // Live metrics folding does real work per event, so parity is
    // impossible by construction; measured ~0.60-0.65x on this
    // arrival-dense preemptive workload, the sink's worst case (real
    // policies dilute the per-event cost further).
    Row::new(
        "sim_metrics_overhead",
        measure_metrics_overhead,
        9,
        Bar::Ratio(0.55),
    ),
    Row::new("sim_manycore", measure_manycore, 5, Bar::Ratio(5.0)),
    // The paper's Sec. V arrival count.
    Row::new(
        "sim_stall_backlog",
        measure_stall_backlog,
        7,
        Bar::Ratio(2.0),
    )
    .jobs(5000, 5000),
    // No more than half the median of repeated runs on a 2-vCPU x86-64
    // host (11 runs, min-of-7 each: 3.3–6.3 M, median 4.4 M), and twice
    // the best run of the profiling table keyed by configuration name
    // that preceded the indexed one (0.52–0.96 M).
    Row::new(
        "sim_proposed_paper",
        measure_proposed_paper,
        7,
        Bar::JobsPerS(2_000_000.0),
    )
    .jobs(5000, 5000),
    // A materialising run of this shape pays ~240 MB for the arrival plan
    // alone plus per-job metric retention, so a regression back to
    // O(jobs) state blows the budget at once; the bounded sink's true
    // footprint (in-flight job slots, open windows, the snapshot ring) is
    // a few MB. One run, at 10M jobs (1M in smoke mode).
    Row::new("engine_stream", measure_engine_stream, 1, Bar::Mb(128.0)).jobs(10_000_000, 1_000_000),
    // A service that cannot afford its own overload protection or
    // observability would never deploy it: >= 0.95x the plain engine.
    Row::new(
        "engine_overload",
        measure_engine_overload,
        7,
        Bar::Ratio(0.95),
    ),
    Row::new(
        "engine_observe",
        measure_engine_observe,
        7,
        Bar::Ratio(0.95),
    ),
    // Trace export is an offline tool, not part of the armed live plane.
    Row::new(
        "engine_observe_spans",
        measure_engine_observe_spans,
        7,
        Bar::Ungated,
    ),
    // Base through the engine on the quad tiled to 256 and 1024 cores, 20
    // jobs per core. Floors: no more than half the median of repeated
    // runs on a 2-vCPU x86-64 host.
    Row::new(
        "engine_manycore_256",
        |run| measure_engine_floor(run, SystemKind::Base, 256),
        7,
        Bar::JobsPerS(140_000.0),
    )
    .jobs(256 * 20, 256 * 20)
    .max_events_per_job(10.0),
    Row::new(
        "engine_manycore_1024",
        |run| measure_engine_floor(run, SystemKind::Base, 1024),
        7,
        Bar::JobsPerS(40_000.0),
    )
    .jobs(1024 * 20, 1024 * 20)
    .max_events_per_job(10.0),
    // Proposed through the engine at 256 cores. While it profiles the
    // suite's benchmarks one at a time on the profiling core, every
    // waiting job is re-offered on each pass: 63,333 stall events at 256
    // cores whatever the run's length. Over 100 jobs per core that
    // warm-up adds ~2.5 events per job to the ~5 of steady state; over 20
    // it would add 12.4 and break the budget. Floor: no more than half
    // the median of repeated runs on a 2-vCPU x86-64 host (three series
    // of 7 runs, min-of-7 each: 0.46–0.91 M jobs/s, medians 0.53–0.55 M).
    Row::new(
        "engine_proposed_256",
        |run| measure_engine_floor(run, SystemKind::Proposed, 256),
        7,
        Bar::JobsPerS(250_000.0),
    )
    .jobs(256 * 100, 256 * 100)
    .max_events_per_job(10.0),
];

/// One measurement of a row, at the scale of the run.
struct Run {
    row: &'static Row,
    iters: u32,
    jobs: Option<usize>,
}

impl Run {
    fn new(row: &'static Row, smoke: bool) -> Run {
        Run {
            row,
            iters: if smoke { 1 } else { row.iters },
            jobs: row
                .jobs
                .map(|jobs| if smoke { jobs.smoke } else { jobs.full }),
        }
    }

    fn measure(&self) -> Stage {
        (self.row.measure)(self)
    }

    /// Jobs per run, for a stage whose row declares them.
    fn jobs(&self) -> usize {
        self.jobs.expect("the row declares its jobs")
    }

    /// The stage from its two measured sides.
    fn stage(&self, reference: Sample, fused: Sample) -> Stage {
        Stage {
            row: self.row,
            jobs: self.jobs,
            reference,
            fused,
            events_per_job: None,
        }
    }

    /// The stage of an absolute row from its measured side: the
    /// reference side is the row's bar as a pseudo-sample.
    fn absolute(&self, fused: Sample) -> Stage {
        let bar = match self.row.bar {
            Bar::JobsPerS(floor) => self.jobs() as f64 / floor * 1e9,
            Bar::Mb(budget) => budget * 1e6,
            Bar::Ungated | Bar::Ratio(_) => unreachable!("a ratio stage measures its reference"),
        };
        self.stage(flat_sample(format!("{}_bar", self.row.name), bar), fused)
    }
}

/// One sample of a single value, scaled like nanoseconds: the artifact
/// divides every sample by 1e6, so megabytes are stored times 1e6.
fn flat_sample(label: String, scaled: f64) -> Sample {
    Sample {
        label,
        iters: 1,
        mean_ns: scaled,
        min_ns: scaled,
        p50_ns: scaled,
        p95_ns: scaled,
    }
}

/// One stage's before/after measurement.
struct Stage {
    row: &'static Row,
    jobs: Option<usize>,
    reference: Sample,
    fused: Sample,
    /// Simulator events per job, for the rows that budget them.
    events_per_job: Option<f64>,
}

impl Stage {
    /// Speedup from the fastest observed iteration on each side.
    fn speedup(&self) -> f64 {
        self.reference.min_ns / self.fused.min_ns
    }

    fn mean_speedup(&self) -> f64 {
        self.reference.mean_ns / self.fused.mean_ns
    }

    /// Whether the stage stays within its row's event budget, if any.
    fn within_event_budget(&self) -> bool {
        self.row
            .max_events_per_job
            .is_none_or(|budget| self.events_per_job.is_some_and(|events| events <= budget))
    }

    /// Whether the stage clears its bar and its event budget.
    fn passes(&self) -> bool {
        self.row
            .bar
            .threshold()
            .is_none_or(|bar| self.speedup() >= bar)
            && self.within_event_budget()
    }

    /// The stage's reading against its bar and event budget, in the bar's
    /// unit.
    fn verdict(&self) -> String {
        let name = self.row.name;
        let mut line = match self.row.bar {
            Bar::Ungated => format!("{name} speedup {:.2}x", self.speedup()),
            Bar::Ratio(bar) => format!("{name} speedup {:.3}x (bar {bar:.2}x)", self.speedup()),
            Bar::JobsPerS(floor) => format!(
                "{name} {:.0} jobs/s (floor {floor:.0})",
                self.jobs.unwrap_or(0) as f64 / (self.fused.min_ns / 1e9)
            ),
            Bar::Mb(budget) => format!(
                "{name} rss growth {:.2} MB (budget {budget:.0} MB)",
                self.fused.min_ns / 1e6
            ),
        };
        if let (Some(events), Some(budget)) = (self.events_per_job, self.row.max_events_per_job) {
            line += &format!(", {events:.3} events/job (budget {budget:.0})");
        }
        line
    }

    fn to_json(&self) -> Json {
        // Value fields carry the unit as their suffix (`reference_ms`,
        // `fused_min_mb`, ...); samples store either unit scaled by 1e6.
        let unit = self.row.bar.unit();
        let suffix = unit.to_ascii_lowercase();
        let value =
            |field: &str, scaled: f64| (format!("{field}_{suffix}"), Json::Num(scaled / 1e6));
        let mut fields = vec![
            ("stage".to_string(), Json::str(self.row.name)),
            ("unit".to_string(), Json::str(unit)),
            (
                "gated".to_string(),
                Json::Bool(self.row.bar.threshold().is_some()),
            ),
            (
                "gate_threshold".to_string(),
                self.row.bar.threshold().map_or(Json::Null, Json::Num),
            ),
            value("reference", self.reference.mean_ns),
            value("fused", self.fused.mean_ns),
            value("reference_min", self.reference.min_ns),
            value("fused_min", self.fused.min_ns),
            value("reference_p50", self.reference.p50_ns),
            value("fused_p50", self.fused.p50_ns),
            value("reference_p95", self.reference.p95_ns),
            value("fused_p95", self.fused.p95_ns),
            (
                "reference_iters".to_string(),
                Json::UInt(u64::from(self.reference.iters)),
            ),
            (
                "fused_iters".to_string(),
                Json::UInt(u64::from(self.fused.iters)),
            ),
            ("speedup".to_string(), Json::Num(self.speedup())),
            ("mean_speedup".to_string(), Json::Num(self.mean_speedup())),
        ];
        // A memory stage's jobs size its run but time nothing.
        if let Some(jobs) = self.jobs.filter(|_| unit == "ms") {
            let per_s = |sample: &Sample| Json::Num(jobs as f64 / (sample.min_ns / 1e9));
            fields.extend([
                ("jobs".to_string(), Json::UInt(jobs as u64)),
                ("throughput_unit".to_string(), Json::str("jobs/s")),
                ("reference_jobs_per_s".to_string(), per_s(&self.reference)),
                ("fused_jobs_per_s".to_string(), per_s(&self.fused)),
            ]);
        }
        if let (Some(events), Some(budget)) = (self.events_per_job, self.row.max_events_per_job) {
            fields.extend([
                ("events_per_job".to_string(), Json::Num(events)),
                ("max_events_per_job".to_string(), Json::Num(budget)),
            ]);
        }
        Json::object(fields)
    }
}

fn measure_oracle(run: &Run, suite: &Suite) -> Stage {
    let model = EnergyModel::default();
    // Paired iterations so host-speed drift cancels out of the ratio;
    // single worker isolates the fused engine's gain from parallelism.
    let (reference, fused) = bench_paired(
        "oracle_reference",
        || build_reference(suite, &model).len(),
        "oracle_fused",
        || SuiteOracle::build_with_threads(suite, &model, 1).len(),
        run.iters,
    );
    run.stage(reference, fused)
}

fn measure_training(run: &Run) -> Stage {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let oracle = SuiteOracle::build(&suite, &model);
    let config = PredictorConfig::fast();
    let auto = hetero_parallel::worker_count();
    let (reference, fused) = bench_paired(
        "train_1_worker",
        || BestCorePredictor::train_with_threads(&oracle, &config, 1).ensemble_size(),
        "train_auto_workers",
        || BestCorePredictor::train_with_threads(&oracle, &config, auto).ensemble_size(),
        run.iters,
    );
    run.stage(reference, fused)
}

fn measure_run_all(run: &Run) -> Stage {
    let testbed = Testbed::small();
    let plan = testbed.plan(400, 60_000_000, 11);
    let auto = hetero_parallel::worker_count();
    let (reference, fused) = bench_paired(
        "run_all_1_worker",
        || {
            testbed
                .run_all_with_threads(&plan, 1)
                .proposed
                .metrics
                .total_cycles
        },
        "run_all_auto_workers",
        || {
            testbed
                .run_all_with_threads(&plan, auto)
                .proposed
                .metrics
                .total_cycles
        },
        run.iters,
    );
    run.stage(reference, fused)
}

/// A deterministic counter-vector-shaped regression set (18 features, the
/// paper's statistics width; labels in {2, 4, 8} KB like the oracle's).
fn ensemble_dataset() -> Dataset {
    let mut rng = SplitMix64::new(0x0BA6_5EED);
    let inputs: Vec<Vec<f64>> = (0..96)
        .map(|_| (0..18).map(|_| rng.next_f64() * 2.0 - 1.0).collect())
        .collect();
    let targets: Vec<Vec<f64>> = (0..96)
        .map(|_| {
            let pick = ((rng.next_f64() * 3.0) as usize).min(2);
            vec![[2.0, 4.0, 8.0][pick]]
        })
        .collect();
    Dataset::new(inputs, targets).expect("dimensions are consistent")
}

/// Flat-tensor ensemble training vs the allocating reference engine, both
/// strictly serial. The topology is small and the activation cheap (ReLU)
/// so that transcendental arithmetic — paid identically by both engines —
/// does not drown the allocation/layout effect the flat engine removes;
/// this is the regime short training runs actually sit in.
fn measure_bagging_train(run: &Run) -> Stage {
    let dataset = ensemble_dataset();
    let dims = [18, 4, 1];
    let members = 6;
    let act = Activation::Relu;
    let config = TrainConfig {
        epochs: 60,
        batch_size: 8,
        learning_rate: 0.05,
        momentum: 0.9,
        patience: 60,
        seed: 0xC0FE,
    };
    let (reference, fused) = bench_paired(
        "bagging_reference_engine",
        || RefBagging::train(&dataset, members, &dims, act, config).len(),
        "bagging_flat_1_worker",
        || Bagging::train_with_threads(&dataset, members, &dims, act, config, 1).len(),
        run.iters,
    );
    run.stage(reference, fused)
}

/// Per-job ensemble inference, the pattern the scheduling systems hit on
/// every profile completion: the reference re-runs the whole (allocating)
/// ensemble per job; the flat path evaluates each distinct benchmark once
/// through `predict_batch` and answers jobs from the memo — exactly what
/// `BestCorePredictor::predict_for` does. Both models carry bit-identical
/// weights (property-tested), so the comparison is engine-for-engine.
fn measure_ensemble_predict(run: &Run) -> Stage {
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let oracle = SuiteOracle::build(&suite, &model);
    let features: Vec<Vec<f64>> = oracle
        .benchmarks()
        .map(|b| oracle.execution_statistics(b).to_vector().to_vec())
        .collect();
    let targets: Vec<Vec<f64>> = oracle
        .benchmarks()
        .map(|b| vec![f64::from(oracle.best_size(b).kilobytes())])
        .collect();
    let dataset = Dataset::new(features.clone(), targets).expect("dimensions are consistent");
    let dims = [18, 10, 5, 1];
    let members = 8;
    let config = TrainConfig {
        epochs: 40,
        batch_size: 16,
        learning_rate: 0.05,
        momentum: 0.9,
        patience: 40,
        seed: 0xC0FE,
    };
    let flat = Bagging::train_with_threads(&dataset, members, &dims, Activation::Tanh, config, 1);
    let reference = RefBagging::train(&dataset, members, &dims, Activation::Tanh, config);
    let jobs = 2000;
    let n = features.len();
    let (reference, fused) = bench_paired(
        "ensemble_per_job_reference",
        || {
            (0..jobs)
                .map(|j| reference.predict(&features[j % n])[0])
                .sum::<f64>()
        },
        "ensemble_memoized_flat",
        || {
            let memo = flat.predict_batch(&features);
            (0..jobs).map(|j| memo[j % n][0]).sum::<f64>()
        },
        run.iters,
    );
    run.stage(reference, fused)
}

/// A cheap stateless policy for the trace-overhead stage: first idle
/// core, benchmark-derived duration, unit idle power. Deliberately
/// near-free so the measurement is dominated by the simulator loop
/// itself — the worst case for any per-event instrumentation cost.
struct FirstIdle;

impl Scheduler for FirstIdle {
    fn schedule(&mut self, job: &Job, cores: &CoreIndex, _now: u64) -> Decision {
        match cores.first_idle() {
            Some(core) => Decision::run(
                core,
                JobExecution {
                    cycles: 40 + 17 * (job.benchmark.0 as u64 % 5),
                    energy: EnergyBreakdown {
                        dynamic_nj: 1.0,
                        ..EnergyBreakdown::new()
                    },
                },
            ),
            None => Decision::Stall,
        }
    }

    fn idle_power_nj_per_cycle(&self, _core: CoreId) -> f64 {
        1.0
    }
}

/// The flight-recorder no-regression stage: `Simulator::run` (traced
/// loop, `NullSink`) against `hetero_oracles::sim::run_reference` (verbatim
/// pre-trace loop) on an arrival-dense preemptive workload. Both sides
/// produce bit-identical metrics (property-tested); here only their cost
/// is compared.
fn measure_trace_overhead(run: &Run) -> Stage {
    let plan = ArrivalPlan::uniform_with_priorities(30_000, 1_500_000, 12, 3, 7);
    let sim = Simulator::new(4).with_discipline(QueueDiscipline::PreemptivePriority);
    let (reference, fused) = bench_paired(
        "sim_untraced_reference",
        || run_reference(&sim, &plan, &mut FirstIdle).jobs_completed,
        "sim_nullsink_traced",
        || sim.run(&plan, &mut FirstIdle).jobs_completed,
        run.iters,
    );
    run.stage(reference, fused)
}

/// The fault-injection no-regression stage: `Simulator::run_with_faults`
/// with an *empty* fault plan (every fault branch a no-op) against the
/// verbatim untraced reference loop. The two are bit-identical in result
/// (property-tested); this stage pins the no-fault cost of the fault
/// hooks.
fn measure_fault_overhead(run: &Run) -> Stage {
    let plan = ArrivalPlan::uniform_with_priorities(30_000, 1_500_000, 12, 3, 7);
    let faults = FaultPlan::empty();
    let sim = Simulator::new(4).with_discipline(QueueDiscipline::PreemptivePriority);
    let (reference, fused) = bench_paired(
        "sim_untraced_reference",
        || run_reference(&sim, &plan, &mut FirstIdle).jobs_completed,
        "sim_faulted_nofault",
        || {
            sim.run_with_faults(&plan, &mut FirstIdle, &faults, &mut NullSink)
                .metrics
                .jobs_completed
        },
        run.iters,
    );
    run.stage(reference, fused)
}

/// The live-metrics cost-budget stage: the traced loop feeding a
/// [`MetricsSink`] (per-core time-series windows, three run-wide
/// histograms, run totals — all folded event by event) against the
/// verbatim untraced reference loop. The sink never changes `RunMetrics`
/// (property-tested bit-identical in
/// `crates/bench/tests/telemetry_properties.rs`); this stage pins what
/// the folding *costs* on the instrumentation-worst-case workload.
fn measure_metrics_overhead(run: &Run) -> Stage {
    let plan = ArrivalPlan::uniform_with_priorities(30_000, 1_500_000, 12, 3, 7);
    let sim = Simulator::new(4).with_discipline(QueueDiscipline::PreemptivePriority);
    let mut sink = MetricsSink::new(4, 100_000);
    let (reference, fused) = bench_paired(
        "sim_untraced_reference",
        || run_reference(&sim, &plan, &mut FirstIdle).jobs_completed,
        "sim_metrics_sink",
        || {
            sink.reset();
            sim.run_with_sink(&plan, &mut FirstIdle, &mut sink)
                .jobs_completed
        },
        run.iters,
    );
    run.stage(reference, fused)
}

/// The many-core scaling stage: both event loops at 256 cores under a
/// saturating burst — 30k jobs all arriving within the first few thousand
/// cycles, so for most of the run every core is busy and a deep ready
/// queue drains one completion at a time. Per event the reference loop
/// scans all 256 views for the idle-energy accrual and rebuilds a
/// `CoreIndex` for every scheduler offer; the indexed loop keeps idle
/// cycles per idle-power class, updated only when a core's idle state
/// changes, and answers offers from the incrementally-maintained idle
/// mask. Results are bit-identical (property-tested); only the cost
/// differs.
fn measure_manycore(run: &Run) -> Stage {
    let plan = ArrivalPlan::uniform_with_priorities(30_000, 4_000, 12, 3, 7);
    let sim = Simulator::new(256);
    let (reference, fused) = bench_paired(
        "sim_manycore_linear",
        || run_reference(&sim, &plan, &mut FirstIdle).jobs_completed,
        "sim_manycore_indexed",
        || sim.run(&plan, &mut FirstIdle).jobs_completed,
        run.iters,
    );
    run.stage(reference, fused)
}

/// Forwards everything but the `waits_for` promise, so the event loop
/// offers every queued job to the wrapped policy on every pass.
struct HidePromise<S>(S);

impl<S: Scheduler> Scheduler for HidePromise<S> {
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
}

/// The stall-backlog stage: the energy-centric system "only scheduled
/// benchmarks to the benchmark's best core even if idle cores were
/// available", so on a contended plan most of its queue waits for a busy
/// best core. With its `waits_for` promise hidden, `Simulator::run`
/// offers every queued job to the policy on every pass; with it visible,
/// the loop skips each run of jobs whose best cores are all busy in one
/// scan. The two are bit-identical (property-tested in
/// `crates/bench/tests/wait_set_identity.rs`); only the cost differs.
/// The reference side is the indexed loop, not
/// `run_reference`: the linear-scan oracle rebuilds a `CoreIndex` per
/// offer and is ~5x slower here even without a skip, which would hide a
/// lost skip behind the gate. The small suite at 200M cycles stalls 2664
/// jobs, the scale of the paper suite's Figure 7 run.
fn measure_stall_backlog(run: &Run) -> Stage {
    let testbed = Testbed::small();
    let plan = testbed.plan(run.jobs(), 200_000_000, 20190325);
    let sim = Simulator::new(testbed.arch.num_cores());
    let system = || {
        EnergyCentricSystem::new(
            &testbed.arch,
            &testbed.oracle,
            testbed.model,
            testbed.predictor.clone(),
        )
    };
    let (reference, fused) = bench_paired(
        "sim_stall_backlog_offer_all",
        || sim.run(&plan, &mut HidePromise(system())).stall_offers,
        "sim_stall_backlog_skip",
        || sim.run(&plan, &mut system()).stall_offers,
        run.iters,
    );
    run.stage(reference, fused)
}

/// The policy's own absolute floor: the proposed system alone through
/// `Simulator::run` on the paper testbed (full suite, paper predictor,
/// quad) over the Sec. V plan of its jobs in 700M cycles, with no sink.
fn measure_proposed_paper(run: &Run) -> Stage {
    let jobs = run.jobs();
    let testbed = Testbed::paper();
    let plan = testbed.plan(jobs, 700_000_000, 20190325);
    let sim = Simulator::new(testbed.arch.num_cores());
    let fused = bench(run.row.name, run.iters, || {
        let mut system = testbed.system(SystemKind::Proposed);
        let metrics = sim.run(&plan, &mut system);
        assert_eq!(metrics.jobs_completed, jobs as u64);
        metrics.jobs_completed
    });
    println!(
        "{}: {:.0} jobs/s",
        run.row.name,
        jobs as f64 / (fused.min_ns / 1e9)
    );
    run.absolute(fused)
}

/// Resident set size from `/proc/self/status`, in MB. Returns 0.0 when
/// the file is unavailable (non-Linux), which makes the memory gate pass
/// vacuously rather than fail spuriously.
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmRSS:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The bounded-memory streaming gate: push `jobs` open-loop arrivals
/// through the full engine stack (lazy `OpenLoop` source ->
/// `Simulator::run_stream` -> `EngineSink` snapshot folding) in this
/// process and record the resident-set growth. With retirement and window
/// draining working, steady-state state is O(cores + in-flight jobs +
/// snapshot ring) — independent of `jobs` — so growth stays a few MB;
/// any regression toward per-job retention scales with `jobs` and blows
/// the row's budget. Runs once, whatever the row's iterations.
fn measure_engine_stream(run: &Run) -> Stage {
    let jobs = run.jobs();
    let stream = workloads::OpenLoop::poisson(20.0, 12, 7).take(jobs);
    let sim = Simulator::new(4);
    let before_mb = rss_mb();
    let (outcome, elapsed) = time_once(|| {
        hetero_engine::run(&sim, stream, &mut FirstIdle, &RunSpec::default())
            .expect("a plain run binds nothing")
    });
    let growth_mb = (rss_mb() - before_mb).max(0.25);
    assert_eq!(
        outcome.metrics.jobs_completed, jobs as u64,
        "streaming run must retire every job"
    );
    println!(
        "{}: {jobs} jobs in {:.2}s, {} snapshots, rss growth {growth_mb:.1} MB",
        run.row.name,
        elapsed.as_secs_f64(),
        outcome.report.snapshots_emitted,
    );
    run.absolute(flat_sample(
        "stream_rss_growth_mb".to_string(),
        growth_mb * 1e6,
    ))
}

/// Jobs each timed run of an engine overhead stage streams.
const ENGINE_STAGE_JOBS: usize = 20_000;

/// One engine overhead stage: the full engine stack twice over the same
/// deterministic open-loop stream served by the paper's proposed system
/// (predictor-driven placement, in the proportion a deployed service
/// pays its layers against real scheduling work, not an empty-scheduler
/// microloop). The reference side is a plain `run` (a bare
/// `EngineSink`); the fused side runs `fused`, and `check` asserts each
/// fused outcome stayed in the regime the stage measures — a config
/// drift that starts shedding or firing would silently turn it into an
/// apples-to-oranges timing.
fn measure_engine_layer(
    run: &Run,
    fused_label: &str,
    fused: &RunSpec,
    check: impl Fn(&Outcome),
) -> Stage {
    let testbed = Testbed::small();
    let sim = Simulator::new(testbed.arch.num_cores());
    let plain = RunSpec::default();
    let serve = |spec: &RunSpec| {
        let stream = workloads::OpenLoop::poisson(20.0, testbed.suite.len(), 7);
        let mut system = hetero_core::ProposedSystem::with_model(
            &testbed.arch,
            &testbed.oracle,
            testbed.model,
            testbed.predictor.clone(),
        );
        hetero_engine::run(&sim, stream.take(ENGINE_STAGE_JOBS), &mut system, spec)
            .expect("the scrape port binds")
    };
    let (reference, fused) = bench_paired(
        "engine_stream_plain",
        || serve(&plain).metrics.jobs_completed,
        fused_label,
        || {
            let outcome = serve(fused);
            check(&outcome);
            outcome.metrics.jobs_completed
        },
        run.iters,
    );
    run.stage(reference, fused)
}

/// The governed-streaming overhead stage: a quiescent governor on the
/// fused side. The governor is *enabled* (bounded queue, drop-tail
/// policy, live brownout controller), but every limit sits far above
/// what the run reaches, so nothing sheds and no tier steps; the
/// measurement captures the pure bookkeeping cost riding on every
/// arrival and completion.
fn measure_engine_overload(run: &Run) -> Stage {
    let governed = RunSpec {
        overload: Some(hetero_engine::OverloadConfig {
            queue_capacity: Some(u64::MAX),
            policy: hetero_engine::ShedPolicy::DropTail,
            rate_limit: None,
            brownout: Some(hetero_engine::BrownoutConfig {
                // ~100 control evaluations over the run's ~1G-cycle
                // horizon: a realistic control cadence (a window per
                // ~200 jobs), not one per handful of events.
                control_window_cycles: 10_000_000,
                depth_high: u64::MAX,
                depth_low: u64::MAX,
                latency_budget_cycles: u64::MAX,
                breach_fraction: 2.0,
                step_up_after: 2,
                step_down_after: 2,
            }),
            breaker: None,
        }),
        ..RunSpec::default()
    };
    let quiescent = |outcome: &Outcome| {
        let overload = outcome.overload.as_ref().expect("a governed run reports");
        assert_eq!(overload.shed(), 0, "quiescent governor must not shed");
        assert_eq!(
            overload.tier_transitions, 0,
            "quiescent governor must not step tiers"
        );
    };
    measure_engine_layer(run, "engine_stream_governed", &governed, quiescent)
}

/// The armed observability-plane overhead stage: the *live* plane on the
/// fused side, under a disabled governor — a burn-rate rule folding
/// every completion and evaluated at each window boundary, and a bound
/// scrape server polled at every snapshot boundary. The rule's latency
/// budget is infinite so the alert machinery runs but never fires, and
/// no client ever connects — pure quiescent cost riding on real
/// scheduling work. Span assembly is deliberately NOT part of this
/// stage: the assembler retains O(trace) memory and is an export-path
/// tool (a bounded-memory service cannot run it on an unbounded
/// stream), so its cost is recorded separately and ungated by
/// `engine_observe_spans`.
fn measure_engine_observe(run: &Run) -> Stage {
    let observed = RunSpec {
        observe: Some(hetero_engine::ObserveConfig {
            rules: vec![hetero_telemetry::BurnRateRule::paging(
                "p99-latency",
                u64::MAX,
            )],
            assemble_spans: false,
            alert_tier_floor: None,
            serve_port: Some(0),
        }),
        ..RunSpec::default()
    };
    let quiescent = |outcome: &Outcome| {
        assert!(
            outcome.alerts.transitions.is_empty(),
            "quiescent plane must not fire alerts"
        );
    };
    measure_engine_layer(run, "engine_stream_observed", &observed, quiescent)
}

/// The export-path span-assembly stage, ungated: the same observed run
/// with only `assemble_spans` on. The assembler folds every trace event
/// into lifecycle/occupancy spans it retains for the Perfetto export, so
/// on this event-dense stream (every arrival, placement, stall,
/// completion and idle advance is an event) it pays real per-event
/// work the same way the `MetricsSink` does in `sim_metrics_overhead` —
/// the measurement is recorded in the artifact to keep that cost
/// visible, but trace export is an offline tool, not part of the armed
/// live plane, so no bar applies. Each run asserts the span books
/// conserve the stream.
fn measure_engine_observe_spans(run: &Run) -> Stage {
    let spanned = RunSpec {
        observe: Some(hetero_engine::ObserveConfig {
            assemble_spans: true,
            ..hetero_engine::ObserveConfig::disabled()
        }),
        ..RunSpec::default()
    };
    let conserved = |outcome: &Outcome| {
        let spans = outcome.spans.as_ref().expect("spans were assembled");
        assert_eq!(
            spans.arrivals(),
            ENGINE_STAGE_JOBS as u64,
            "span books must conserve"
        );
        assert_eq!(spans.open_jobs(), 0, "span books must close");
    };
    measure_engine_layer(run, "engine_stream_spans", &spanned, conserved)
}

/// Forwards every event to the wrapped sink and counts them.
struct CountingSink<'a, T: TraceSink> {
    inner: &'a mut T,
    events: u64,
}

impl<T: TraceSink> TraceSink for CountingSink<'_, T> {
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        self.inner.record(event);
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

/// An absolute engine stage: times `hetero_engine::run` of `kind` with a
/// plain `RunSpec` (so a live `EngineSink`) on the paper quad tiled to
/// `cores`, fed [`ENGINE_RATE_PER_CORE`] Poisson jobs per mega-cycle per
/// core, then counts the simulator events one run emits into the same
/// sink.
fn measure_engine_floor(run: &Run, kind: SystemKind, cores: usize) -> Stage {
    let jobs = run.jobs();
    let Testbed {
        suite,
        model,
        oracle,
        predictor,
        ..
    } = Testbed::small();
    let testbed = Testbed {
        suite,
        model,
        oracle,
        arch: tiled_architecture(cores),
        predictor,
    };
    let sim = Simulator::new(cores);
    let stream = || {
        let rate = ENGINE_RATE_PER_CORE * cores as f64;
        workloads::OpenLoop::poisson(rate, testbed.suite.len(), 7).take(jobs)
    };
    let system = || testbed.system(kind);
    let fused = bench(run.row.name, run.iters, || {
        let outcome = hetero_engine::run(&sim, stream(), &mut system(), &RunSpec::default())
            .expect("a plain run binds nothing");
        assert_eq!(outcome.metrics.jobs_completed, jobs as u64);
        outcome.metrics.jobs_completed
    });
    let config = hetero_engine::EngineConfig::default();
    let mut engine = hetero_engine::EngineSink::new(cores, &config);
    let mut counting = CountingSink {
        inner: &mut engine,
        events: 0,
    };
    let _ = sim.run_stream(stream(), &mut system(), &mut counting);
    let events_per_job = counting.events as f64 / jobs as f64;
    println!(
        "{}: {:.0} jobs/s, {events_per_job:.3} events/job",
        run.row.name,
        jobs as f64 / (fused.min_ns / 1e9)
    );
    Stage {
        events_per_job: Some(events_per_job),
        ..run.absolute(fused)
    }
}

/// The command line's one option: whether to run in `--smoke` mode.
fn parse_smoke(args: impl IntoIterator<Item = String>) -> Result<bool, String> {
    let mut smoke = false;
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            _ => return Err(arg),
        }
    }
    Ok(smoke)
}

/// The `results/BENCH_pipeline.json` document.
fn artifact(stages: &[Stage], workers: usize) -> Json {
    let mut fields = vec![("experiment", Json::str("pipeline"))];
    fields.extend(hetero_bench::perf::provenance());
    Json::object(
        fields.into_iter().chain([
            ("workers", Json::UInt(workers as u64)),
            (
                "gate_stages",
                Json::Array(
                    STAGES
                        .iter()
                        .filter(|row| row.bar.threshold().is_some())
                        .map(|row| Json::str(row.name))
                        .collect(),
                ),
            ),
            ("gate_passed", Json::Bool(stages.iter().all(Stage::passes))),
            (
                "stages",
                Json::Array(stages.iter().map(Stage::to_json).collect()),
            ),
        ]),
    )
}

fn main() -> ExitCode {
    let smoke = match parse_smoke(std::env::args().skip(1)) {
        Ok(smoke) => smoke,
        Err(arg) => {
            eprintln!("unknown argument: {arg}\nusage: perf_pipeline [--smoke]");
            return ExitCode::FAILURE;
        }
    };

    let workers = hetero_parallel::worker_count();
    println!("perf_pipeline: {workers} worker(s) available (HETERO_THREADS overrides)");
    if smoke {
        println!("smoke mode: 1 iteration per stage, event budgets only, no artifact\n");
    }

    let mut stages: Vec<Stage> = STAGES
        .iter()
        .map(|row| Run::new(row, smoke).measure())
        .collect();

    // A gate verdict should not hinge on one unlucky process phase:
    // re-measure a gated stage (both sides, still paired) up to twice
    // when it lands under the bar, keeping the best attempt. A genuine
    // regression fails every attempt; a scheduling artefact does not.
    if !smoke {
        for stage in &mut stages {
            let Some(bar) = stage.row.bar.threshold() else {
                continue;
            };
            for _ in 0..2 {
                if stage.speedup() >= bar {
                    break;
                }
                println!(
                    "{}: {:.2}x under the bar, re-measuring to rule out noise",
                    stage.row.name,
                    stage.speedup()
                );
                let retry = Run::new(stage.row, smoke).measure();
                if retry.speedup() > stage.speedup() {
                    *stage = retry;
                }
            }
        }
    }

    println!(
        "{:<24} {:>14} {:>14} {:>4} {:>9}",
        "stage", "reference", "fused", "unit", "speedup"
    );
    for stage in &stages {
        println!(
            "{:<24} {:>14.2} {:>14.2} {:>4} {:>8.2}x{}",
            stage.row.name,
            stage.reference.min_ns / 1e6,
            stage.fused.min_ns / 1e6,
            stage.row.bar.unit(),
            stage.speedup(),
            if stage.row.bar.threshold().is_some() {
                "  [gated]"
            } else {
                ""
            }
        );
    }
    println!();

    if smoke {
        let over: Vec<&Stage> = stages.iter().filter(|s| !s.within_event_budget()).collect();
        for stage in &over {
            eprintln!("FAIL: {}", stage.verdict());
        }
        if !over.is_empty() {
            return ExitCode::FAILURE;
        }
        println!("smoke run complete (event budgets held, no timing gate, no artifact written)");
        return ExitCode::SUCCESS;
    }

    let doc = artifact(&stages, workers);
    let path = std::path::Path::new("results").join("BENCH_pipeline.json");
    if let Err(error) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, doc.to_pretty()))
    {
        eprintln!("failed to write {}: {error}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}\n", path.display());

    let mut passed = true;
    for stage in stages.iter().filter(|s| s.row.bar.threshold().is_some()) {
        if stage.passes() {
            println!("PASS: {}", stage.verdict());
        } else {
            eprintln!("FAIL: {}", stage.verdict());
            passed = false;
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMED_KEYS: [&str; 16] = [
        "stage",
        "unit",
        "gated",
        "gate_threshold",
        "reference_ms",
        "fused_ms",
        "reference_min_ms",
        "fused_min_ms",
        "reference_p50_ms",
        "fused_p50_ms",
        "reference_p95_ms",
        "fused_p95_ms",
        "reference_iters",
        "fused_iters",
        "speedup",
        "mean_speedup",
    ];
    const JOBS_KEYS: [&str; 4] = [
        "jobs",
        "throughput_unit",
        "reference_jobs_per_s",
        "fused_jobs_per_s",
    ];
    const EVENTS_KEYS: [&str; 2] = ["events_per_job", "max_events_per_job"];

    /// The first row `pick` accepts.
    fn row(pick: impl Fn(&Row) -> bool) -> &'static Row {
        STAGES.iter().find(|row| pick(row)).expect("a matching row")
    }

    /// A full-run stage of `row` whose fast side takes `fused_ns`, with
    /// `events_per_job` counted.
    fn stage(row: &'static Row, fused_ns: f64, events_per_job: Option<f64>) -> Stage {
        let run = Run::new(row, false);
        let stage = match row.bar {
            Bar::JobsPerS(_) | Bar::Mb(_) => run.absolute(flat_sample("fused".into(), fused_ns)),
            Bar::Ungated | Bar::Ratio(_) => run.stage(
                flat_sample("reference".into(), 2.0 * fused_ns),
                flat_sample("fused".into(), fused_ns),
            ),
        };
        Stage {
            events_per_job,
            ..stage
        }
    }

    fn keys(json: &Json) -> Vec<&str> {
        match json {
            Json::Object(fields) => fields.iter().map(|(key, _)| key.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn stage_keys(row: &'static Row) -> Vec<String> {
        let json = stage(row, 1e6, row.max_events_per_job).to_json();
        keys(&json).into_iter().map(str::to_string).collect()
    }

    #[test]
    fn stage_names_are_unique() {
        for (i, row) in STAGES.iter().enumerate() {
            assert!(
                STAGES[..i].iter().all(|earlier| earlier.name != row.name),
                "{} is declared twice",
                row.name
            );
        }
    }

    #[test]
    fn a_ratio_row_reports_the_timed_keys() {
        let ratio = row(|row| matches!(row.bar, Bar::Ratio(_)) && row.jobs.is_none());
        assert_eq!(stage_keys(ratio), TIMED_KEYS);
    }

    #[test]
    fn a_ratio_row_with_jobs_also_reports_jobs_per_s() {
        let jobs = row(|row| matches!(row.bar, Bar::Ratio(_)) && row.jobs.is_some());
        let expected: Vec<&str> = TIMED_KEYS.iter().chain(&JOBS_KEYS).copied().collect();
        assert_eq!(stage_keys(jobs), expected);
    }

    #[test]
    fn a_floor_row_reports_jobs_per_s_and_its_event_budget() {
        let floor = row(|row| row.max_events_per_job.is_some());
        assert!(matches!(floor.bar, Bar::JobsPerS(_)));
        let expected: Vec<&str> = TIMED_KEYS
            .iter()
            .chain(&JOBS_KEYS)
            .chain(&EVENTS_KEYS)
            .copied()
            .collect();
        assert_eq!(stage_keys(floor), expected);
    }

    #[test]
    fn the_memory_row_suffixes_its_values_in_mb_and_reports_no_throughput() {
        let memory = row(|row| matches!(row.bar, Bar::Mb(_)));
        let expected = [
            "stage",
            "unit",
            "gated",
            "gate_threshold",
            "reference_mb",
            "fused_mb",
            "reference_min_mb",
            "fused_min_mb",
            "reference_p50_mb",
            "fused_p50_mb",
            "reference_p95_mb",
            "fused_p95_mb",
            "reference_iters",
            "fused_iters",
            "speedup",
            "mean_speedup",
        ];
        assert_eq!(stage_keys(memory), expected);
        let smoke = Run::new(memory, true);
        let full = Run::new(memory, false);
        assert_eq!((smoke.iters, smoke.jobs()), (1, 1_000_000));
        assert_eq!(full.jobs(), 10_000_000);
    }

    #[test]
    fn every_committed_stage_entry_matches_its_row() {
        let committed = Json::parse(include_str!("../../../../results/BENCH_pipeline.json"))
            .expect("the committed artifact parses");
        let entries = committed
            .get("stages")
            .and_then(Json::as_array)
            .expect("a stage list");
        assert!(!entries.is_empty());
        for entry in entries {
            let name = entry.get("stage").and_then(Json::as_str).expect("a name");
            let row = row(|row| row.name == name);
            let json = stage(row, 1e6, row.max_events_per_job).to_json();
            assert_eq!(keys(&json), keys(entry), "{name}");
            for key in [
                "unit",
                "gated",
                "gate_threshold",
                "jobs",
                "max_events_per_job",
            ] {
                // As rendered: the parser reads an integral number as `UInt`.
                let rendered = |doc: &Json| doc.get(key).map(Json::to_pretty);
                assert_eq!(rendered(&json), rendered(entry), "{name}: {key}");
            }
        }
        let removed = ["min_speedup", "default_min_speedup", "gate_overridden"];
        let expected: Vec<&str> = keys(&committed)
            .into_iter()
            .filter(|key| !removed.contains(key))
            .collect();
        assert_eq!(keys(&artifact(&[], 1)), expected);
    }

    #[test]
    fn a_floor_stage_at_its_floor_passes_exactly() {
        let floor = row(|row| matches!(row.bar, Bar::JobsPerS(_)));
        let Bar::JobsPerS(jobs_per_s) = floor.bar else {
            unreachable!()
        };
        let at_floor_ns = Run::new(floor, false).jobs() as f64 / jobs_per_s * 1e9;
        let events = floor.max_events_per_job;
        assert_eq!(stage(floor, at_floor_ns, events).speedup(), 1.0);
        assert!(stage(floor, at_floor_ns, events).passes());
        assert!(!stage(floor, at_floor_ns * 1.01, events).passes());
    }

    #[test]
    fn an_event_count_over_budget_fails_even_in_smoke() {
        let budgeted = row(|row| row.max_events_per_job.is_some());
        let budget = budgeted.max_events_per_job.unwrap();
        let fast = 1.0;
        assert!(stage(budgeted, fast, Some(budget)).within_event_budget());
        for events in [Some(budget + 0.001), None] {
            let over = stage(budgeted, fast, events);
            assert!(!over.within_event_budget(), "{events:?}");
            assert!(!over.passes(), "{events:?}");
        }
        let unbudgeted = row(|row| row.max_events_per_job.is_none());
        assert!(stage(unbudgeted, fast, None).within_event_budget());
    }

    #[test]
    fn smoke_is_the_only_option() {
        let args = |list: &[&str]| parse_smoke(list.iter().map(|arg| arg.to_string()));
        assert_eq!(args(&[]), Ok(false));
        assert_eq!(args(&["--smoke"]), Ok(true));
        for stale in ["1.5", "0", "--allow-override"] {
            assert_eq!(args(&[stale]), Err(stale.to_string()));
        }
    }
}
