//! Perf regression guard for the characterisation pipeline.
//!
//! Times the stages the fused/threaded pipeline and the flat-tensor ANN
//! engine accelerate — oracle build, predictor training, the four-system
//! testbed run, bagged-ensemble training, and per-job ensemble inference —
//! against their serial/allocating references, and persists the
//! measurements to `results/BENCH_pipeline.json`.
//!
//! Five stages are gated, all **on a single worker** (the engines alone
//! have to carry the speedup; threads only help on multi-core hosts):
//!
//! - `oracle_build_paper`: fused single-pass cache sweep vs the serial
//!   18-replay reference over `Suite::eembc_like()`.
//! - `bagging_train`: flat-tensor ensemble training vs the allocating
//!   per-`Vec` reference engine (`hetero_oracles::ann`).
//! - `ensemble_predict`: memoized batched inference (the ensemble runs
//!   once per benchmark) vs re-running the reference ensemble on every
//!   completing job.
//! - `predict_f32`: the converted f32 serving engine
//!   (`EnsembleF32::predict_batch_f32`, 8-wide unrolled kernels) vs the
//!   exact ensemble's batched f64 path, same 30-member paper topology.
//! - `distilled_predict`: the distilled single-student f32 path vs the
//!   full 30-member exact ensemble — gated at a fixed 8x, not the CLI
//!   threshold (30 member forwards fold into one).
//!
//! The first four must each be at least 2x faster than their reference
//! (CLI-overridable threshold). Three further
//! gated stages guard instrumentation layers instead of optimisations,
//! each with a fixed ratio bar regardless of the CLI threshold:
//! `sim_trace_overhead` (the `NullSink` build of the traced simulator
//! loop vs the verbatim untraced reference loop,
//! `hetero_oracles::sim::run_reference`) and `sim_fault_overhead`
//! (`run_with_faults` with an empty `FaultPlan` vs the same
//! reference) — both must stay within 2% — and `sim_metrics_overhead`
//! (the traced loop feeding a live `hetero_telemetry::MetricsSink`,
//! which folds every event into time-series windows and histograms,
//! gated at 0.55x of the untraced loop). A seventh gated stage,
//! `sim_manycore`, pins the indexed event loop's scaling win: at 256
//! cores under a saturating burst, `Simulator::run` must be at least 5x
//! faster than the retained linear-scan
//! `hetero_oracles::sim::run_reference`. An eighth, `sim_stall_backlog`,
//! pins the wait-set skip: on the energy-centric system's stalled
//! backlog on the paper's quad, the loop
//! that skips jobs whose best cores are all busy must run at least 2x
//! (the CLI threshold) faster than the same loop offering every job; its
//! artifact entry also reports both sides' absolute throughput in jobs/s.
//! Speedups compare the minimum over
//! the measured iterations on each side, which filters the additive
//! scheduling noise of shared hosts. Finally, `engine_stream` is a
//! *memory* gate: a 10M-job open-loop streaming run through
//! `hetero_engine` must grow this process's resident set by less than a
//! fixed budget, pinning the engine's O(1)-memory claim (see
//! `STREAM_RSS_BUDGET_MB`). Two service-layer no-regression bars,
//! `engine_overload` and `engine_observe`, pin the quiescent cost of
//! the overload governor and of the armed live observability plane
//! (burn-rate evaluation + a polled scrape server) at >= 0.95x the
//! plain streaming engine; the ungated `engine_observe_spans` stage
//! records what the export-path span assembler adds on top. The last
//! two, `engine_manycore_256` and `engine_manycore_1024`, are absolute
//! gates rather than ratios: the base system through `hetero_engine::run`
//! at 256 and 1024 cores must reach a jobs/s floor and emit at most ten
//! simulator events per job, counted exactly. `sim_proposed_paper` is
//! the policy's own absolute floor: the proposed system alone through
//! `Simulator::run` on the paper testbed's 5000-job plan must reach a
//! jobs/s floor. The binary exits non-zero
//! when the guard fails, so it can serve as a CI perf gate. The artifact
//! records the commit, build profile and host parallelism it was
//! measured with.
//!
//! Usage: `cargo run --release --bin perf_pipeline [min_speedup] [flags]`
//!
//! - default threshold 2.0; pass a number to override it.
//! - `--allow-override`: required to *write the artifact* when the
//!   threshold is not the default. A non-default gate can silently record
//!   `gate_passed: false` (or a vacuous pass) into the committed results,
//!   so override runs must opt in, and the artifact carries a
//!   `gate_overridden: true` marker.
//! - `--smoke`: single-iteration shakeout — runs every stage end to end
//!   but skips the gate and writes no artifact. Used by `scripts/check.sh`.

use energy_model::{EnergyBreakdown, EnergyModel};
use hetero_bench::json::Json;
use hetero_bench::perf::{bench_paired, Sample};
use hetero_bench::{SystemKind, Testbed};
use hetero_core::{
    BaseSystem, BestCorePredictor, EnergyCentricSystem, PredictorConfig, SuiteOracle,
};
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
use tinyann::{Activation, Bagging, Dataset, DistillConfig, EnsembleF32, TrainConfig};
use workloads::{ArrivalPlan, SplitMix64, Suite};

/// The CI threshold. Artifact writes at any other threshold require
/// `--allow-override` and are marked in the JSON.
const DEFAULT_MIN_SPEEDUP: f64 = 2.0;

/// Stages whose speedup the gate checks (each must clear its threshold).
const GATED_STAGES: [&str; 16] = [
    "oracle_build_paper",
    "bagging_train",
    "ensemble_predict",
    "predict_f32",
    "distilled_predict",
    "sim_trace_overhead",
    "sim_fault_overhead",
    "sim_metrics_overhead",
    "sim_manycore",
    "sim_stall_backlog",
    "sim_proposed_paper",
    "engine_stream",
    "engine_overload",
    "engine_observe",
    "engine_manycore_256",
    "engine_manycore_1024",
];

/// Jobs per run of `sim_stall_backlog` and `sim_proposed_paper`: the
/// paper's Sec. V arrival count.
const STALL_BACKLOG_JOBS: usize = 5000;

/// `sim_proposed_paper` is an absolute floor on the scheduling policy
/// itself: the proposed system alone through `Simulator::run` on the
/// paper testbed (full suite, paper predictor, quad) over the Sec. V plan
/// of [`STALL_BACKLOG_JOBS`] arrivals in 700M cycles, with no sink. It
/// must reach this many jobs/s: no more than half the median of repeated
/// runs on a 2-vCPU x86-64 host (11 runs, min-of-7 each: 3.3–6.3 M,
/// median 4.4 M), and twice the best run of the profiling table keyed by
/// configuration name that preceded the indexed one (0.52–0.96 M). The
/// stage reuses the `Stage` schema with the floor as its reference side,
/// so `speedup` is measured jobs/s over the floor, gated at 1.0.
const PROPOSED_PAPER_FLOOR_JOBS_PER_S: f64 = 2_000_000.0;

/// `sim_trace_overhead` and `sim_fault_overhead` are no-regression bars,
/// not speedup bars: the NullSink-instrumented loop and the
/// fault-injection loop with an empty plan must each run at >= 0.98x the
/// untraced reference (within 2%). Fixed — the CLI threshold does not
/// move them.
const TRACE_OVERHEAD_MIN_RATIO: f64 = 0.98;

/// `sim_metrics_overhead` is a cost budget for *live* metrics folding:
/// unlike the `NullSink` stages, every event is constructed and does
/// real work (window accounting, ready-depth tracking, histogram
/// records), so parity is impossible by construction. The instrumented
/// loop must still run at >= 0.55x the untraced reference — measured
/// ~0.60-0.65x on the arrival-dense preemptive workload, which is the
/// sink's worst case (near-zero simulation work per event; real
/// scheduling policies dilute the per-event cost further). Fixed — the
/// CLI threshold does not move it.
const METRICS_OVERHEAD_MIN_RATIO: f64 = 0.55;

/// `sim_manycore` pins the scaling win of the indexed event loop: the
/// bitset/indexed `Simulator::run` against the retained linear-scan
/// `hetero_oracles::sim::run_reference` at 256 cores under a saturating
/// burst (the regime where the reference pays O(cores) per event for idle
/// scans and per-offer index rebuilds, while the indexed loop pays
/// O(1)/O(words)).
/// Fixed — the CLI threshold does not move it.
const MANYCORE_MIN_SPEEDUP: f64 = 5.0;

/// `distilled_predict` pins the serving-path collapse: one f32 student
/// forward (`Distilled::serving_f32`) against the full 30-member exact
/// ensemble's batched f64 path on the same probe rows. 30 member forwards
/// fold into one smaller net, so the bar is well above the generic
/// threshold. Fixed — the CLI threshold does not move it.
const DISTILL_MIN_SPEEDUP: f64 = 8.0;

/// `engine_stream` is a *memory* gate, not a time gate: a 10M-job
/// streaming run (1M in smoke mode) through `hetero_engine` on a single
/// process must grow resident memory by less than this budget. A
/// materialising run of the same shape pays ~240MB for the arrival plan
/// alone plus per-job metric retention, so a regression back to O(jobs)
/// state blows the budget immediately, while the bounded sink's true
/// footprint (in-flight job slots + open windows + the snapshot ring) is
/// a few MB. The stage reuses the `Stage` schema with MB-valued samples
/// (the artifact marks it `"unit": "MB"` and names its value fields
/// `*_mb`; `speedup` is `budget / growth`, gated at 1.0). Fixed — the CLI
/// threshold does not move it.
const STREAM_RSS_BUDGET_MB: f64 = 128.0;

/// `engine_overload` is a no-regression bar on the governed streaming
/// path: `hetero_engine::run` with an *enabled* governor whose
/// limits are wide enough that nothing sheds and no tier steps, against
/// a plain `run` on the same open-loop stream. The governor
/// still pays its real quiescent costs (admission bookkeeping,
/// in-flight tracking, control-window folds on every completion), so
/// parity is not free — but a service that cannot afford its own
/// overload protection would never deploy it, hence the bar: >= 0.95x
/// the ungoverned engine. Fixed — the CLI threshold does not move it.
const ENGINE_OVERLOAD_MIN_RATIO: f64 = 0.95;

/// `engine_observe` is the same kind of no-regression bar for the
/// *armed live* observability plane: `hetero_engine::run` with a
/// burn-rate rule evaluated at each closed window and a bound scrape
/// server polled at snapshot boundaries (no clients connected) against
/// a plain `run` on the same open-loop stream. The rule's
/// latency budget sits at `u64::MAX` so the alert machinery runs but
/// never fires. Span assembly is excluded here (export-path, O(trace)
/// memory — see `engine_observe_spans`). Bar: >= 0.95x the unobserved
/// engine. Fixed — the CLI threshold does not move it.
const ENGINE_OBSERVE_MIN_RATIO: f64 = 0.95;

/// `engine_manycore` is an *absolute* gate, the first in this file: the
/// base system on the paper quad tiled to 256 and 1024 cores (base runs
/// any idle core, so the tiling only fixes the core count), fed
/// [`ENGINE_MANYCORE_RATE_PER_CORE`] Poisson jobs per mega-cycle per
/// core through `hetero_engine::run` with the default `RunSpec` — the
/// `EngineSink` path whose idle accounting used to cost an event per
/// idle core per clock advance. Each size must reach its jobs/s floor
/// (set at no more than half the median of repeated runs on a 2-vCPU
/// x86-64 host) and emit at most [`ENGINE_MANYCORE_MAX_EVENTS_PER_JOB`]
/// simulator events per job, counted exactly. The stage reuses the
/// `Stage` schema with the floor as its reference side, so `speedup`
/// is measured jobs/s over the floor, gated at 1.0.
const ENGINE_MANYCORE_FLOORS: [(usize, f64); 2] = [(256, 140_000.0), (1024, 40_000.0)];

/// Offered load of `engine_manycore`, in jobs per mega-cycle per core.
const ENGINE_MANYCORE_RATE_PER_CORE: f64 = 2.5;

/// Jobs per core of one `engine_manycore` run.
const ENGINE_MANYCORE_JOBS_PER_CORE: usize = 20;

/// The exact event budget of `engine_manycore`: simulator events per
/// job at either size.
const ENGINE_MANYCORE_MAX_EVENTS_PER_JOB: f64 = 10.0;

/// The gate bar for one stage at the given CLI threshold.
fn stage_threshold(name: &str, min_speedup: f64) -> f64 {
    match name {
        "engine_manycore_256" | "engine_manycore_1024" | "sim_proposed_paper" => 1.0,
        "sim_trace_overhead" | "sim_fault_overhead" => TRACE_OVERHEAD_MIN_RATIO,
        "sim_metrics_overhead" => METRICS_OVERHEAD_MIN_RATIO,
        "sim_manycore" => MANYCORE_MIN_SPEEDUP,
        "distilled_predict" => DISTILL_MIN_SPEEDUP,
        "engine_stream" => 1.0,
        "engine_overload" => ENGINE_OVERLOAD_MIN_RATIO,
        "engine_observe" => ENGINE_OBSERVE_MIN_RATIO,
        _ => min_speedup,
    }
}

/// Jobs one timed iteration of a throughput stage simulates; its
/// artifact entry then also reports both sides in jobs/s.
fn stage_jobs(name: &str) -> Option<usize> {
    match name {
        "sim_stall_backlog" | "sim_proposed_paper" => Some(STALL_BACKLOG_JOBS),
        _ => engine_manycore_cores(name).map(|cores| cores * ENGINE_MANYCORE_JOBS_PER_CORE),
    }
}

/// The core count of an `engine_manycore` stage name.
fn engine_manycore_cores(name: &str) -> Option<usize> {
    name.strip_prefix("engine_manycore_")?.parse().ok()
}

/// One stage's before/after measurement.
struct Stage {
    name: &'static str,
    reference: Sample,
    fused: Sample,
    /// Simulator events per job, for the stages that gate it exactly.
    events_per_job: Option<f64>,
}

impl Stage {
    /// Speedup from the fastest observed iteration on each side. Timing
    /// noise on a loaded host is strictly additive (interrupts,
    /// scheduling), so min-of-N is the stable estimator of true cost;
    /// mean-based ratios swing with whichever side caught the noise.
    fn speedup(&self) -> f64 {
        self.reference.min_ns / self.fused.min_ns
    }

    fn mean_speedup(&self) -> f64 {
        self.reference.mean_ns / self.fused.mean_ns
    }

    fn gated(&self) -> bool {
        GATED_STAGES.contains(&self.name)
    }

    /// Whether the stage clears its bar and, where it counts events, the
    /// event budget.
    fn passes(&self, min_speedup: f64) -> bool {
        self.speedup() >= stage_threshold(self.name, min_speedup)
            && self
                .events_per_job
                .is_none_or(|events| events <= ENGINE_MANYCORE_MAX_EVENTS_PER_JOB)
    }

    /// Unit of the stage's sample values: every stage is timed in
    /// milliseconds except the `engine_stream` memory gate, whose samples
    /// are resident-set megabytes.
    fn unit(&self) -> &'static str {
        if self.name == "engine_stream" {
            "MB"
        } else {
            "ms"
        }
    }

    fn to_json(&self, min_speedup: f64) -> Json {
        // Value fields carry the unit as their suffix (`reference_ms`,
        // `fused_min_mb`, ...); samples store either unit scaled by 1e6.
        let suffix = self.unit().to_ascii_lowercase();
        let value =
            |field: &str, scaled: f64| (format!("{field}_{suffix}"), Json::Num(scaled / 1e6));
        let mut fields = vec![
            ("stage".to_string(), Json::str(self.name)),
            ("unit".to_string(), Json::str(self.unit())),
            ("gated".to_string(), Json::Bool(self.gated())),
            (
                "gate_threshold".to_string(),
                if self.gated() {
                    Json::Num(stage_threshold(self.name, min_speedup))
                } else {
                    Json::Null
                },
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
        if let Some(jobs) = stage_jobs(self.name) {
            let per_s = |sample: &Sample| Json::Num(jobs as f64 / (sample.min_ns / 1e9));
            fields.extend([
                ("jobs".to_string(), Json::UInt(jobs as u64)),
                ("throughput_unit".to_string(), Json::str("jobs/s")),
                ("reference_jobs_per_s".to_string(), per_s(&self.reference)),
                ("fused_jobs_per_s".to_string(), per_s(&self.fused)),
            ]);
        }
        if let Some(events) = self.events_per_job {
            fields.extend([
                ("events_per_job".to_string(), Json::Num(events)),
                (
                    "max_events_per_job".to_string(),
                    Json::Num(ENGINE_MANYCORE_MAX_EVENTS_PER_JOB),
                ),
            ]);
        }
        Json::object(fields)
    }
}

fn measure_oracle(label: &'static str, suite: &Suite, iters: u32) -> Stage {
    let model = EnergyModel::default();
    // Paired iterations so host-speed drift cancels out of the ratio;
    // single worker isolates the fused engine's gain from parallelism.
    let (reference, fused) = bench_paired(
        "oracle_reference",
        || build_reference(suite, &model).len(),
        "oracle_fused",
        || SuiteOracle::build_with_threads(suite, &model, 1).len(),
        iters,
    );
    Stage {
        name: label,
        reference,
        fused,
        events_per_job: None,
    }
}

fn measure_training(iters: u32) -> Stage {
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
        iters,
    );
    Stage {
        name: "predictor_train_small",
        reference,
        fused,
        events_per_job: None,
    }
}

fn measure_run_all(iters: u32) -> Stage {
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
        iters,
    );
    Stage {
        name: "testbed_run_all_small",
        reference,
        fused,
        events_per_job: None,
    }
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
fn measure_bagging_train(iters: u32) -> Stage {
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
        iters,
    );
    Stage {
        name: "bagging_train",
        reference,
        fused,
        events_per_job: None,
    }
}

/// Per-job ensemble inference, the pattern the scheduling systems hit on
/// every profile completion: the reference re-runs the whole (allocating)
/// ensemble per job; the flat path evaluates each distinct benchmark once
/// through `predict_batch` and answers jobs from the memo — exactly what
/// `BestCorePredictor::predict_for` does. Both models carry bit-identical
/// weights (property-tested), so the comparison is engine-for-engine.
fn measure_ensemble_predict(iters: u32) -> Stage {
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
        iters,
    );
    Stage {
        name: "ensemble_predict",
        reference,
        fused,
        events_per_job: None,
    }
}

/// A paper-topology ensemble (`{18, 10, 18, 5, 1}`, tanh, 30 members)
/// trained briefly on the counter-shaped set: the serving stages compare
/// inference *engines*, so weight quality is irrelevant — only the tensor
/// shapes and member count the per-job hot path pays for.
fn serving_ensemble() -> Bagging {
    Bagging::train_with_threads(
        &ensemble_dataset(),
        30,
        &[18, 10, 18, 5, 1],
        Activation::Tanh,
        TrainConfig {
            epochs: 8,
            batch_size: 16,
            learning_rate: 0.05,
            momentum: 0.9,
            patience: 0,
            seed: 0xC0FE,
        },
        hetero_parallel::worker_count(),
    )
}

/// Counter-shaped probe rows standing in for per-job feature vectors.
fn probe_rows(n: usize) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(0xF337);
    (0..n)
        .map(|_| (0..18).map(|_| rng.next_f64() * 2.0 - 1.0).collect())
        .collect()
}

/// The f32 serving-engine stage: the exact ensemble's batched f64 path
/// (`Bagging::predict_batch`, already allocation-lean and memo-friendly)
/// against the converted f32 engine's `predict_batch_f32` (8-wide
/// unrolled kernels, preallocated workspaces, flat output buffer) on the
/// same 30-member paper topology and the same probe rows. Gated at the
/// generic threshold: the quantised engine must be at least 2x the exact
/// batch path on one worker.
fn measure_predict_f32(iters: u32) -> Stage {
    let ensemble = serving_ensemble();
    let mut serving = EnsembleF32::from_ensemble(&ensemble);
    let probes = probe_rows(512);
    let mut out = Vec::new();
    let (reference, fused) = bench_paired(
        "ensemble_batch_f64",
        || ensemble.predict_batch(&probes).len(),
        "ensemble_batch_f32",
        || {
            serving.predict_batch_f32(&probes, &mut out);
            out.len()
        },
        iters,
    );
    Stage {
        name: "predict_f32",
        reference,
        fused,
        events_per_job: None,
    }
}

/// The distillation stage: the full 30-member exact ensemble's batched
/// f64 path against the distilled student served through the f32 engine —
/// the complete serving-path collapse (30 member forwards -> 1 smaller
/// f32 forward). Gated at the fixed 8x bar.
fn measure_distilled_predict(iters: u32) -> Stage {
    let ensemble = serving_ensemble();
    let anchors = probe_rows(96);
    let student = ensemble.distill(
        &anchors,
        &DistillConfig {
            replicas: 4,
            jitter: 0.05,
            hidden: vec![24],
            train: TrainConfig {
                epochs: 60,
                ..TrainConfig::default()
            },
        },
    );
    let mut serving = student.serving_f32();
    let probes = probe_rows(512);
    let mut out = Vec::new();
    let (reference, fused) = bench_paired(
        "ensemble_batch_f64_full",
        || ensemble.predict_batch(&probes).len(),
        "distilled_f32",
        || {
            serving.predict_batch_f32(&probes, &mut out);
            out.len()
        },
        iters,
    );
    Stage {
        name: "distilled_predict",
        reference,
        fused,
        events_per_job: None,
    }
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
fn measure_trace_overhead(iters: u32) -> Stage {
    let plan = ArrivalPlan::uniform_with_priorities(30_000, 1_500_000, 12, 3, 7);
    let sim = Simulator::new(4).with_discipline(QueueDiscipline::PreemptivePriority);
    let (reference, fused) = bench_paired(
        "sim_untraced_reference",
        || run_reference(&sim, &plan, &mut FirstIdle).jobs_completed,
        "sim_nullsink_traced",
        || sim.run(&plan, &mut FirstIdle).jobs_completed,
        iters,
    );
    Stage {
        name: "sim_trace_overhead",
        reference,
        fused,
        events_per_job: None,
    }
}

/// The fault-injection no-regression stage: `Simulator::run_with_faults`
/// with an *empty* fault plan (every fault branch a no-op) against the
/// verbatim untraced reference loop. The two are bit-identical in result
/// (property-tested); this stage pins the no-fault cost of the fault
/// hooks to within the same 2% bar as the flight recorder.
fn measure_fault_overhead(iters: u32) -> Stage {
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
        iters,
    );
    Stage {
        name: "sim_fault_overhead",
        reference,
        fused,
        events_per_job: None,
    }
}

/// The live-metrics cost-budget stage: the traced loop feeding a
/// [`MetricsSink`] (per-core time-series windows, three run-wide
/// histograms, run totals — all folded event by event) against the
/// verbatim untraced reference loop. The sink never changes `RunMetrics`
/// (property-tested bit-identical in
/// `crates/bench/tests/telemetry_properties.rs`); this stage pins what
/// the folding *costs* on the instrumentation-worst-case workload.
fn measure_metrics_overhead(iters: u32) -> Stage {
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
        iters,
    );
    Stage {
        name: "sim_metrics_overhead",
        reference,
        fused,
        events_per_job: None,
    }
}

/// The many-core scaling stage: both event loops at 256 cores under a
/// saturating burst — 30k jobs all arriving within the first few thousand
/// cycles, so for most of the run every core is busy and a deep ready
/// queue drains one completion at a time. Per event the reference loop
/// scans all 256 views for the idle-energy accrual and rebuilds a
/// `CoreIndex` for every scheduler offer; the indexed loop answers both
/// from the incrementally-maintained idle mask (`idle_count() == 0` is a
/// single integer test). Results are bit-identical (property-tested);
/// only the cost differs, and it must differ by >= 5x.
fn measure_manycore(iters: u32) -> Stage {
    let plan = ArrivalPlan::uniform_with_priorities(30_000, 4_000, 12, 3, 7);
    let sim = Simulator::new(256);
    let (reference, fused) = bench_paired(
        "sim_manycore_linear",
        || run_reference(&sim, &plan, &mut FirstIdle).jobs_completed,
        "sim_manycore_indexed",
        || sim.run(&plan, &mut FirstIdle).jobs_completed,
        iters,
    );
    Stage {
        name: "sim_manycore",
        reference,
        fused,
        events_per_job: None,
    }
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
/// `crates/bench/tests/wait_set_identity.rs`); the skip must make the run
/// at least 2x faster. The reference side is the indexed loop, not
/// `run_reference`: the linear-scan oracle rebuilds a `CoreIndex` per
/// offer and is ~5x slower here even without a skip, which would hide a
/// lost skip behind the gate. The small suite at 200M cycles stalls 2664
/// jobs, the scale of the paper suite's Figure 7 run.
fn measure_stall_backlog(iters: u32) -> Stage {
    let testbed = Testbed::small();
    let plan = testbed.plan(STALL_BACKLOG_JOBS, 200_000_000, 20190325);
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
        iters,
    );
    Stage {
        name: "sim_stall_backlog",
        reference,
        fused,
        events_per_job: None,
    }
}

/// The `sim_proposed_paper` stage (see
/// [`PROPOSED_PAPER_FLOOR_JOBS_PER_S`]).
fn measure_proposed_paper(iters: u32) -> Stage {
    let name = "sim_proposed_paper";
    let testbed = Testbed::paper();
    let plan = testbed.plan(STALL_BACKLOG_JOBS, 700_000_000, 20190325);
    let sim = Simulator::new(testbed.arch.num_cores());
    let fused = hetero_bench::perf::bench(name, iters, || {
        let mut system = testbed.system(SystemKind::Proposed);
        let metrics = sim.run(&plan, &mut system);
        assert_eq!(metrics.jobs_completed, STALL_BACKLOG_JOBS as u64);
        metrics.jobs_completed
    });
    let floor = PROPOSED_PAPER_FLOOR_JOBS_PER_S;
    println!(
        "{name}: {:.0} jobs/s (floor {floor:.0})",
        STALL_BACKLOG_JOBS as f64 / (fused.min_ns / 1e9)
    );
    Stage {
        name,
        reference: floor_sample(name, STALL_BACKLOG_JOBS, floor),
        fused,
        events_per_job: None,
    }
}

/// The reference side of an absolute stage: one pseudo-sample that takes
/// exactly as long as `jobs` jobs at `floor` jobs/s.
fn floor_sample(name: &str, jobs: usize, floor: f64) -> Sample {
    let floor_ns = jobs as f64 / floor * 1e9;
    Sample {
        label: format!("{name}_floor"),
        iters: 1,
        mean_ns: floor_ns,
        min_ns: floor_ns,
        p50_ns: floor_ns,
        p95_ns: floor_ns,
    }
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
/// [`STREAM_RSS_BUDGET_MB`]. Runs once (`iters` selects the scale, not a
/// repeat count: smoke = 1M jobs, full = 10M).
fn measure_engine_stream(iters: u32) -> Stage {
    let jobs: usize = if iters <= 1 { 1_000_000 } else { 10_000_000 };
    let stream = workloads::OpenLoop::poisson(20.0, 12, 7).take(jobs);
    let sim = Simulator::new(4);
    let before_mb = rss_mb();
    let (outcome, elapsed) = hetero_bench::perf::time_once(|| {
        hetero_engine::run(&sim, stream, &mut FirstIdle, &RunSpec::default())
            .expect("a plain run binds nothing")
    });
    let growth_mb = (rss_mb() - before_mb).max(0.25);
    assert_eq!(
        outcome.metrics.jobs_completed, jobs as u64,
        "streaming run must retire every job"
    );
    println!(
        "engine_stream: {jobs} jobs in {:.2}s, {} snapshots, rss growth {growth_mb:.1} MB \
         (budget {STREAM_RSS_BUDGET_MB:.0} MB)",
        elapsed.as_secs_f64(),
        outcome.report.snapshots_emitted,
    );
    // Megabytes scaled like nanoseconds, so the shared `/ 1e6` artifact
    // conversion yields MB (`Stage::unit`) and `speedup()` becomes
    // budget/growth.
    let sample = |label: &str, mb: f64| Sample {
        label: label.to_string(),
        iters: 1,
        mean_ns: mb * 1e6,
        min_ns: mb * 1e6,
        p50_ns: mb * 1e6,
        p95_ns: mb * 1e6,
    };
    Stage {
        name: "engine_stream",
        reference: sample("stream_rss_budget_mb", STREAM_RSS_BUDGET_MB),
        fused: sample("stream_rss_growth_mb", growth_mb),
        events_per_job: None,
    }
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
    name: &'static str,
    fused_label: &str,
    fused: &RunSpec,
    check: impl Fn(&Outcome),
    iters: u32,
) -> Stage {
    let testbed = Testbed::small();
    let sim = Simulator::new(testbed.arch.num_cores());
    let plain = RunSpec::default();
    let run = |spec: &RunSpec| {
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
        || run(&plain).metrics.jobs_completed,
        fused_label,
        || {
            let outcome = run(fused);
            check(&outcome);
            outcome.metrics.jobs_completed
        },
        iters,
    );
    Stage {
        name,
        reference,
        fused,
        events_per_job: None,
    }
}

/// The governed-streaming overhead stage: a quiescent governor on the
/// fused side. The governor is *enabled* (bounded queue, drop-tail
/// policy, live brownout controller), but every limit sits far above
/// what the run reaches, so nothing sheds and no tier steps; the
/// measurement captures the pure bookkeeping cost riding on every
/// arrival and completion.
fn measure_engine_overload(iters: u32) -> Stage {
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
    measure_engine_layer(
        "engine_overload",
        "engine_stream_governed",
        &governed,
        quiescent,
        iters,
    )
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
fn measure_engine_observe(iters: u32) -> Stage {
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
    measure_engine_layer(
        "engine_observe",
        "engine_stream_observed",
        &observed,
        quiescent,
        iters,
    )
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
fn measure_engine_observe_spans(iters: u32) -> Stage {
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
    measure_engine_layer(
        "engine_observe_spans",
        "engine_stream_spans",
        &spanned,
        conserved,
        iters,
    )
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

/// The `engine_manycore` stage at `cores` cores (see
/// [`ENGINE_MANYCORE_FLOORS`]): times `hetero_engine::run` of the base
/// system, then counts the events one run emits into the same sink.
fn measure_engine_manycore(name: &'static str, iters: u32) -> Stage {
    let cores = engine_manycore_cores(name).expect("an engine_manycore stage");
    let floor = ENGINE_MANYCORE_FLOORS
        .iter()
        .find_map(|&(size, floor)| (size == cores).then_some(floor))
        .expect("a floor per size");
    let jobs = cores * ENGINE_MANYCORE_JOBS_PER_CORE;
    let testbed = Testbed::small();
    let sim = Simulator::new(cores);
    let stream = || {
        let rate = ENGINE_MANYCORE_RATE_PER_CORE * cores as f64;
        workloads::OpenLoop::poisson(rate, testbed.suite.len(), 7).take(jobs)
    };
    let base = || BaseSystem::new(&testbed.oracle, testbed.model, cores);
    let fused = hetero_bench::perf::bench(name, iters, || {
        let outcome = hetero_engine::run(&sim, stream(), &mut base(), &RunSpec::default())
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
    let _ = sim.run_stream(stream(), &mut base(), &mut counting);
    let events_per_job = counting.events as f64 / jobs as f64;
    println!(
        "{name}: {:.0} jobs/s (floor {floor:.0}), {events_per_job:.3} events/job \
         (budget {ENGINE_MANYCORE_MAX_EVENTS_PER_JOB:.0})",
        jobs as f64 / (fused.min_ns / 1e9)
    );
    Stage {
        name,
        reference: floor_sample(name, jobs, floor),
        fused,
        events_per_job: Some(events_per_job),
    }
}

/// (Re-)measure one stage by name, at the given iteration count.
fn measure_stage(name: &str, iters: u32) -> Stage {
    match name {
        "engine_manycore_256" => measure_engine_manycore("engine_manycore_256", iters),
        "engine_manycore_1024" => measure_engine_manycore("engine_manycore_1024", iters),
        "oracle_build_small" => {
            measure_oracle("oracle_build_small", &Suite::eembc_like_small(), iters)
        }
        "oracle_build_paper" => measure_oracle("oracle_build_paper", &Suite::eembc_like(), iters),
        "predictor_train_small" => measure_training(iters),
        "testbed_run_all_small" => measure_run_all(iters),
        "bagging_train" => measure_bagging_train(iters),
        "ensemble_predict" => measure_ensemble_predict(iters),
        "predict_f32" => measure_predict_f32(iters),
        "distilled_predict" => measure_distilled_predict(iters),
        "sim_trace_overhead" => measure_trace_overhead(iters),
        "sim_fault_overhead" => measure_fault_overhead(iters),
        "sim_metrics_overhead" => measure_metrics_overhead(iters),
        "sim_manycore" => measure_manycore(iters),
        "sim_stall_backlog" => measure_stall_backlog(iters),
        "sim_proposed_paper" => measure_proposed_paper(iters),
        "engine_stream" => measure_engine_stream(iters),
        "engine_overload" => measure_engine_overload(iters),
        "engine_observe" => measure_engine_observe(iters),
        "engine_observe_spans" => measure_engine_observe_spans(iters),
        other => panic!("unknown stage {other}"),
    }
}

fn stage_iters(name: &str, smoke: bool) -> u32 {
    if smoke {
        return 1;
    }
    match name {
        "predictor_train_small" | "testbed_run_all_small" => 3,
        "bagging_train" => 5,
        "sim_trace_overhead" | "sim_fault_overhead" | "sim_metrics_overhead" => 9,
        "sim_manycore" => 5,
        // One full-scale 10M-job pass; `iters` is a scale selector here.
        "engine_stream" => 2,
        "engine_overload" => 7,
        _ => 7,
    }
}

fn print_usage() {
    eprintln!("usage: perf_pipeline [min_speedup] [--smoke] [--allow-override]");
}

fn main() -> ExitCode {
    let mut min_speedup = DEFAULT_MIN_SPEEDUP;
    let mut smoke = false;
    let mut allow_override = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--allow-override" => allow_override = true,
            other => match other.parse::<f64>() {
                Ok(value) => min_speedup = value,
                Err(_) => {
                    eprintln!("unknown argument: {other}");
                    print_usage();
                    return ExitCode::FAILURE;
                }
            },
        }
    }
    let overridden = min_speedup != DEFAULT_MIN_SPEEDUP;

    let workers = hetero_parallel::worker_count();
    println!("perf_pipeline: {workers} worker(s) available (HETERO_THREADS overrides)");
    if smoke {
        println!("smoke mode: 1 iteration per stage, no gate, no artifact\n");
    } else {
        println!(
            "gating: oracle_build_paper, bagging_train, ensemble_predict, predict_f32 \
             must each be >= {min_speedup:.1}x their reference on one worker;\n\
             distilled_predict must be >= {DISTILL_MIN_SPEEDUP:.1}x the full \
             30-member ensemble;\n\
             sim_trace_overhead and sim_fault_overhead must each hold \
             >= {TRACE_OVERHEAD_MIN_RATIO:.2}x of the untraced loop;\n\
             sim_metrics_overhead must hold >= {METRICS_OVERHEAD_MIN_RATIO:.2}x;\n\
             sim_manycore must be >= {MANYCORE_MIN_SPEEDUP:.1}x the linear-scan \
             loop at 256 cores;\n\
             sim_stall_backlog must be >= {min_speedup:.1}x the loop offering \
             energy-centric's whole backlog;\n\
             sim_proposed_paper must reach {PROPOSED_PAPER_FLOOR_JOBS_PER_S:.0} jobs/s \
             on the paper testbed's 5000-job plan;\n\
             engine_stream must keep a 10M-job streaming run within \
             {STREAM_RSS_BUDGET_MB:.0} MB of rss growth;\n\
             engine_manycore_256/_1024 must reach their jobs/s floors and emit \
             <= {ENGINE_MANYCORE_MAX_EVENTS_PER_JOB:.0} simulator events per job\n"
        );
    }

    let all_stages = [
        "oracle_build_small",
        "oracle_build_paper",
        "predictor_train_small",
        "testbed_run_all_small",
        "bagging_train",
        "ensemble_predict",
        "predict_f32",
        "distilled_predict",
        "sim_trace_overhead",
        "sim_fault_overhead",
        "sim_metrics_overhead",
        "sim_manycore",
        "sim_stall_backlog",
        "sim_proposed_paper",
        "engine_stream",
        "engine_overload",
        "engine_observe",
        "engine_observe_spans",
        "engine_manycore_256",
        "engine_manycore_1024",
    ];
    let mut stages: Vec<Stage> = all_stages
        .iter()
        .map(|name| measure_stage(name, stage_iters(name, smoke)))
        .collect();

    // A gate verdict should not hinge on one unlucky process phase:
    // re-measure a gated stage (both sides, still paired) up to twice
    // when it lands under the bar, keeping the best attempt. A genuine
    // regression fails every attempt; a scheduling artefact does not.
    if !smoke {
        for name in GATED_STAGES {
            let bar = stage_threshold(name, min_speedup);
            for _ in 0..2 {
                let gate = stages
                    .iter_mut()
                    .find(|s| s.name == name)
                    .expect("gated stage measured");
                if gate.speedup() >= bar {
                    break;
                }
                println!(
                    "{}: {:.2}x under the bar, re-measuring to rule out noise",
                    gate.name,
                    gate.speedup()
                );
                let retry = measure_stage(name, stage_iters(name, smoke));
                if retry.speedup() > gate.speedup() {
                    *gate = retry;
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
            stage.name,
            stage.reference.min_ns / 1e6,
            stage.fused.min_ns / 1e6,
            stage.unit(),
            stage.speedup(),
            if stage.gated() { "  [gated]" } else { "" }
        );
    }

    if smoke {
        println!("\nsmoke run complete (no gate evaluated, no artifact written)");
        return ExitCode::SUCCESS;
    }

    let gated: Vec<&Stage> = stages.iter().filter(|s| s.gated()).collect();
    let passed = gated.iter().all(|s| s.passes(min_speedup));

    if overridden && !allow_override {
        eprintln!(
            "\nrefusing to write results/BENCH_pipeline.json: threshold {min_speedup} is not \
             the default {DEFAULT_MIN_SPEEDUP}; pass --allow-override to record an \
             override run (the artifact will carry gate_overridden: true)"
        );
        return ExitCode::FAILURE;
    }

    let mut fields = vec![("experiment", Json::str("pipeline"))];
    fields.extend(hetero_bench::perf::provenance());
    let doc = Json::object(fields.into_iter().chain([
        ("workers", Json::UInt(workers as u64)),
        ("min_speedup", Json::Num(min_speedup)),
        ("default_min_speedup", Json::Num(DEFAULT_MIN_SPEEDUP)),
        ("gate_overridden", Json::Bool(overridden)),
        (
            "gate_stages",
            Json::Array(GATED_STAGES.iter().map(|n| Json::str(*n)).collect()),
        ),
        ("gate_passed", Json::Bool(passed)),
        (
            "stages",
            Json::Array(stages.iter().map(|s| s.to_json(min_speedup)).collect()),
        ),
    ]));
    let path = std::path::Path::new("results").join("BENCH_pipeline.json");
    if let Err(error) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, doc.to_pretty()))
    {
        eprintln!("failed to write {}: {error}", path.display());
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", path.display());

    if passed {
        for stage in &gated {
            println!(
                "PASS: {} speedup {:.2}x >= {:.2}x",
                stage.name,
                stage.speedup(),
                stage_threshold(stage.name, min_speedup)
            );
        }
        ExitCode::SUCCESS
    } else {
        for stage in &gated {
            let bar = stage_threshold(stage.name, min_speedup);
            if stage.speedup() < bar {
                eprintln!(
                    "FAIL: {} speedup {:.2}x < {bar:.2}x",
                    stage.name,
                    stage.speedup()
                );
            }
            if let Some(events) = stage
                .events_per_job
                .filter(|&events| events > ENGINE_MANYCORE_MAX_EVENTS_PER_JOB)
            {
                eprintln!(
                    "FAIL: {} emits {events:.3} events/job > \
                     {ENGINE_MANYCORE_MAX_EVENTS_PER_JOB:.0}",
                    stage.name
                );
            }
        }
        ExitCode::FAILURE
    }
}
