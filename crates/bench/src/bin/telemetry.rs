//! Telemetry exporter: span-profiled offline pipeline plus per-system
//! run telemetry for all four schedulers.
//!
//! Builds the paper testbed with every offline stage instrumented by a
//! [`SpanRecorder`] (characterisation sweeps, oracle build, training-set
//! assembly, bagging, memoization, ensemble prediction), then runs base /
//! optimal / energy-centric / proposed on the paper arrival workload with
//! a [`MetricsSink`] attached. The sink folds the typed event stream into
//! per-core time-series windows and run-wide log-linear histograms of job
//! latency, per-job energy, and stall duration.
//!
//! Usage: `telemetry [--smoke]`
//!
//! * `--smoke` — reduced suite and workload, no artifacts written.
//!
//! The full run writes, under `results/`:
//!
//! * `TELEMETRY_<system>.json` — one document per system: run totals,
//!   latency / energy / stall histograms (p50/p95/p99), whole-run and
//!   per-core utilisation, and the complete per-core time-series.
//! * `TELEMETRY_summary.json` — the span profile of the offline pipeline
//!   and the cross-system histogram summaries.
//! * `TELEMETRY_prometheus.txt` — Prometheus text exposition, one block
//!   per system (metrics carry a `system` label).
//!
//! Every file but the summary (which carries wall-clock span timings)
//! is deterministic; `scripts/check.sh` regenerates them and compares
//! them byte for byte against the committed copies.
//!
//! Exits non-zero if any run completes fewer jobs than were submitted or
//! any artifact write fails.

use energy_model::EnergyModel;
use hetero_bench::json::Json;
use hetero_bench::telemetry_json::{histogram_summary, spans_to_json, telemetry_document};
use hetero_bench::{SystemKind, Testbed, PAPER_HORIZON, PAPER_JOBS, PAPER_SEED};
use hetero_core::{Architecture, BestCorePredictor, PredictorConfig, SuiteOracle};
use hetero_telemetry::{MetricsSink, SpanRecorder};
use multicore_sim::{QueueDiscipline, Simulator};
use std::process::ExitCode;
use workloads::{BenchmarkId, Suite};

/// Build the testbed with every offline stage under the span profiler.
///
/// The observed constructors emit the inner stages
/// (`oracle_characterise`, `predictor_dataset`, `predictor_bagging`,
/// `predictor_memoize`); the batch prediction over the whole suite is
/// bracketed here as `ensemble_predict`.
fn build_profiled(smoke: bool, recorder: &mut SpanRecorder) -> Testbed {
    let (suite, config) = if smoke {
        (Suite::eembc_like_small(), PredictorConfig::fast())
    } else {
        (Suite::eembc_like(), PredictorConfig::paper())
    };
    let model = EnergyModel::default();
    let workers = hetero_parallel::worker_count();
    let oracle = SuiteOracle::build_observed(&suite, &model, workers, recorder);
    let predictor =
        BestCorePredictor::train_excluding_observed(&oracle, &[], &config, workers, recorder);
    {
        let _span = recorder.span("ensemble_predict");
        for benchmark in 0..suite.len() {
            let statistics = oracle.execution_statistics(BenchmarkId(benchmark));
            std::hint::black_box(predictor.predict(&statistics));
        }
    }
    Testbed {
        suite,
        model,
        oracle,
        arch: Architecture::paper_quad(),
        predictor,
    }
}

fn write_artifact(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents)
        .map(|()| println!("wrote {path}"))
        .map_err(|err| format!("export to {path} failed: {err}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    if let Some(unknown) = args.iter().find(|a| *a != "--smoke") {
        eprintln!("unknown argument: {unknown} (expected --smoke)");
        return ExitCode::FAILURE;
    }

    let (jobs, horizon, interval) = if smoke {
        (200usize, 20_000_000u64, 1_000_000u64)
    } else {
        (PAPER_JOBS, PAPER_HORIZON, 10_000_000u64)
    };

    println!(
        "telemetry: offline pipeline under span profiler, then 4 systems x {jobs} jobs \
         over {horizon} cycles ({interval}-cycle windows)"
    );

    let mut recorder = SpanRecorder::new();
    let testbed = build_profiled(smoke, &mut recorder);
    println!("\noffline pipeline span profile:");
    println!("{}", recorder.report());

    let plan = testbed.plan(jobs, horizon, PAPER_SEED);
    let mut failures = 0u32;
    let mut system_rows: Vec<Json> = Vec::new();
    let mut prometheus = String::new();

    println!(
        "{:<15} {:>9} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "system", "completed", "lat p50", "lat p95", "lat p99", "lat max", "util"
    );
    let num_cores = testbed.arch.num_cores();
    for kind in SystemKind::ALL {
        let system_name = kind.name();
        let mut sink = MetricsSink::new(num_cores, interval);
        let metrics = Simulator::new(num_cores)
            .with_discipline(QueueDiscipline::Fifo)
            .run_with_sink(&plan, &mut testbed.system(kind), &mut sink);
        let report = sink.report();
        if metrics.jobs_completed != jobs as u64 {
            eprintln!(
                "  {system_name}: completed {} of {jobs} jobs",
                metrics.jobs_completed
            );
            failures += 1;
        }
        let latency = &report.latency_cycles;
        println!(
            "{:<15} {:>9} {:>10} {:>10} {:>10} {:>10} {:>7.1}%",
            system_name,
            metrics.jobs_completed,
            latency.p50(),
            latency.p95(),
            latency.p99(),
            latency.max(),
            report.mean_utilisation() * 100.0,
        );

        prometheus.push_str(&format!("# system: {system_name}\n"));
        prometheus.push_str(&report.prometheus(system_name));
        prometheus.push('\n');

        system_rows.push(Json::object([
            ("system", Json::str(system_name)),
            ("completed", Json::UInt(metrics.jobs_completed)),
            ("mean_utilisation", Json::Num(report.mean_utilisation())),
            ("latency_cycles", histogram_summary(&report.latency_cycles)),
            ("job_energy_nj", histogram_summary(&report.job_energy_nj)),
            ("stall_cycles", histogram_summary(&report.stall_cycles)),
            ("total_energy_nj", Json::Num(metrics.energy.total())),
        ]));

        if !smoke {
            let doc = telemetry_document(system_name, "fifo", jobs, PAPER_SEED, &report);
            if let Err(problem) = write_artifact(
                &format!("results/TELEMETRY_{}.json", system_name.replace('-', "_")),
                &doc.to_pretty(),
            ) {
                eprintln!("  {problem}");
                failures += 1;
            }
        }
    }

    if !smoke {
        let summary = Json::object([
            ("experiment", Json::str("telemetry")),
            ("jobs", Json::UInt(jobs as u64)),
            ("horizon_cycles", Json::UInt(horizon)),
            ("seed", Json::UInt(PAPER_SEED)),
            ("interval_cycles", Json::UInt(interval)),
            ("spans", spans_to_json(&recorder.records())),
            ("systems", Json::Array(system_rows)),
        ]);
        for (path, contents) in [
            ("results/TELEMETRY_summary.json", summary.to_pretty()),
            ("results/TELEMETRY_prometheus.txt", prometheus),
        ] {
            if let Err(problem) = write_artifact(path, &contents) {
                eprintln!("{problem}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("TELEMETRY FAILED: {failures} problem(s)");
        return ExitCode::FAILURE;
    }
    println!("TELEMETRY OK: 4 systems folded into time-series + histograms");
    ExitCode::SUCCESS
}
