//! Telemetry walkthrough: attach a [`MetricsSink`] to a scheduling run,
//! read back the per-core time-series, print the run as Prometheus text,
//! and dump the latency histogram's tail.
//!
//! The sink implements the simulator's `TraceSink`, folding every typed
//! event — arrivals, placements, stalls, evictions, completions, idle
//! spans — into fixed-cycle windows (utilisation, ready-queue depth,
//! energy rate) and run-wide log-linear histograms (job latency, per-job
//! energy, stall duration) with bounded relative error, all without
//! retaining the event stream. The offline pipeline stages run under the
//! span profiler via the `*_observed` constructors.
//!
//! ```sh
//! cargo run --release --example telemetry
//! ```

use hetero_sched::energy_model::EnergyModel;
use hetero_sched::hetero_core::{
    Architecture, BestCorePredictor, PredictorConfig, ProposedSystem, SuiteOracle,
};
use hetero_sched::hetero_telemetry::{MetricsSink, SpanRecorder};
use hetero_sched::multicore_sim::{QueueDiscipline, Simulator};
use hetero_sched::workloads::{ArrivalPlan, Suite};

fn main() {
    // Offline pipeline under the span profiler: the observed constructors
    // bracket characterisation, dataset assembly, bagging, and
    // memoization as named stages.
    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    let mut recorder = SpanRecorder::new();
    let oracle = SuiteOracle::build_observed(&suite, &model, 1, &mut recorder);
    let predictor = BestCorePredictor::train_excluding_observed(
        &oracle,
        &[],
        &PredictorConfig::fast(),
        1,
        &mut recorder,
    );
    println!("offline pipeline span profile:");
    println!("{}", recorder.report());

    // A mixed-priority preemptive workload, so the series shows stalls
    // and evictions, not just placements.
    let arch = Architecture::paper_quad();
    let plan = ArrivalPlan::uniform_with_priorities(400, 40_000_000, suite.len(), 3, 7);
    let mut proposed = ProposedSystem::with_model(&arch, &oracle, model, predictor);

    // Attach the sink: one window every 4M cycles.
    let mut sink = MetricsSink::new(arch.num_cores(), 4_000_000);
    let metrics = Simulator::new(arch.num_cores())
        .with_discipline(QueueDiscipline::PreemptivePriority)
        .run_with_sink(&plan, &mut proposed, &mut sink);
    let report = sink.report();

    // The per-core time-series: utilisation and queue pressure window by
    // window.
    println!(
        "ran {} jobs over {} cycles, {} windows:",
        metrics.jobs_completed,
        metrics.total_cycles,
        report.points.len()
    );
    println!(
        "{:>10} {:>8} {:>8} {:>7} {:>7}  per-core utilisation",
        "window end", "arrive", "complete", "depth", "util%"
    );
    for point in &report.points {
        let cores: Vec<String> = point
            .cores
            .iter()
            .map(|c| format!("{:>4.0}%", c.utilisation * 100.0))
            .collect();
        println!(
            "{:>10} {:>8} {:>8} {:>7} {:>6.1}%  {}",
            point.end,
            point.arrivals,
            point.completions,
            point.ready_depth,
            point.mean_utilisation() * 100.0,
            cores.join(" ")
        );
    }

    // Run-wide histograms: the tail, with bounded relative error (every
    // quantile overshoots the true order statistic by at most 1/32).
    let latency = &report.latency_cycles;
    println!(
        "\njob latency cycles: p50 {} / p95 {} / p99 {} / max {} (exact mean {:.0})",
        latency.p50(),
        latency.p95(),
        latency.p99(),
        latency.max(),
        latency.mean()
    );
    let stalls = &report.stall_cycles;
    println!(
        "stall episodes: {} totalling {} cycles, p95 {}",
        stalls.count(),
        stalls.sum(),
        stalls.p95()
    );

    // Prometheus text exposition of the whole run.
    println!("\nPrometheus exposition (first lines):");
    let text = report.prometheus("proposed");
    for line in text.lines().take(12) {
        println!("  {line}");
    }
    println!("  ... {} lines total", text.lines().count());
}
