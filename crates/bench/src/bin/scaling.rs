//! Architecture scaling: the paper's Figure 1 "general structure could be
//! scaled up or down for different system requirements".
//!
//! Two modes:
//!
//! * **Family table** (default): sweeps hand-picked 2–8-core
//!   architectures (always keeping at least one 8 KB profiling-capable
//!   core) and reports each system's total energy normalised to the
//!   same-size base system.
//!
//! * **Many-core sweep** (`--manycore`, or `--smoke` for the quick CI
//!   variant): tiles the paper's 2/4/8/8 KB quad pattern out to
//!   {4, 16, 64, 256, 1024} cores, runs the proposed system against the
//!   base system at a constant per-core load (jobs = 100 x cores over a
//!   fixed horizon), and records energy, mean turnaround, makespan and
//!   host wall time per point. The full sweep writes
//!   `results/BENCH_scaling.json`; `--smoke` stops at 64 cores with a
//!   lighter load and writes no artifact. The sweep exists to exercise
//!   the indexed event loop at scales where the old linear scans were
//!   quadratic in aggregate — its wall-time column is the scaling story.
//!
//! ```sh
//! cargo run --release -p hetero-bench --bin scaling [jobs] [horizon] [seed]
//! cargo run --release -p hetero-bench --bin scaling -- --manycore
//! cargo run --release -p hetero-bench --bin scaling -- --smoke
//! ```

use cache_sim::CacheSizeKb;
use energy_model::EnergyModel;
use hetero_bench::json::Json;
use hetero_bench::{parse_plan_args, tiled_architecture};
use hetero_core::{
    Architecture, BaseSystem, BestCorePredictor, EnergyCentricSystem, OptimalSystem,
    PredictorConfig, ProposedSystem, SuiteOracle,
};
use multicore_sim::{CoreId, RunMetrics, Simulator};
use std::time::Instant;
use workloads::{ArrivalPlan, Suite};

fn architectures() -> Vec<(&'static str, Architecture)> {
    use CacheSizeKb::{K2, K4, K8};
    vec![
        (
            "2-core (2/8)",
            Architecture::new(vec![K2, K8], CoreId(1), None),
        ),
        (
            "3-core (2/4/8)",
            Architecture::new(vec![K2, K4, K8], CoreId(2), None),
        ),
        ("4-core (paper)", Architecture::paper_quad()),
        (
            "6-core (2x2/2x4/2x8)",
            Architecture::new(vec![K2, K2, K4, K4, K8, K8], CoreId(5), Some(CoreId(4))),
        ),
        (
            "8-core (2x2/2x4/4x8)",
            Architecture::new(
                vec![K2, K2, K4, K4, K8, K8, K8, K8],
                CoreId(7),
                Some(CoreId(6)),
            ),
        ),
    ]
}

/// One measured (system, scale) point of the many-core sweep.
struct SweepPoint {
    cores: usize,
    jobs: usize,
    base: RunMetrics,
    base_wall_s: f64,
    proposed: RunMetrics,
    proposed_wall_s: f64,
}

impl SweepPoint {
    fn energy_ratio(&self) -> f64 {
        self.proposed.energy.total() / self.base.energy.total()
    }

    fn mean_turnaround(metrics: &RunMetrics) -> f64 {
        metrics.turnaround_cycles as f64 / metrics.jobs_completed.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("cores", Json::UInt(self.cores as u64)),
            ("jobs", Json::UInt(self.jobs as u64)),
            ("base_energy_nj", Json::Num(self.base.energy.total())),
            (
                "base_mean_turnaround_cycles",
                Json::Num(Self::mean_turnaround(&self.base)),
            ),
            ("base_makespan_cycles", Json::UInt(self.base.total_cycles)),
            ("base_wall_s", Json::Num(self.base_wall_s)),
            (
                "proposed_energy_nj",
                Json::Num(self.proposed.energy.total()),
            ),
            (
                "proposed_mean_turnaround_cycles",
                Json::Num(Self::mean_turnaround(&self.proposed)),
            ),
            (
                "proposed_makespan_cycles",
                Json::UInt(self.proposed.total_cycles),
            ),
            ("proposed_wall_s", Json::Num(self.proposed_wall_s)),
            ("proposed_over_base_energy", Json::Num(self.energy_ratio())),
        ])
    }
}

fn timed_run(
    simulator: &Simulator,
    plan: &ArrivalPlan,
    system: &mut impl multicore_sim::Scheduler,
) -> (RunMetrics, f64) {
    let start = Instant::now();
    let metrics = simulator.run(plan, system);
    (metrics, start.elapsed().as_secs_f64())
}

/// The many-core sweep: proposed vs base at a constant per-core load.
fn run_manycore(smoke: bool) {
    let (scales, jobs_per_core, horizon): (&[usize], usize, u64) = if smoke {
        (&[4, 16, 64], 25, 10_000_000)
    } else {
        (&[4, 16, 64, 256, 1024], 100, 40_000_000)
    };
    println!(
        "== Many-core scaling: proposed vs base, {jobs_per_core} jobs/core over {horizon} \
         cycles =="
    );
    if smoke {
        println!("smoke mode: stops at 64 cores, no artifact\n");
    }

    let suite = Suite::eembc_like_small();
    let model = EnergyModel::default();
    println!(
        "characterising {} kernels x 18 configurations ...",
        suite.len()
    );
    let oracle = SuiteOracle::build(&suite, &model);
    println!("training the bagged ANN best-core predictor (fast config) ...\n");
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::fast());

    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "cores", "jobs", "base turn", "prop turn", "base wall", "prop wall", "energy x", "save"
    );
    let mut points = Vec::new();
    for &cores in scales {
        let jobs = jobs_per_core * cores;
        let arch = tiled_architecture(cores);
        let plan = ArrivalPlan::uniform(jobs, horizon, suite.len(), 20190325);
        let simulator = Simulator::new(cores);

        let mut base = BaseSystem::new(&oracle, model, cores);
        let (base_metrics, base_wall_s) = timed_run(&simulator, &plan, &mut base);
        assert_eq!(base_metrics.jobs_completed, jobs as u64);

        let mut proposed = ProposedSystem::with_model(&arch, &oracle, model, predictor.clone());
        let (proposed_metrics, proposed_wall_s) = timed_run(&simulator, &plan, &mut proposed);
        assert_eq!(proposed_metrics.jobs_completed, jobs as u64);

        let point = SweepPoint {
            cores,
            jobs,
            base: base_metrics,
            base_wall_s,
            proposed: proposed_metrics,
            proposed_wall_s,
        };
        println!(
            "{:>6} {:>8} {:>12.0} {:>12.0} {:>11.3}s {:>11.3}s {:>9.3}x {:>9.1}%",
            cores,
            jobs,
            SweepPoint::mean_turnaround(&point.base),
            SweepPoint::mean_turnaround(&point.proposed),
            point.base_wall_s,
            point.proposed_wall_s,
            point.energy_ratio(),
            (1.0 - point.energy_ratio()) * 100.0,
        );
        points.push(point);
    }

    if smoke {
        println!("\nsmoke sweep complete (no artifact written)");
        return;
    }

    let mut fields = vec![("experiment", Json::str("manycore_scaling"))];
    fields.extend(hetero_bench::perf::provenance());
    let doc = Json::object(fields.into_iter().chain([
        ("suite", Json::str("eembc_like_small")),
        ("predictor", Json::str("fast")),
        ("jobs_per_core", Json::UInt(jobs_per_core as u64)),
        ("horizon_cycles", Json::UInt(horizon)),
        ("seed", Json::UInt(20190325)),
        (
            "points",
            Json::Array(points.iter().map(SweepPoint::to_json).collect()),
        ),
    ]));
    let path = std::path::Path::new("results").join("BENCH_scaling.json");
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, doc.to_pretty())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(error) => {
            eprintln!("failed to write {}: {error}", path.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        run_manycore(true);
        return;
    }
    if args.iter().any(|a| a == "--manycore") {
        run_manycore(false);
        return;
    }

    let (jobs, horizon, seed) = parse_plan_args();
    println!("== Architecture scaling: total energy normalised to same-size base ==");
    println!("{jobs} uniform arrivals over {horizon} cycles, seed {seed}\n");

    let suite = Suite::eembc_like();
    let model = EnergyModel::default();
    println!(
        "characterising {} kernels x 18 configurations ...",
        suite.len()
    );
    let oracle = SuiteOracle::build(&suite, &model);
    println!("training the bagged ANN best-core predictor ...\n");
    let predictor = BestCorePredictor::train(&oracle, &PredictorConfig::paper());
    let plan = ArrivalPlan::uniform(jobs, horizon, suite.len(), seed);

    println!(
        "{:<22} {:>9} {:>9} {:>15} {:>10} {:>10}",
        "architecture", "optimal", "en-centr", "proposed", "prop. save", "makespan x"
    );
    for (name, arch) in architectures() {
        let simulator = Simulator::new(arch.num_cores());

        let mut base = BaseSystem::new(&oracle, model, arch.num_cores());
        let base_metrics = simulator.run(&plan, &mut base);

        let mut optimal = OptimalSystem::new(&arch, &oracle, model);
        let optimal_metrics = simulator.run(&plan, &mut optimal);

        let mut energy_centric = EnergyCentricSystem::new(&arch, &oracle, model, predictor.clone());
        let energy_centric_metrics = simulator.run(&plan, &mut energy_centric);

        let mut proposed = ProposedSystem::with_model(&arch, &oracle, model, predictor.clone());
        let proposed_metrics = simulator.run(&plan, &mut proposed);

        let base_total = base_metrics.energy.total();
        println!(
            "{:<22} {:>9.3} {:>9.3} {:>15.3} {:>9.1}% {:>10.3}",
            name,
            optimal_metrics.energy.total() / base_total,
            energy_centric_metrics.energy.total() / base_total,
            proposed_metrics.energy.total() / base_total,
            (1.0 - proposed_metrics.energy.total() / base_total) * 100.0,
            proposed_metrics.total_cycles as f64 / base_metrics.total_cycles as f64,
        );
    }

    println!(
        "\nexpected shape: the proposed system saves energy at every scale; savings are \
         largest where contention forces real stall-vs-borrow decisions (few cores) and \
         converge toward the pure specialisation gain as cores multiply."
    );
}
